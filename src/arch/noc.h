/**
 * @file
 * NoC cost model shared by the scheduler and the performance simulator.
 *
 * The paper abstracts the interconnect as a type plus a per-pair cost
 * matrix (core_noc / core_noc_cost, Figure 5). When a matrix is given it
 * wins; otherwise hop counts are derived from the topology and the
 * per-hop bandwidth.
 */
#ifndef CIMMLC_ARCH_NOC_H
#define CIMMLC_ARCH_NOC_H

#include <cstdint>
#include <vector>

#include "arch/arch.h"

namespace cimmlc {

/**
 * Transfer-cost oracle for one interconnect level (chip tier between
 * cores, or core tier between crossbars).
 */
class NocModel
{
  public:
    /**
     * @param type       topology
     * @param grid_rows  rows of the endpoint grid
     * @param grid_cols  cols of the endpoint grid
     * @param bandwidth  bits per cycle per link; 0 = ideal (free)
     * @param cost_matrix optional explicit cycles-per-bit matrix
     */
    NocModel(NocType type, std::int64_t grid_rows, std::int64_t grid_cols,
             double bandwidth, std::vector<double> cost_matrix = {});

    /** Builds the chip-tier model of @p arch. */
    static NocModel forChip(const CimArchitecture &arch);

    /** Builds the core-tier model of @p arch. */
    static NocModel forCore(const CimArchitecture &arch);

    std::int64_t endpointCount() const { return rows_ * cols_; }
    NocType type() const { return type_; }

    /** Routing distance between endpoints (topology-defined). */
    std::int64_t hopCount(std::int64_t src, std::int64_t dst) const;

    /** Cycles to move @p bits from @p src to @p dst, contention-free. */
    double transferCycles(std::int64_t src, std::int64_t dst,
                          double bits) const;

    /**
     * Worst-case hop count across the network (its diameter), in O(1)
     * from the topology and the grid shape.
     */
    std::int64_t diameter() const;

  private:
    NocType type_;
    std::int64_t rows_;
    std::int64_t cols_;
    double bandwidth_;
    std::vector<double> cost_matrix_;
};

} // namespace cimmlc

#endif // CIMMLC_ARCH_NOC_H
