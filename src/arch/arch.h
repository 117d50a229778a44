/**
 * @file
 * Abs-arch and Abs-com: the paper's CIM hardware abstraction (Section 3.2).
 *
 * A CIM accelerator is described by three parameter tiers — chip, core,
 * crossbar (Figures 5, 6, 8) — plus the computing mode (Figure 4(d)-(f))
 * that records the scheduling granularity the chip's programming interface
 * exposes:
 *   - CM  (core mode):     whole DNN operators per core        -> CG-grained
 *   - XBM (crossbar mode): MVMs per crossbar                   -> +MVM-grained
 *   - WLM (wordline mode): partial-row activation per crossbar -> +VVM-grained
 */
#ifndef CIMMLC_ARCH_ARCH_H
#define CIMMLC_ARCH_ARCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/mathutil.h"
#include "common/status.h"

namespace cimmlc {

/** Computing-mode abstraction (Abs-com). */
enum class ComputeMode { kCM, kXBM, kWLM };

const char *computeModeName(ComputeMode mode);

/** Parses "CM" / "XBM" / "WLM" (case-insensitive). */
StatusOr<ComputeMode> parseComputeMode(const std::string &text);

/** On-chip network topologies the abstraction recognizes. */
enum class NocType {
    kIdeal,               //!< zero-cost interconnect ("\" in the paper)
    kSharedBus,           //!< single shared medium
    kMesh,                //!< 2-d mesh, XY routing
    kHTree,               //!< hierarchical tree
    kDisjointBufferSwitch //!< Jia et al.'s disjoint buffer switch
};

const char *nocTypeName(NocType type);
StatusOr<NocType> parseNocType(const std::string &text);

/** Memory-cell technologies (Figure 1's device axis). */
enum class CellType { kSram, kReram, kFlash, kPcm, kSttMram };

const char *cellTypeName(CellType type);
StatusOr<CellType> parseCellType(const std::string &text);

/**
 * Chip-tier parameters (Figure 5).
 *
 * A zero value for ALU/buffer parameters means "ideal": the paper marks
 * unconstrained parameters with "\" and disregards their influence.
 */
struct ChipTier {
    std::int64_t core_rows = 1; //!< cores per column of the core grid
    std::int64_t core_cols = 1; //!< cores per row of the core grid
    NocType core_noc = NocType::kIdeal;
    //! per-hop transfer bandwidth, bits/cycle; 0 = ideal
    double core_noc_bandwidth = 0.0;
    //! optional explicit cost matrix, cycles/bit for each (src,dst) pair
    std::vector<double> core_noc_cost;
    double alu_ops_per_cycle = 0.0; //!< digital compute; 0 = ideal
    double l0_size_kib = 0.0;       //!< global buffer capacity; 0 = ideal
    double l0_bandwidth = 0.0;      //!< global buffer bits/cycle; 0 = ideal

    std::int64_t coreNumber() const { return core_rows * core_cols; }
};

/** Core-tier parameters (Figure 6). */
struct CoreTier {
    std::int64_t xb_rows = 1; //!< crossbars per column of the grid
    std::int64_t xb_cols = 1; //!< crossbars per row of the grid
    NocType xb_noc = NocType::kIdeal;
    double xb_noc_bandwidth = 0.0;
    std::vector<double> xb_noc_cost;
    double alu_ops_per_cycle = 0.0;
    double l1_size_kib = 0.0;
    double l1_bandwidth = 0.0;

    std::int64_t xbNumber() const { return xb_rows * xb_cols; }
};

/** Crossbar-tier parameters (Figure 8). */
struct CrossbarTier {
    std::int64_t rows = 128;
    std::int64_t cols = 128;
    //! max rows activated simultaneously (WLM "parallel row")
    std::int64_t parallel_row = 128;
    int dac_bits = 1;
    int adc_bits = 8;
    CellType cell_type = CellType::kReram;
    int cell_bits = 2; //!< storage precision of one cell
};

/**
 * A complete CIM accelerator description.
 *
 * `mode` is the *most capable* computing mode the chip's programming
 * interface exposes; the multi-level scheduler applies every optimization
 * level at or above that granularity (Figure 3).
 */
struct CimArchitecture {
    std::string name = "unnamed";
    ComputeMode mode = ComputeMode::kXBM;
    ChipTier chip;
    CoreTier core;
    CrossbarTier xbar;
    int weight_bits = 8;     //!< DNN weight precision
    int activation_bits = 8; //!< DNN activation precision

    /** Total physical crossbars on the chip. */
    std::int64_t
    totalCrossbars() const
    {
        return chip.coreNumber() * core.xbNumber();
    }

    /** Crossbar columns consumed per logical weight (bit slicing). */
    std::int64_t
    cellsPerWeight() const
    {
        return ceilDiv(weight_bits, xbar.cell_bits);
    }

    /** Logical weight columns one crossbar holds. */
    std::int64_t
    logicalColsPerCrossbar() const
    {
        return xbar.cols / cellsPerWeight();
    }

    /** Input bit-serial cycles per crossbar activation. */
    std::int64_t
    dacCyclesPerActivation() const
    {
        return ceilDiv(activation_bits, xbar.dac_bits);
    }

    /** Row groups that must be activated serially in WLM terms. */
    std::int64_t
    rowGroupsPerActivation() const
    {
        return (xbar.rows + xbar.parallel_row - 1) / xbar.parallel_row;
    }

    /** True when the device technology freezes weights at load time. */
    bool weightsStationary() const;

    /** Semantic checks over every tier. Logs nothing; see advisory(). */
    Status validate() const;

    /**
     * A survivable but questionable setting worth one warning per
     * compile ("" when there is none). The session's validate stage
     * logs it; validate() is called many times per compile and stays
     * free of side effects.
     */
    std::string advisory() const;

    /** Multi-line dump mirroring the Figure 17-19 abstraction boxes. */
    std::string toString() const;
};

} // namespace cimmlc

#endif // CIMMLC_ARCH_ARCH_H
