#include "arch/noc.h"

#include <bit>
#include <cmath>

#include "common/logging.h"
#include "common/mathutil.h"

namespace cimmlc {

NocModel::NocModel(NocType type, std::int64_t grid_rows,
                   std::int64_t grid_cols, double bandwidth,
                   std::vector<double> cost_matrix)
    : type_(type), rows_(grid_rows), cols_(grid_cols),
      bandwidth_(bandwidth), cost_matrix_(std::move(cost_matrix))
{
    CIMMLC_CHECK_GT(rows_, 0);
    CIMMLC_CHECK_GT(cols_, 0);
    if (!cost_matrix_.empty()) {
        const std::size_t n = static_cast<std::size_t>(endpointCount());
        CIMMLC_CHECK_EQ(cost_matrix_.size(), n * n)
            << "NoC cost matrix has wrong size";
    }
}

NocModel
NocModel::forChip(const CimArchitecture &arch)
{
    return NocModel(arch.chip.core_noc, arch.chip.core_rows,
                    arch.chip.core_cols, arch.chip.core_noc_bandwidth,
                    arch.chip.core_noc_cost);
}

NocModel
NocModel::forCore(const CimArchitecture &arch)
{
    return NocModel(arch.core.xb_noc, arch.core.xb_rows,
                    arch.core.xb_cols, arch.core.xb_noc_bandwidth,
                    arch.core.xb_noc_cost);
}

std::int64_t
NocModel::hopCount(std::int64_t src, std::int64_t dst) const
{
    CIMMLC_CHECK(src >= 0 && src < endpointCount()) << "bad src " << src;
    CIMMLC_CHECK(dst >= 0 && dst < endpointCount()) << "bad dst " << dst;
    if (src == dst)
        return 0;
    switch (type_) {
      case NocType::kIdeal:
        return 0;
      case NocType::kSharedBus:
      case NocType::kDisjointBufferSwitch:
        // One arbitration + one transfer regardless of position.
        return 1;
      case NocType::kMesh: {
        const std::int64_t sr = src / cols_, sc = src % cols_;
        const std::int64_t dr = dst / cols_, dc = dst % cols_;
        return std::abs(sr - dr) + std::abs(sc - dc);
      }
      case NocType::kHTree: {
        // Hop count = up to the lowest common subtree and back down over
        // a binary fat-tree on linear indices.
        std::int64_t a = src, b = dst;
        std::int64_t hops = 0;
        while (a != b) {
            a >>= 1;
            b >>= 1;
            hops += 2;
        }
        return hops;
      }
    }
    return 1;
}

double
NocModel::transferCycles(std::int64_t src, std::int64_t dst,
                         double bits) const
{
    if (!cost_matrix_.empty()) {
        const double cycles_per_bit =
            cost_matrix_[static_cast<std::size_t>(src * endpointCount() +
                                                  dst)];
        return cycles_per_bit * bits;
    }
    if (type_ == NocType::kIdeal || bandwidth_ <= 0.0)
        return 0.0;
    const std::int64_t hops = hopCount(src, dst);
    if (hops == 0)
        return 0.0;
    // Wormhole-style: serialization dominates, plus per-hop latency.
    return bits / bandwidth_ + static_cast<double>(hops);
}

std::int64_t
NocModel::diameter() const
{
    // Closed forms of the all-pairs maximum of hopCount().
    if (endpointCount() <= 1)
        return 0;
    switch (type_) {
      case NocType::kIdeal:
        return 0;
      case NocType::kSharedBus:
      case NocType::kDisjointBufferSwitch:
        return 1;
      case NocType::kMesh:
        return (rows_ - 1) + (cols_ - 1);
      case NocType::kHTree:
        // Two indices below n first meet after bit_width(a ^ b) shifts,
        // which peaks at bit_width(n - 1) (e.g. 0 and n - 1).
        return 2 * static_cast<std::int64_t>(std::bit_width(
                       static_cast<std::uint64_t>(endpointCount() - 1)));
    }
    return 1;
}

} // namespace cimmlc
