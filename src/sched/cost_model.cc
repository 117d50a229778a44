#include "sched/cost_model.h"

#include <algorithm>
#include <cmath>

#include "arch/device.h"
#include "common/logging.h"
#include "common/mathutil.h"
#include "graph/analysis.h"

namespace cimmlc {

namespace {

/** Fill fraction of a conv stage: rows of input needed before the first
 * output over total output rows — roughly kernel/out_height. */
double
convFillFraction(const Graph &graph, const Node &node)
{
    const auto &out = graph.tensor(node.output).dims;
    // scheduleGraph validates 4-D NCHW conv tensors up front; a direct
    // caller with a malformed graph gets the conservative serializing
    // fill instead of an out-of-bounds read.
    if (out.size() != 4)
        return 1.0;
    const double out_h = static_cast<double>(out[2]);
    const double k = static_cast<double>(node.conv().kernel_h);
    return std::min(1.0, k / std::max(1.0, out_h));
}

} // namespace

NodeCost
computeNodeCost(const Graph &graph, NodeId node_id,
                const CimArchitecture &arch, std::int64_t vvm_spread,
                const DimensionBinding &binding)
{
    const Node &node = graph.node(node_id);
    NodeCost cost;
    cost.node = node_id;
    cost.is_cim = isCimMappable(node.kind);

    if (cost.is_cim) {
        const auto matrix = weightMatrixShape(graph, node_id);
        CIMMLC_CHECK(matrix.has_value());
        cost.grid = computeVxbGrid(*matrix, arch, binding);
        cost.windows = mvmCount(graph, node_id);

        // Serial row groups inside one crossbar: activation is limited to
        // parallel_row wordlines at a time. With the naive mapping each
        // vertical tile packs rows densely, so the fullest crossbar
        // serializes its full row count. The VVM remap balances all row
        // groups across the operator's vertical tiles (plus any borrowed
        // spread arrays) and fires groups on different arrays in the
        // same cycle (Figure 14).
        std::int64_t row_groups;
        if (vvm_spread >= 1) {
            const std::int64_t total_groups =
                ceilDiv(matrix->rows, arch.xbar.parallel_row);
            row_groups = ceilDiv(total_groups,
                                 cost.grid.tiles_r * vvm_spread);
        } else {
            const std::int64_t rows_used =
                std::min(matrix->rows, arch.xbar.rows);
            row_groups = ceilDiv(rows_used, arch.xbar.parallel_row);
        }

        const double device_read =
            deviceProfile(arch.xbar.cell_type).read_latency_cycles;
        cost.cycles_per_window =
            static_cast<double>(arch.dacCyclesPerActivation()) *
            static_cast<double>(row_groups) * device_read;
        cost.base_latency =
            static_cast<double>(cost.windows) * cost.cycles_per_window;

        cost.halo_reuse =
            node.kind == OpKind::kConv2d ? node.conv().kernel_w : 1;
        cost.cores_per_replica = coresPerReplica(cost.grid, arch);
        if (cost.cores_per_replica > arch.chip.coreNumber()) {
            // One replica exceeds the whole chip: execute in serial
            // chunks with reprogramming between them.
            cost.chip_splits = ceilDiv(cost.cores_per_replica,
                                       arch.chip.coreNumber());
            cost.cores_per_replica = arch.chip.coreNumber();
            cost.base_latency *= static_cast<double>(cost.chip_splits);
        }

        cost.is_stage = true;
        if (node.kind == OpKind::kConv2d) {
            cost.fill_fraction = convFillFraction(graph, node);
        } else {
            // A linear layer consumes the full upstream activation
            // before its first output vector.
            cost.fill_fraction = 1.0;
        }

        // Fresh operand traffic per window. Convolutions reuse the
        // sliding-window halo, so each window draws only one new patch
        // column (C_in * kh * stride pixels) from the shared buffer;
        // linear layers stream the whole row vector. Outputs forward
        // directly into the consumer's pipeline stage.
        if (node.kind == OpKind::kConv2d) {
            const auto &in = graph.tensor(node.inputs[0]).dims;
            // In double: a stride past the input is legal, and its
            // int64 product can overflow.
            cost.transfer_bits_per_window =
                static_cast<double>(in[1])
                * static_cast<double>(node.conv().kernel_h)
                * static_cast<double>(node.conv().stride)
                * arch.activation_bits;
        } else {
            cost.transfer_bits_per_window =
                static_cast<double>(matrix->rows) * arch.activation_bits;
        }
        return cost;
    }

    // Digital nodes: stage latency from ALU throughput when the chip
    // declares one; "ideal" ALUs (0) execute for free, matching the
    // paper's "\" parameters. Elementwise digital work parallelizes
    // across the chip ALU plus every core-tier ALU (Figures 5 and 6
    // both carry an ALU entry).
    const std::int64_t alu_ops = aluOpCount(graph, node_id);
    const double alu_rate =
        arch.chip.alu_ops_per_cycle +
        arch.core.alu_ops_per_cycle *
            static_cast<double>(arch.chip.coreNumber());
    if (alu_ops > 0 && alu_rate > 0.0) {
        cost.alu_cycles = static_cast<double>(alu_ops) / alu_rate;
        cost.is_stage = true;
        cost.base_latency = cost.alu_cycles;
    }
    switch (node.kind) {
      case OpKind::kRelu:
      case OpKind::kGelu:
      case OpKind::kAdd:
      case OpKind::kConcat:
      case OpKind::kMaxPool2d:
      case OpKind::kAvgPool2d:
        // Streaming elementwise/windowed ops overlap almost entirely.
        cost.fill_fraction = 0.02;
        break;
      case OpKind::kSoftmax:
      case OpKind::kLayerNorm:
        // Row-wise reductions: one token row must be complete.
        cost.fill_fraction = 0.05;
        break;
      case OpKind::kMatMul:
      case OpKind::kGlobalAvgPool:
        // Needs the full input operand.
        cost.fill_fraction = 1.0;
        break;
      default:
        cost.fill_fraction = 0.0;
        break;
    }
    return cost;
}

std::vector<NodeCost>
computeGraphCosts(const Graph &graph, const CimArchitecture &arch,
                  const DimensionBinding &binding)
{
    std::vector<NodeCost> costs;
    costs.reserve(graph.nodeCount());
    for (NodeId id : graph.topoOrder())
        costs.push_back(computeNodeCost(graph, id, arch, 0, binding));
    return costs;
}

SegmentLatency
segmentLatency(const std::vector<StageCost> &stages)
{
    SegmentLatency out;
    std::vector<double> effective(stages.size());
    for (std::size_t i = 0; i < stages.size(); ++i) {
        effective[i] = std::max(stages[i].stage_latency,
                                stages[i].floor);
        out.serial += effective[i];
        out.bottleneck = std::max(out.bottleneck, effective[i]);
    }
    // Streaming pipeline: every stage contributes its fill time; the
    // bottleneck stage then streams the remaining work. Fill of the
    // bottleneck itself is part of its full run — exclude exactly one
    // stage (ties still pay their own fills).
    double fill = 0.0;
    bool bottleneck_skipped = false;
    for (std::size_t i = 0; i < stages.size(); ++i) {
        if (!bottleneck_skipped && effective[i] == out.bottleneck) {
            bottleneck_skipped = true;
            continue;
        }
        fill += effective[i] *
                std::clamp(stages[i].fill_fraction, 0.0, 1.0);
    }
    out.pipelined = out.bottleneck + fill;
    // A pipeline can never beat running the bottleneck alone nor lose to
    // fully serial execution.
    out.pipelined = std::min(out.pipelined, out.serial);
    return out;
}

double
stageFloorCycles(const NodeCost &cost, const CimArchitecture &arch)
{
    if (!cost.is_cim)
        return 0.0;
    const double limit_bw = chipBandwidthLimit(arch);
    if (limit_bw <= 0.0)
        return 0.0;
    return static_cast<double>(cost.windows) *
           cost.transfer_bits_per_window / limit_bw;
}

double
chipBandwidthLimit(const CimArchitecture &arch)
{
    double limit_bw = 0.0;
    if (arch.chip.l0_bandwidth > 0.0)
        limit_bw = arch.chip.l0_bandwidth;
    if (arch.chip.core_noc_bandwidth > 0.0) {
        limit_bw = limit_bw == 0.0
                       ? arch.chip.core_noc_bandwidth
                       : std::min(limit_bw, arch.chip.core_noc_bandwidth);
    }
    return limit_bw;
}

double
reloadCycles(const CimArchitecture &arch,
             std::int64_t max_rows_any_crossbar)
{
    const DeviceProfile &device = deviceProfile(arch.xbar.cell_type);
    return static_cast<double>(max_rows_any_crossbar) *
           device.write_latency_cycles;
}

double
segmentReloadCycles(const CimArchitecture &arch,
                    const std::vector<const NodeCost *> &members)
{
    std::int64_t bottleneck = 1;
    for (const NodeCost *cost : members) {
        if (cost == nullptr || !cost->is_cim
            || cost->cores_per_replica <= 0)
            continue;
        const std::int64_t xbs = cost->grid.physicalCrossbars();
        const std::int64_t per_core =
            (xbs + cost->cores_per_replica - 1) / cost->cores_per_replica;
        if (per_core > bottleneck)
            bottleneck = per_core;
    }
    return static_cast<double>(bottleneck) *
           reloadCycles(arch, arch.xbar.rows);
}

double
bandwidthBoundCyclesPerWindow(const NodeCost &cost,
                              const CimArchitecture &arch)
{
    const double limit_bw = chipBandwidthLimit(arch);
    if (limit_bw <= 0.0)
        return cost.cycles_per_window;
    const double transfer = cost.transfer_bits_per_window / limit_bw;
    return std::max(cost.cycles_per_window, transfer);
}

} // namespace cimmlc
