#include "sched/multi_level.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "common/strutil.h"
#include "sched/cg.h"
#include "sched/mvm.h"
#include "sched/vvm.h"

namespace cimmlc {

std::string
ScheduleOptions::toString() const
{
    std::vector<std::string> parts;
    if (cg_duplication)
        parts.push_back("cg-dup");
    if (cg_pipeline)
        parts.push_back("cg-pipe");
    if (mvm_duplication)
        parts.push_back("mvm-dup");
    if (mvm_pipeline)
        parts.push_back("mvm-pipe");
    if (vvm_remap)
        parts.push_back("vvm-remap");
    if (binding.bit_binding == XbarDim::kXB)
        parts.push_back("bits-to-xb");
    if (segment_max_nodes > 0)
        parts.push_back(strformat("seg<=%lld", static_cast<long long>(
                                                   segment_max_nodes)));
    if (dual_mode)
        parts.push_back("dual");
    if (host_offload)
        parts.push_back("host");
    return parts.empty() ? "none" : join(parts, "+");
}

Status
validateGraphForScheduling(const Graph &graph)
{
    for (const Node &node : graph.nodes()) {
        if (node.kind != OpKind::kConv2d)
            continue;
        if (node.inputs.empty()
            || graph.tensor(node.inputs[0]).dims.size() != 4) {
            return invalidArgument(
                "conv2d node '" + node.name
                + "' input must be a 4-D NCHW tensor");
        }
        if (graph.tensor(node.output).dims.size() != 4) {
            return invalidArgument(
                "conv2d node '" + node.name
                + "' output must be a 4-D NCHW tensor");
        }
    }
    return Status::ok();
}

Status
refreshCmActivationStats(CgResult &cg, bool cg_pipeline)
{
    std::map<NodeId, const NodeCost *> cost_by_node;
    for (const NodeCost &cost : cg.costs)
        cost_by_node[cost.node] = &cost;
    for (Segment &segment : cg.segments) {
        std::int64_t peak = 0;
        for (NodeId node : segment.nodes) {
            auto it = cost_by_node.find(node);
            if (it == cost_by_node.end())
                return internalError(strformat(
                    "segment references node %d with no cost record",
                    node));
            if (!it->second->is_cim)
                continue;
            auto dit = cg.decisions.find(node);
            if (dit == cg.decisions.end())
                return internalError(strformat(
                    "CIM node %d has no CG decision record", node));
            const std::int64_t xbs = it->second->grid.physicalCrossbars()
                                     * dit->second.duplication;
            if (cg_pipeline) {
                peak += xbs;
            } else {
                peak = std::max(peak, xbs);
            }
        }
        segment.peak_active_xbs = peak;
    }
    return Status::ok();
}

ScheduleOptions
clampOptionsToMode(ScheduleOptions options, ComputeMode mode)
{
    if (mode == ComputeMode::kCM) {
        options.mvm_duplication = false;
        options.mvm_pipeline = false;
        options.vvm_remap = false;
    } else if (mode == ComputeMode::kXBM) {
        options.vvm_remap = false;
    }
    return options;
}

StatusOr<Schedule>
scheduleFromCg(const Graph &graph, const CimArchitecture &arch,
               const ScheduleOptions &options, const HostModel &host,
               CgResult cg)
{
    if (arch.mode != ComputeMode::kCM) {
        CIMMLC_RETURN_IF_ERROR(
            runMvmOptimization(graph, arch, options, &cg));
    } else {
        CIMMLC_RETURN_IF_ERROR(
            refreshCmActivationStats(cg, options.cg_pipeline));
    }
    if (arch.mode == ComputeMode::kWLM) {
        CIMMLC_RETURN_IF_ERROR(
            runVvmOptimization(graph, arch, options, &cg));
    }

    // Assemble the Schedule.
    Schedule schedule;
    schedule.graph_name = graph.name();
    schedule.arch_name = arch.name;
    schedule.mode = arch.mode;
    schedule.options = options;
    schedule.segments = std::move(cg.segments);
    schedule.host_regions = std::move(cg.host_regions);
    schedule.host_model = host;

    for (const NodeCost &cost : cg.costs) {
        OperatorMapping mapping;
        mapping.node = cost.node;
        mapping.is_cim = cost.is_cim;
        mapping.windows = cost.windows;
        mapping.cycles_per_window = cost.cycles_per_window;
        mapping.base_latency = cost.base_latency;
        mapping.fill_fraction = cost.fill_fraction;
        mapping.alu_cycles = cost.alu_cycles;
        mapping.on_host = cost.on_host;
        mapping.grid = cost.grid;
        mapping.chip_splits = cost.chip_splits;

        auto it = cg.decisions.find(cost.node);
        if (it != cg.decisions.end()) {
            const CgDecision &decision = it->second;
            mapping.duplication = decision.cg_duplication;
            mapping.mvm_duplication = decision.duplication;
            mapping.cores_per_replica = decision.cores_per_replica;
            mapping.core_base = decision.core_base;
            mapping.segment = decision.segment;
            mapping.stage_latency = decision.stage_latency;
            mapping.resident = decision.resident;
        }
        auto vit = cg.vvm_spreads.find(cost.node);
        if (vit != cg.vvm_spreads.end())
            mapping.vvm_spread = vit->second;
        mapping.mvm_pipelined =
            options.mvm_pipeline && arch.mode != ComputeMode::kCM;

        schedule.op_index[cost.node] = schedule.ops.size();
        schedule.ops.push_back(mapping);
    }

    // Stage utilizations against each segment bottleneck.
    for (const Segment &segment : schedule.segments) {
        for (NodeId node : segment.nodes) {
            OperatorMapping &mapping = schedule.mapping(node);
            if (segment.bottleneck_cycles > 0.0 &&
                mapping.stage_latency > 0.0) {
                mapping.utilization = std::clamp(
                    mapping.stage_latency / segment.bottleneck_cycles,
                    0.0, 1.0);
            }
        }
    }

    schedule.total_latency_cycles = 0.0;
    schedule.total_reload_cycles = 0.0;
    schedule.peak_active_xbs = 0;
    for (const Segment &segment : schedule.segments) {
        schedule.total_latency_cycles +=
            segment.latency_cycles + segment.reload_cycles;
        schedule.total_reload_cycles += segment.reload_cycles;
        schedule.peak_active_xbs =
            std::max(schedule.peak_active_xbs, segment.peak_active_xbs);
    }
    return schedule;
}

StatusOr<Schedule>
scheduleGraph(const Graph &graph, const CimArchitecture &arch,
              const ScheduleOptions &options, const HostModel &host)
{
    CIMMLC_RETURN_IF_ERROR(validateGraphForScheduling(graph));
    const ScheduleOptions effective = clampOptionsToMode(options, arch.mode);
    CIMMLC_ASSIGN_OR_RETURN(
        CgResult cg, runCgOptimization(graph, arch, effective, host));
    return scheduleFromCg(graph, arch, effective, host, std::move(cg));
}

std::string
Schedule::summary(const Graph &graph) const
{
    std::ostringstream out;
    out << strformat(
        "schedule '%s' on '%s' [%s, %s]: %.3g cycles, %lld segments, "
        "peak %lld active crossbars\n",
        graph_name.c_str(), arch_name.c_str(), computeModeName(mode),
        options.toString().c_str(), total_latency_cycles,
        static_cast<long long>(segments.size()),
        static_cast<long long>(peak_active_xbs));
    for (std::size_t s = 0; s < segments.size(); ++s) {
        const Segment &segment = segments[s];
        out << strformat(
            "  segment %zu: %zu nodes, %lld cores, %.3g cycles "
            "(+%.3g reload)%s\n",
            s, segment.nodes.size(),
            static_cast<long long>(segment.cores_used),
            segment.latency_cycles, segment.reload_cycles,
            segment.resident ? " [resident]" : "");
    }
    for (std::size_t r = 0; r < host_regions.size(); ++r) {
        const HostRegion &region = host_regions[r];
        out << strformat(
            "  host region %zu: %zu nodes, %.3g host cycles "
            "(vs %.3g chip), %.3g transfer bits\n",
            r, region.nodes.size(), region.host_cycles,
            region.chip_cycles, region.transfer_bits);
    }
    for (const OperatorMapping &mapping : ops) {
        if (!mapping.is_cim)
            continue;
        const Node &node = graph.node(mapping.node);
        out << strformat(
            "    %-24s D=%lld (mvm %lld, spread %lld) cores=%lldx%lld "
            "vxbs=%lld win=%lld cpw=%.3g S=%.3g\n",
            node.name.c_str(),
            static_cast<long long>(mapping.duplication),
            static_cast<long long>(mapping.mvm_duplication),
            static_cast<long long>(mapping.vvm_spread),
            static_cast<long long>(mapping.duplication),
            static_cast<long long>(mapping.cores_per_replica),
            static_cast<long long>(mapping.grid.physicalCrossbars()),
            static_cast<long long>(mapping.windows),
            mapping.cycles_per_window, mapping.stage_latency);
    }
    return out.str();
}

} // namespace cimmlc
