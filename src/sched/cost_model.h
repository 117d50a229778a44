/**
 * @file
 * First-order analytic cost model shared by the scheduler and the
 * performance simulator.
 *
 * A CIM operator is characterized by:
 *   - `windows`  : MVM issues per inference (conv sliding windows, linear
 *                  row vectors) — the unit the paper pipelines (Fig. 12);
 *   - `cycles_per_window` : DAC bit-serial phases x serial row groups
 *                  (divided by the VVM remap spread when applied);
 *   - its VXB tiling, which sets cores/crossbars per replica.
 *
 * Pipeline latency of a segment follows the streaming-dataflow model:
 * fill time of each stage plus the bottleneck stage's full run. Stages
 * that need their whole input before starting (linear after conv,
 * dynamic matmul, global pooling) carry fill fraction 1 and effectively
 * serialize — which is what bounds the paper's pipeline-only speedups
 * to the 2.3-4.7x band (Figure 21(a)).
 */
#ifndef CIMMLC_SCHED_COST_MODEL_H
#define CIMMLC_SCHED_COST_MODEL_H

#include <cstdint>
#include <vector>

#include "arch/arch.h"
#include "graph/graph.h"
#include "sched/mapping.h"
#include "sched/options.h"

namespace cimmlc {

/** Static cost facts about one node on one architecture. */
struct NodeCost {
    NodeId node = kInvalidNode;
    bool is_cim = false;
    bool is_stage = false; //!< participates in the pipeline as a stage

    std::int64_t windows = 0;
    double cycles_per_window = 0.0;
    double base_latency = 0.0; //!< windows * cycles_per_window (D = 1)

    VxbGrid grid;
    std::int64_t cores_per_replica = 0;
    std::int64_t chip_splits = 1;
    //! adjacent windows processed inside one core share the sliding-
    //! window halo resident in L1; intra-core replicas therefore cost
    //! roughly 1/halo_reuse of a cross-core replica's operand traffic
    //! (kernel width for conv, 1 for linear)
    std::int64_t halo_reuse = 1;

    double fill_fraction = 0.0; //!< 1.0 = needs full input (serializes)
    double alu_cycles = 0.0;    //!< digital stage latency
    //! bits crossing the chip NoC per window (input + output)
    double transfer_bits_per_window = 0.0;
    //! hybrid offload: this digital node was moved to the host and
    //! alu_cycles carries its share of the host region's time
    bool on_host = false;
};

/**
 * Computes the cost facts of @p node.
 *
 * @param vvm_spread 0 = naive row mapping (each vertical tile packs its
 *   rows densely, so the fullest crossbar serializes
 *   ceil(min(R, xb_rows)/parallel_row) groups). >= 1 = the VVM remap:
 *   all ceil(R/parallel_row) row groups are balanced across the
 *   operator's tiles_r vertical tiles times `vvm_spread` borrowed
 *   arrays, and groups on different arrays fire concurrently
 *   (Figure 14).
 */
NodeCost computeNodeCost(const Graph &graph, NodeId node,
                         const CimArchitecture &arch,
                         std::int64_t vvm_spread = 0,
                         const DimensionBinding &binding =
                             DimensionBinding::bitsToColumns());

/** Cost facts for every node, in topo order. */
std::vector<NodeCost>
computeGraphCosts(const Graph &graph, const CimArchitecture &arch,
                  const DimensionBinding &binding =
                      DimensionBinding::bitsToColumns());

/** One pipeline stage after duplication decisions. */
struct StageCost {
    NodeId node = kInvalidNode;
    double stage_latency = 0.0; //!< base_latency / duplication (or ALU)
    double fill_fraction = 0.0;
    //! streaming floor: cycles the shared bandwidth needs for this
    //! stage's operand traffic — duplication cannot go below it
    double floor = 0.0;
};

/** Per-stage streaming floor (windows x fresh input bits / chip BW). */
double stageFloorCycles(const NodeCost &cost,
                        const CimArchitecture &arch);

/** Latency of a segment executed as a pipeline / serially. */
struct SegmentLatency {
    double pipelined = 0.0;
    double serial = 0.0;
    double bottleneck = 0.0;
};

/** Latency of a segment from its per-stage latencies after
 * duplication. */
SegmentLatency segmentLatency(const std::vector<StageCost> &stages);

/** Shared chip bandwidth in bits/cycle; 0 = ideal. */
double chipBandwidthLimit(const CimArchitecture &arch);

/**
 * Cycles to (re)program one segment's weights. Crossbars program in
 * parallel; rows within a crossbar are serial at the device write
 * latency (which is why ReRAM reloads hurt, Section 2.1).
 */
double reloadCycles(const CimArchitecture &arch,
                    std::int64_t max_rows_any_crossbar);

/**
 * Cycles to (re)program the weights of one segment whose members are
 * @p members. Cores program in parallel, but a core's write drivers
 * are shared across its crossbars, so a core holding k crossbars of
 * one replica programs them serially: the segment's reload is the
 * bottleneck core's crossbar count times reloadCycles(). Duplication
 * does not change the bound — replicas live on their own cores with
 * the same crossbars-per-core ratio. This per-core serialization is
 * what makes dual-mode residency a real trade: pinning a
 * many-crossbars-per-core segment removes volume, not just a flat
 * per-segment constant.
 */
double segmentReloadCycles(const CimArchitecture &arch,
                           const std::vector<const NodeCost *> &members);

/**
 * Effective per-window cycle count including a bandwidth bound: when the
 * chip NoC / L0 bandwidth cannot feed a window's operands within the
 * compute time, the transfer time dominates the stage.
 */
double bandwidthBoundCyclesPerWindow(const NodeCost &cost,
                                     const CimArchitecture &arch);

} // namespace cimmlc

#endif // CIMMLC_SCHED_COST_MODEL_H
