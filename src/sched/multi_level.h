/**
 * @file
 * The multi-level scheduling driver (Figure 3): applies CG-grained
 * optimization always, MVM-grained when the architecture exposes XBM or
 * WLM, and VVM-grained when it exposes WLM, then assembles the Schedule.
 */
#ifndef CIMMLC_SCHED_MULTI_LEVEL_H
#define CIMMLC_SCHED_MULTI_LEVEL_H

#include "arch/arch.h"
#include "common/status.h"
#include "graph/graph.h"
#include "sched/cg.h"
#include "sched/options.h"
#include "sched/schedule.h"

namespace cimmlc {

/**
 * Structural preconditions of the scheduling pipeline: beyond
 * Graph::validate(), every conv2d node must carry 4-D NCHW input and
 * output tensors — the cost model indexes spatial dims directly, so a
 * malformed graph must fail here with a Status rather than read out of
 * bounds downstream.
 */
Status validateGraphForScheduling(const Graph &graph);

/**
 * Recomputes per-segment peak-active-crossbar statistics for CM-only
 * chips (the MVM pass normally refreshes these; without XBM control
 * every crossbar of a running operator is active). Exposed for tests:
 * fails with kInternal when a segment references a node that has no
 * cost or decision record instead of dereferencing a bad iterator.
 */
Status refreshCmActivationStats(CgResult &cg, bool cg_pipeline);

/**
 * Clears the options of levels @p mode does not expose: CM drops the
 * MVM and VVM knobs, XBM drops the VVM remap. scheduleGraph schedules
 * under the clamped options.
 */
ScheduleOptions clampOptionsToMode(ScheduleOptions options,
                                   ComputeMode mode);

/**
 * Everything scheduleGraph does after the CG level: the MVM level (XBM
 * and WLM) or the CM activation refresh, the VVM level (WLM), and the
 * Schedule assembly, on top of @p cg. @p options must already be
 * clamped to arch.mode. The CG level reads none of the MVM/VVM knobs,
 * so one CG plan can be shared by options that differ only in them
 * (the auto-tuner does this).
 */
StatusOr<Schedule> scheduleFromCg(const Graph &graph,
                                  const CimArchitecture &arch,
                                  const ScheduleOptions &options,
                                  const HostModel &host, CgResult cg);

/**
 * Compiles @p graph for @p arch under @p options: validation, the clamp,
 * runCgOptimization, then scheduleFromCg.
 *
 * The architecture's computing mode bounds the deepest level applied;
 * options can disable levels below that bound (for ablations) but never
 * enable levels the programming interface does not expose. @p host is
 * the host-CPU cost model used when options.host_offload is set; the
 * default model keeps the schedule identical for non-offload requests.
 */
StatusOr<Schedule> scheduleGraph(const Graph &graph,
                                 const CimArchitecture &arch,
                                 const ScheduleOptions &options =
                                     ScheduleOptions::full(),
                                 const HostModel &host = HostModel{});

} // namespace cimmlc

#endif // CIMMLC_SCHED_MULTI_LEVEL_H
