/**
 * @file
 * Discrete-event performance simulator: replays a meta-operator flow
 * against per-resource ready queues with occupancy-based contention,
 * in the style of computational-memory pipeline simulators.
 *
 * Where the trace walk (tests/trace_engine.h) starts every arm of
 * a `parallel { }` block at the same cycle regardless of what the arms
 * touch, this engine serializes ops that contend for the same physical
 * resource — a crossbar, a core, an L0/L1 buffer port, a NoC link, or
 * a tier ALU — and attributes the induced wait as stall cycles. On
 * contention-free single-core flows the two engines agree exactly; the
 * event engine is never faster than the trace.
 *
 * Determinism contract: simulation is single-threaded per program; the
 * global event queue is totally ordered by (time, resource, seq) with a
 * monotonic sequence counter, and per-resource waiter queues are
 * ordered by (ready_time, seq). Two runs over the same program and
 * architecture produce bit-identical reports.
 */
#ifndef CIMMLC_PERFSIM_EVENT_EVENT_ENGINE_H
#define CIMMLC_PERFSIM_EVENT_EVENT_ENGINE_H

#include <cstdint>
#include <vector>

#include "arch/arch.h"
#include "common/status.h"
#include "mop/program.h"
#include "perfsim/perf_model.h"

namespace cimmlc {

/** Results of one discrete-event simulation of a program. */
struct EventSimReport {
    double cycles = 0.0;      //!< makespan, init + compute
    double init_cycles = 0.0; //!< weight-programming prologue alone
    std::int64_t ops = 0;     //!< ops simulated (repeat bodies once)
    std::int64_t peak_active_xbs = 0;
    EnergyBreakdown energy;
    double peak_power_mw = 0.0;
    double avg_power_mw = 0.0;
    double stall_cycles = 0.0; //!< contention wait, repeat-weighted
    std::vector<ResourceUsage> resources; //!< per-class occupancy rows
};

/** Simulates @p program on @p arch with resource contention. */
StatusOr<EventSimReport> simulateProgramEvents(const MopProgram &program,
                                               const CimArchitecture &arch);

} // namespace cimmlc

#endif // CIMMLC_PERFSIM_EVENT_EVENT_ENGINE_H
