/**
 * @file
 * The trace walk, the discrete-event engine's test oracle: replays a
 * meta-operator flow with per-op timing, tracks crossbar activation
 * intervals for peak-power analysis, and accumulates energy through the
 * same accountMetaOpEnergy() as the event engine. test_perfsim and
 * test_perf_engine cross-check it against the analytic model and the
 * event engine on small networks.
 *
 * Timing semantics:
 *  - sequential statements advance the time cursor by each op's duration;
 *  - a parallel block starts all members at the same cycle and completes
 *    at the latest member (the paper's `parallel { }` label);
 *  - repeat blocks are measured once and scaled — activation peaks inside
 *    one iteration are representative of all iterations.
 */
#ifndef CIMMLC_TESTS_TRACE_ENGINE_H
#define CIMMLC_TESTS_TRACE_ENGINE_H

#include <string>

#include "arch/arch.h"
#include "common/status.h"
#include "mop/program.h"
#include "perfsim/energy.h"

namespace cimmlc {

/** Results of one traced execution. */
struct TraceReport {
    double cycles = 0.0;
    std::int64_t ops = 0;
    std::int64_t peak_active_xbs = 0;
    EnergyBreakdown energy;
    double peak_power_mw = 0.0;
    double avg_power_mw = 0.0;

    std::string toString() const;
};

/** Traces @p program on @p arch. */
StatusOr<TraceReport> traceProgram(const MopProgram &program,
                                   const CimArchitecture &arch);

} // namespace cimmlc

#endif // CIMMLC_TESTS_TRACE_ENGINE_H
