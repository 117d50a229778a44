/**
 * @file
 * End-to-end functional verification: generate the meta-operator flow
 * of a multi-level schedule, execute it on the functional simulator,
 * and compare every marked output bit-for-bit against the reference
 * executor (the paper's PyTorch check).
 */
#ifndef CIMMLC_FUNCSIM_VERIFY_H
#define CIMMLC_FUNCSIM_VERIFY_H

#include <cstdint>
#include <map>
#include <string>

#include "arch/arch.h"
#include "common/status.h"
#include "graph/graph.h"
#include "sched/options.h"
#include "sched/schedule.h"
#include "tensor/tensor.h"

namespace cimmlc {

/** Outcome of one verification run. */
struct VerifyReport {
    bool match = false;
    std::int64_t outputs_checked = 0;
    std::int64_t elements_checked = 0;
    std::int64_t mismatches = 0;
    std::string first_mismatch; //!< description of the first divergence
    std::int64_t flow_ops = 0;  //!< size of the executed flow
    std::int64_t host_ops = 0;  //!< of those, ops the host CPU runs
};

/**
 * Verifies @p schedule of @p graph on @p arch: generates its unrolled
 * flow and replays it.
 *
 * Weights must be installed; inputs map graph input tensors to values.
 * The reference run calibrates per-node requantization shifts which the
 * generated flow then reuses, so both sides compute identical integer
 * pipelines. A flow whose unrolled form is over the codegen op budget
 * fails with RESOURCE_EXHAUSTED before the reference runs.
 */
StatusOr<VerifyReport>
verifyCompiledFlow(const Graph &graph, const CimArchitecture &arch,
                   const Schedule &schedule,
                   const std::map<TensorId, Int8Tensor> &inputs);

/** Schedules @p graph under @p options (default host model) once, then
 * verifies that schedule. */
StatusOr<VerifyReport>
verifyCompiledFlow(const Graph &graph, const CimArchitecture &arch,
                   const ScheduleOptions &options,
                   const std::map<TensorId, Int8Tensor> &inputs);

/**
 * Convenience entry for the session pipeline's verify stage: copies
 * @p graph, installs seeded random weights (in [-8, 8]) and graph
 * inputs (in [-16, 16]) drawn from one SplitMix64 stream, and runs
 * verifyCompiledFlow on @p schedule. The same seed always produces the
 * same stimulus.
 */
StatusOr<VerifyReport>
verifyWithRandomStimulus(const Graph &graph, const CimArchitecture &arch,
                         const Schedule &schedule, std::uint64_t seed = 1234);

/** As above, on the schedule of @p options (default host model). */
StatusOr<VerifyReport>
verifyWithRandomStimulus(const Graph &graph, const CimArchitecture &arch,
                         const ScheduleOptions &options,
                         std::uint64_t seed = 1234);

} // namespace cimmlc

#endif // CIMMLC_FUNCSIM_VERIFY_H
