/**
 * @file
 * Meta-operator code generation (Sections 3.3.2-3.3.4 "Meta-operator Flow
 * Generation", Figure 16).
 *
 * Lowers a Schedule to a MopProgram for the architecture's computing
 * mode:
 *  - CM : cim.writecore init + parallel cim.readcore per replica
 *  - XBM: cim.writexb init + per-window patch movs and parallel
 *         cim.readxb per weight tile
 *  - WLM: cim.writerow init (with VVM remapping applied) + parallel
 *         cim.readrow per row group
 * plus DCOM (requant, relu, pools, ...) and DMOV glue.
 *
 * Two emission styles:
 *  - unrolled: every window explicit; executable on the functional
 *    simulator bit-for-bit (used for verification on small nets);
 *  - compressed: one representative window block wrapped in repeat
 *    blocks — compact, printable, costed, but not executable (the
 *    paper's "256 similar code segments" note).
 */
#ifndef CIMMLC_SCHED_CODEGEN_H
#define CIMMLC_SCHED_CODEGEN_H

#include <cstdint>
#include <map>

#include "arch/arch.h"
#include "common/status.h"
#include "graph/graph.h"
#include "mop/program.h"
#include "sched/schedule.h"
#include "tensor/quantize.h"

namespace cimmlc {

/** Code-generation knobs. */
struct CodegenOptions {
    //! emit every window explicitly (required for functional simulation)
    bool unroll = true;
    //! abort when an unrolled flow would exceed this many ops (0 = off)
    std::int64_t max_ops = 5'000'000;
    //! per-node requantization shifts (from reference calibration)
    std::map<NodeId, RequantParams> shifts;
};

/** The generated flow plus the buffer layout the simulator needs. */
struct CodegenResult {
    MopProgram program;
    //! L0 element offset of every tensor (int32 elements)
    std::map<TensorId, std::int64_t> tensor_offsets;
    //! L0 elements used in total
    std::int64_t l0_elements = 0;
    //! L1 elements used per core
    std::int64_t l1_elements = 0;
    //! whether the flow is executable (unrolled)
    bool executable = true;
};

/**
 * Fails with RESOURCE_EXHAUSTED when the unrolled flow of @p schedule
 * would exceed options.max_ops (a no-op for compressed emission or
 * max_ops 0). generateProgram runs this check first; callers with
 * costly work before codegen run it up front to fail fast.
 */
Status checkUnrolledOpBudget(const Graph &graph,
                             const CimArchitecture &arch,
                             const Schedule &schedule,
                             const CodegenOptions &options);

/**
 * Generates the meta-operator flow for @p schedule.
 *
 * @pre graph weights are installed when options.unroll is set (write ops
 * carry real payloads).
 */
StatusOr<CodegenResult> generateProgram(const Graph &graph,
                                        const CimArchitecture &arch,
                                        const Schedule &schedule,
                                        const CodegenOptions &options = {});

} // namespace cimmlc

#endif // CIMMLC_SCHED_CODEGEN_H
