#include "funcsim/verify.h"

#include "common/rng.h"
#include "common/strutil.h"
#include "funcsim/simulator.h"
#include "graph/reference.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"

namespace cimmlc {

StatusOr<VerifyReport>
verifyCompiledFlow(const Graph &graph, const CimArchitecture &arch,
                   const ScheduleOptions &options,
                   const std::map<TensorId, Int8Tensor> &inputs)
{
    CIMMLC_ASSIGN_OR_RETURN(Schedule schedule,
                            scheduleGraph(graph, arch, options));
    return verifyCompiledFlow(graph, arch, schedule, inputs);
}

StatusOr<VerifyReport>
verifyCompiledFlow(const Graph &graph, const CimArchitecture &arch,
                   const Schedule &schedule,
                   const std::map<TensorId, Int8Tensor> &inputs)
{
    // 1. Give up before the reference run when the unrolled flow would
    // be over the op budget.
    CodegenOptions codegen_options;
    codegen_options.unroll = true;
    CIMMLC_RETURN_IF_ERROR(
        checkUnrolledOpBudget(graph, arch, schedule, codegen_options));

    // 2. Reference run with shift calibration, then codegen with the
    // calibrated shifts.
    CIMMLC_ASSIGN_OR_RETURN(ReferenceResult reference,
                            runReference(graph, inputs));
    codegen_options.shifts = reference.shifts;
    CIMMLC_ASSIGN_OR_RETURN(
        CodegenResult code,
        generateProgram(graph, arch, schedule, codegen_options));

    // 3. Execute the flow.
    FunctionalSimulator simulator(arch, code);
    for (const auto &[tensor, value] : inputs)
        CIMMLC_RETURN_IF_ERROR(simulator.loadInput(graph, tensor, value));
    CIMMLC_RETURN_IF_ERROR(simulator.run());

    // 4. Compare marked outputs.
    VerifyReport report;
    report.flow_ops = code.program.counts().total();
    code.program.forEachOp([&report](const MetaOp &op) {
        report.host_ops += op.host ? 1 : 0;
    });
    for (TensorId out : graph.outputs()) {
        CIMMLC_ASSIGN_OR_RETURN(Int8Tensor actual,
                                simulator.readTensor(graph, out));
        auto it = reference.tensors.find(out);
        if (it == reference.tensors.end())
            return internalError("reference did not compute an output");
        const Int8Tensor &expected = it->second;
        ++report.outputs_checked;
        report.elements_checked += expected.numel();
        for (std::int64_t i = 0; i < expected.numel(); ++i) {
            if (actual[i] != expected[i]) {
                ++report.mismatches;
                if (report.first_mismatch.empty()) {
                    report.first_mismatch = strformat(
                        "tensor %d ('%s') element %lld: flow=%d "
                        "reference=%d",
                        out, graph.tensor(out).name.c_str(),
                        static_cast<long long>(i),
                        static_cast<int>(actual[i]),
                        static_cast<int>(expected[i]));
                }
            }
        }
    }
    report.match = report.mismatches == 0;
    return report;
}

StatusOr<VerifyReport>
verifyWithRandomStimulus(const Graph &graph, const CimArchitecture &arch,
                         const Schedule &schedule, std::uint64_t seed)
{
    Graph stimulated = graph;
    Rng rng(seed);
    stimulated.randomizeWeights(rng);
    std::map<TensorId, Int8Tensor> inputs;
    for (TensorId in : stimulated.inputs()) {
        Int8Tensor tensor(TensorShape(stimulated.tensor(in).dims));
        tensor.fillRandom(rng, -16, 16);
        inputs.emplace(in, std::move(tensor));
    }
    return verifyCompiledFlow(stimulated, arch, schedule, inputs);
}

StatusOr<VerifyReport>
verifyWithRandomStimulus(const Graph &graph, const CimArchitecture &arch,
                         const ScheduleOptions &options,
                         std::uint64_t seed)
{
    // A schedule depends on the graph's shapes, not its weight values.
    CIMMLC_ASSIGN_OR_RETURN(Schedule schedule,
                            scheduleGraph(graph, arch, options));
    return verifyWithRandomStimulus(graph, arch, schedule, seed);
}

} // namespace cimmlc
