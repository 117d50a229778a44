/**
 * @file
 * google-benchmark micro-benchmarks for the compiler itself: scheduling
 * throughput across models and levels, code generation, flow printing,
 * and the simulators. These quantify the "tractable yet effective design
 * space" claim — the full multi-level schedule of ResNet101 must stay in
 * the milliseconds.
 */
#include <benchmark/benchmark.h>

#include "arch/presets.h"
#include "baselines/poly_schedule.h"
#include "funcsim/simulator.h"
#include "graph/models.h"
#include "graph/reference.h"
#include "mop/printer.h"
#include "perfsim/trace_engine.h"
#include "sched/multi_level.h"

using namespace cimmlc;

namespace {

void
BM_ScheduleResnet(benchmark::State &state)
{
    const Graph graph = models::byName(
        state.range(0) == 0 ? "resnet18" : "resnet101");
    const CimArchitecture arch = presets::isaacBaseline();
    for (auto _ : state) {
        auto schedule =
            scheduleGraph(graph, arch, ScheduleOptions::full());
        benchmark::DoNotOptimize(schedule);
    }
}
BENCHMARK(BM_ScheduleResnet)->Arg(0)->Arg(1);

void
BM_ScheduleVit(benchmark::State &state)
{
    const Graph graph = models::vitBase();
    const CimArchitecture arch = presets::isaacBaseline();
    for (auto _ : state) {
        auto schedule =
            scheduleGraph(graph, arch, ScheduleOptions::full());
        benchmark::DoNotOptimize(schedule);
    }
}
BENCHMARK(BM_ScheduleVit);

void
BM_PolyScheduleVgg16(benchmark::State &state)
{
    const Graph graph = models::vgg16();
    const CimArchitecture arch = presets::isaacBaseline();
    for (auto _ : state) {
        auto result = polySchedule(graph, arch);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_PolyScheduleVgg16);

void
BM_CodegenCompressed(benchmark::State &state)
{
    const Graph graph = models::vgg16();
    const CimArchitecture arch = presets::isaacBaseline();
    auto schedule = scheduleGraph(graph, arch, ScheduleOptions::full());
    CodegenOptions options;
    options.unroll = false;
    for (auto _ : state) {
        auto code =
            generateProgram(graph, arch, schedule.value(), options);
        benchmark::DoNotOptimize(code);
    }
}
BENCHMARK(BM_CodegenCompressed);

void
BM_CodegenUnrolledLenet(benchmark::State &state)
{
    Graph graph = models::lenet5();
    Rng rng(3);
    graph.randomizeWeights(rng);
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto schedule = scheduleGraph(graph, arch, ScheduleOptions::full());
    for (auto _ : state) {
        auto code = generateProgram(graph, arch, schedule.value());
        benchmark::DoNotOptimize(code);
    }
}
BENCHMARK(BM_CodegenUnrolledLenet);

void
BM_FuncsimConvRelu(benchmark::State &state)
{
    Graph graph = models::convReluToy();
    Rng rng(7);
    graph.randomizeWeights(rng);
    Int8Tensor image(TensorShape({1, 3, 32, 32}));
    image.fillRandom(rng, -16, 16);
    std::map<TensorId, Int8Tensor> inputs{{graph.inputs()[0], image}};
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto reference = runReference(graph, inputs);
    auto schedule = scheduleGraph(graph, arch, ScheduleOptions::full());
    CodegenOptions options;
    options.shifts = reference.value().shifts;
    auto code = generateProgram(graph, arch, schedule.value(), options);
    for (auto _ : state) {
        FunctionalSimulator sim(arch, code.value());
        Status status =
            sim.loadInput(graph, graph.inputs()[0], image);
        status = sim.run();
        benchmark::DoNotOptimize(status);
    }
}
BENCHMARK(BM_FuncsimConvRelu);

void
BM_TraceEngineConvRelu(benchmark::State &state)
{
    Graph graph = models::convReluToy();
    Rng rng(7);
    graph.randomizeWeights(rng);
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto schedule = scheduleGraph(graph, arch, ScheduleOptions::full());
    auto code = generateProgram(graph, arch, schedule.value());
    for (auto _ : state) {
        auto report = traceProgram(code.value().program, arch);
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_TraceEngineConvRelu);

void
BM_PrintProgram(benchmark::State &state)
{
    Graph graph = models::convReluToy();
    Rng rng(7);
    graph.randomizeWeights(rng);
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    auto schedule = scheduleGraph(graph, arch, ScheduleOptions::full());
    auto code = generateProgram(graph, arch, schedule.value());
    for (auto _ : state) {
        std::string text = printProgram(code.value().program);
        benchmark::DoNotOptimize(text);
    }
}
BENCHMARK(BM_PrintProgram);

void
BM_BuildResnet101(benchmark::State &state)
{
    for (auto _ : state) {
        Graph graph = models::resnet101();
        benchmark::DoNotOptimize(graph);
    }
}
BENCHMARK(BM_BuildResnet101);

} // namespace

BENCHMARK_MAIN();
