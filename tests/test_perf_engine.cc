/**
 * @file
 * Tests for the PerfEngine interface and the discrete-event simulation
 * backend: closed-form wrapper fidelity, event-vs-trace equivalence on
 * contention-free programs, the pinned event-vs-closed-form agreement
 * bands on congestion-free flows, contention regressions where the
 * event engine is strictly slower, determinism, report-schema tagging,
 * and the budgeted DSE's closed-form proxy rung below event.
 */
#include <gtest/gtest.h>

#include "arch/presets.h"
#include "arch/serialize.h"
#include "common/rng.h"
#include "compiler/batch.h"
#include "compiler/session.h"
#include "dse/arch_explorer.h"
#include "graph/models.h"
#include "perfsim/event/event_engine.h"
#include "perfsim/perf_engine.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"
#include "trace_engine.h"

namespace cimmlc {
namespace {

MetaOp
readRowOp(std::int64_t core, std::int64_t xb, std::int64_t len)
{
    MetaOp op;
    op.kind = MetaOpKind::kReadRow;
    op.core = core;
    op.xb = xb;
    op.len = len;
    op.cols = 4;
    return op;
}

/** Compiles a bundled model for an architecture and returns the flow. */
CodegenResult
compileFlow(const Graph &graph, const CimArchitecture &arch)
{
    auto schedule = scheduleGraph(graph, arch, ScheduleOptions::full());
    EXPECT_TRUE(schedule.isOk()) << schedule.status().toString();
    auto code = generateProgram(graph, arch, schedule.value(),
                                compressedCodegenOptions());
    EXPECT_TRUE(code.isOk()) << code.status().toString();
    return code.value();
}

// ----- engine vocabulary ----------------------------------------------------

TEST(PerfEngineKindTest, NamesRoundTrip)
{
    EXPECT_STREQ(perfEngineName(PerfEngineKind::kClosedForm),
                 "closed_form");
    EXPECT_STREQ(perfEngineName(PerfEngineKind::kEvent), "event");
    auto closed = parsePerfEngineKind("closed_form");
    auto event = parsePerfEngineKind(" Event ");
    ASSERT_TRUE(closed.isOk() && event.isOk());
    EXPECT_EQ(closed.value(), PerfEngineKind::kClosedForm);
    EXPECT_EQ(event.value(), PerfEngineKind::kEvent);
    EXPECT_FALSE(parsePerfEngineKind("analytic").isOk());
    EXPECT_FALSE(parsePerfEngineKind("").isOk());
}

TEST(PerfEngineInterfaceTest, ClosedFormMatchesEvaluateSchedule)
{
    const Graph g = models::lenet5();
    const CimArchitecture arch = presets::isaacBaseline();
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    ASSERT_TRUE(schedule.isOk());
    auto direct = evaluateSchedule(g, arch, schedule.value());
    ASSERT_TRUE(direct.isOk());

    const auto engine = makePerfEngine(PerfEngineKind::kClosedForm);
    EXPECT_EQ(engine->kind(), PerfEngineKind::kClosedForm);
    PerfInput input;
    input.graph = &g;
    input.arch = &arch;
    input.schedule = &schedule.value();
    auto wrapped = engine->evaluate(input);
    ASSERT_TRUE(wrapped.isOk());
    EXPECT_EQ(wrapped.value().engine, PerfEngineKind::kClosedForm);
    EXPECT_DOUBLE_EQ(wrapped.value().latency_cycles,
                     direct.value().latency_cycles);
    EXPECT_DOUBLE_EQ(wrapped.value().energy.total(),
                     direct.value().energy.total());
    EXPECT_EQ(wrapped.value().crossbars_mapped,
              direct.value().crossbars_mapped);
    EXPECT_TRUE(wrapped.value().resources.empty());
}

TEST(PerfEngineInterfaceTest, MissingInputsAreInvalidArgument)
{
    PerfInput empty;
    EXPECT_FALSE(makePerfEngine(PerfEngineKind::kClosedForm)
                     ->evaluate(empty)
                     .isOk());
    EXPECT_FALSE(
        makePerfEngine(PerfEngineKind::kEvent)->evaluate(empty).isOk());
}

// ----- event engine vs trace engine -----------------------------------------

TEST(EventEngineTest, SequentialOpsMatchTraceExactly)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MopProgram program("p", "WLM");
    program.emit(readRowOp(0, 0, 8));
    program.emit(readRowOp(0, 0, 8));
    program.emit(readRowOp(0, 1, 4));

    auto trace = traceProgram(program, arch);
    auto event = simulateProgramEvents(program, arch);
    ASSERT_TRUE(trace.isOk() && event.isOk());
    EXPECT_DOUBLE_EQ(event.value().cycles, trace.value().cycles);
    // kReadRow duration is DAC-phase bound on isaac: 8 cycles each.
    EXPECT_DOUBLE_EQ(event.value().cycles, 24.0);
    EXPECT_DOUBLE_EQ(event.value().stall_cycles, 0.0);
    EXPECT_EQ(event.value().ops, trace.value().ops);
    EXPECT_DOUBLE_EQ(event.value().energy.total(),
                     trace.value().energy.total());
}

TEST(EventEngineTest, DisjointParallelArmsMatchTrace)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MopProgram program("p", "WLM");
    program.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeOp(readRowOp(0, 0, 8)),
         Stmt::makeOp(readRowOp(0, 1, 8)),
         Stmt::makeOp(readRowOp(1, 0, 4))}));

    auto trace = traceProgram(program, arch);
    auto event = simulateProgramEvents(program, arch);
    ASSERT_TRUE(trace.isOk() && event.isOk());
    // No two arms share a crossbar: the event engine degenerates to the
    // trace's start-together/max-member semantics.
    EXPECT_DOUBLE_EQ(event.value().cycles, trace.value().cycles);
    EXPECT_DOUBLE_EQ(event.value().cycles, 8.0);
    EXPECT_DOUBLE_EQ(event.value().stall_cycles, 0.0);
    EXPECT_EQ(event.value().peak_active_xbs,
              trace.value().peak_active_xbs);
}

TEST(EventEngineTest, SharedCrossbarSerializesParallelArms)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MopProgram program("p", "WLM");
    // Both arms activate rows of crossbar (0, 0): physically one array,
    // so the second activation must wait for the first.
    program.computeBuilder().append(
        Stmt::makeParallel({Stmt::makeOp(readRowOp(0, 0, 8)),
                            Stmt::makeOp(readRowOp(0, 0, 8))}));

    auto trace = traceProgram(program, arch);
    auto event = simulateProgramEvents(program, arch);
    ASSERT_TRUE(trace.isOk() && event.isOk());
    EXPECT_DOUBLE_EQ(trace.value().cycles, 8.0);
    EXPECT_DOUBLE_EQ(event.value().cycles, 16.0);
    EXPECT_DOUBLE_EQ(event.value().stall_cycles, 8.0);
    // Contention changes time, never the work: energy is identical.
    EXPECT_DOUBLE_EQ(event.value().energy.total(),
                     trace.value().energy.total());

    ASSERT_EQ(event.value().resources.size(), 1u);
    const ResourceUsage &xbar = event.value().resources.front();
    EXPECT_EQ(xbar.name, "xbar");
    EXPECT_EQ(xbar.instances, 1);
    EXPECT_EQ(xbar.ops, 2);
    EXPECT_DOUBLE_EQ(xbar.busy_cycles, 16.0);
    EXPECT_DOUBLE_EQ(xbar.stall_cycles, 8.0);
    EXPECT_DOUBLE_EQ(xbar.utilization, 1.0);
}

TEST(EventEngineTest, RepeatExtrapolatesPeriodAndStall)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MopProgram plain("p", "WLM");
    plain.computeBuilder().append(
        Stmt::makeRepeat(10, {Stmt::makeOp(readRowOp(0, 0, 8))}));
    auto trace = traceProgram(plain, arch);
    auto event = simulateProgramEvents(plain, arch);
    ASSERT_TRUE(trace.isOk() && event.isOk());
    EXPECT_DOUBLE_EQ(event.value().cycles, trace.value().cycles);
    EXPECT_DOUBLE_EQ(event.value().cycles, 80.0);
    EXPECT_NEAR(event.value().energy.total(),
                trace.value().energy.total(), 1e-9);

    // Contention inside the repeated body: each iteration serializes
    // its two arms (period 16, stall 8), and the extrapolation carries
    // the repeat weight into the stall statistics.
    MopProgram contended("p", "WLM");
    contended.computeBuilder().append(Stmt::makeRepeat(
        3, {Stmt::makeParallel({Stmt::makeOp(readRowOp(0, 0, 8)),
                                Stmt::makeOp(readRowOp(0, 0, 8))})}));
    auto rep = simulateProgramEvents(contended, arch);
    ASSERT_TRUE(rep.isOk());
    EXPECT_DOUBLE_EQ(rep.value().cycles, 48.0);
    EXPECT_DOUBLE_EQ(rep.value().stall_cycles, 24.0);
}

TEST(EventEngineTest, NeverFasterThanTraceOnCompiledFlows)
{
    const std::vector<std::string> model_names = {"mlp", "lenet5",
                                                  "conv_relu_toy"};
    const std::vector<std::string> arch_names = {"isaac", "jia", "puma",
                                                 "jain", "tutorial"};
    for (const std::string &model_name : model_names) {
        for (const std::string &arch_name : arch_names) {
            auto graph = models::byNameChecked(model_name);
            auto arch = presets::byName(arch_name);
            ASSERT_TRUE(graph.isOk() && arch.isOk());
            const CodegenResult code =
                compileFlow(graph.value(), arch.value());
            auto trace = traceProgram(code.program, arch.value());
            auto event =
                simulateProgramEvents(code.program, arch.value());
            ASSERT_TRUE(trace.isOk() && event.isOk())
                << model_name << " x " << arch_name;
            // Contention can only delay ops, never accelerate them.
            EXPECT_GE(event.value().cycles,
                      trace.value().cycles - 1e-6)
                << model_name << " x " << arch_name;
            EXPECT_GE(event.value().stall_cycles, 0.0);
            // Same flow, same energy accounting, different timing.
            EXPECT_NEAR(event.value().energy.total(),
                        trace.value().energy.total(),
                        trace.value().energy.total() * 1e-9)
                << model_name << " x " << arch_name;
            EXPECT_EQ(event.value().ops, trace.value().ops)
                << model_name << " x " << arch_name;
        }
    }
}

// ----- agreement with the closed-form model ---------------------------------

/**
 * The validation contract from the two-engine design: on congestion-free
 * flows (no stall anywhere) the event engine's compute-phase latency
 * must be at least the closed-form estimate (the analytic model assumes
 * perfect overlap) and within a pinned band of it. The jia-isscc21
 * preset compiles these models congestion-free, with compute-phase
 * ratios between 1.004x and 1.93x (pinned 2025-08 on the bundled
 * models; weight-programming time is excluded — the closed-form model
 * prices it separately as reload cycles).
 */
TEST(EngineAgreementTest, CongestionFreeFlowsWithinPinnedBand)
{
    const std::vector<std::string> model_names = {
        "mlp", "lenet5", "conv_relu_toy", "macro_cnn"};
    auto arch = presets::byName("jia");
    ASSERT_TRUE(arch.isOk());
    for (const std::string &model_name : model_names) {
        auto graph = models::byNameChecked(model_name);
        ASSERT_TRUE(graph.isOk());
        auto schedule = scheduleGraph(graph.value(), arch.value(),
                                      ScheduleOptions::full());
        ASSERT_TRUE(schedule.isOk());
        auto closed = evaluateSchedule(graph.value(), arch.value(),
                                       schedule.value());
        auto code = generateProgram(graph.value(), arch.value(),
                                    schedule.value(),
                                    compressedCodegenOptions());
        ASSERT_TRUE(closed.isOk() && code.isOk());
        auto event =
            simulateProgramEvents(code.value().program, arch.value());
        ASSERT_TRUE(event.isOk());

        EXPECT_DOUBLE_EQ(event.value().stall_cycles, 0.0)
            << model_name << ": expected a congestion-free flow";
        const double compute =
            event.value().cycles - event.value().init_cycles;
        const double ratio =
            compute / closed.value().latency_cycles;
        // Never below: the event engine replays real movs and partial
        // sums the analytic model overlaps perfectly.
        EXPECT_GE(ratio, 1.0 - 1e-9) << model_name;
        EXPECT_LE(ratio, 2.5) << model_name;
    }
}

TEST(EngineAgreementTest, ContentionMakesEventStrictlySlower)
{
    // mlp on jain-jssc21 shares L1 ports across parallel duplication
    // arms: the event engine must report real stall and a strictly
    // larger makespan than the contention-blind trace.
    auto graph = models::byNameChecked("mlp");
    auto arch = presets::byName("jain");
    ASSERT_TRUE(graph.isOk() && arch.isOk());
    const CodegenResult code = compileFlow(graph.value(), arch.value());
    auto trace = traceProgram(code.program, arch.value());
    auto event = simulateProgramEvents(code.program, arch.value());
    ASSERT_TRUE(trace.isOk() && event.isOk());
    EXPECT_GT(event.value().stall_cycles, 0.0);
    EXPECT_GT(event.value().cycles, trace.value().cycles);

    // The stall is attributed to concrete resource classes.
    double resource_stall = 0.0;
    for (const ResourceUsage &row : event.value().resources)
        resource_stall += row.stall_cycles;
    EXPECT_NEAR(resource_stall, event.value().stall_cycles,
                1e-6 * std::max(1.0, event.value().stall_cycles));
}

TEST(EngineAgreementTest, SingleCoreVariantStaysCongestionFree)
{
    // Force a single-core tutorial chip via the DSE mutation helper:
    // everything serializes through one core's resources, which the
    // event engine must price without inventing contention (a single
    // fiber chain never overlaps with itself).
    auto arch = presets::byName("tutorial");
    ASSERT_TRUE(arch.isOk());
    ArchParamValue one_core;
    one_core.rows = 1;
    one_core.cols = 1;
    ASSERT_TRUE(applyArchParam(&arch.value(), ArchParam::kCoreGrid,
                               one_core)
                    .isOk());
    ASSERT_TRUE(arch.value().validate().isOk());

    const Graph graph = models::convReluToy();
    const CodegenResult code = compileFlow(graph, arch.value());
    auto trace = traceProgram(code.program, arch.value());
    auto event = simulateProgramEvents(code.program, arch.value());
    ASSERT_TRUE(trace.isOk() && event.isOk());
    EXPECT_DOUBLE_EQ(event.value().stall_cycles, 0.0);
    EXPECT_DOUBLE_EQ(event.value().cycles, trace.value().cycles);
}

// ----- determinism ----------------------------------------------------------

TEST(EventEngineTest, RepeatedSimulationIsBitIdentical)
{
    auto graph = models::byNameChecked("lenet5");
    auto arch = presets::byName("jain");
    ASSERT_TRUE(graph.isOk() && arch.isOk());
    const CodegenResult code = compileFlow(graph.value(), arch.value());
    auto first = simulateProgramEvents(code.program, arch.value());
    auto second = simulateProgramEvents(code.program, arch.value());
    ASSERT_TRUE(first.isOk() && second.isOk());
    EXPECT_EQ(first.value().cycles, second.value().cycles);
    EXPECT_EQ(first.value().stall_cycles, second.value().stall_cycles);
    EXPECT_EQ(first.value().energy.total(),
              second.value().energy.total());
    ASSERT_EQ(first.value().resources.size(),
              second.value().resources.size());
    for (std::size_t i = 0; i < first.value().resources.size(); ++i) {
        const ResourceUsage &a = first.value().resources[i];
        const ResourceUsage &b = second.value().resources[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.ops, b.ops);
        EXPECT_EQ(a.busy_cycles, b.busy_cycles);
        EXPECT_EQ(a.stall_cycles, b.stall_cycles);
        EXPECT_EQ(a.utilization, b.utilization);
    }
}

TEST(EventEngineTest, BatchTableByteIdenticalAcrossThreadCounts)
{
    std::vector<BatchJob> jobs;
    for (const char *model : {"mlp", "lenet5", "conv_relu_toy"})
        for (const char *arch : {"jia", "jain", "tutorial"})
            jobs.push_back({model, arch});

    BatchSweep sweep;
    sweep.jobs = jobs;
    sweep.threads = 1;
    sweep.knobs.perf_engine = "event";
    std::string serial_table;
    {
        auto result = runSweep(sweep);
        ASSERT_TRUE(result.isOk());
        serial_table = result.value().table();
    }
    for (int threads : {2, 8}) {
        sweep.threads = threads;
        auto result = runSweep(sweep);
        ASSERT_TRUE(result.isOk());
        EXPECT_EQ(result.value().table(), serial_table)
            << "threads=" << threads;
    }
}

// ----- session integration --------------------------------------------------

TEST(SessionPerfEngineTest, EventEngineAutoEnablesCodegen)
{
    CompileRequest request;
    request.model = "lenet5";
    request.arch = "jain";
    request.perf_engine = PerfEngineKind::kEvent;
    request.outputs.flow = false; // DSE-style caller: no flow artifact
    request.stop_after = CompileStage::kPerf;
    CompilerSession session(std::move(request));
    auto artifacts = session.run();
    ASSERT_TRUE(artifacts.isOk()) << artifacts.status().toString();
    ASSERT_TRUE(artifacts.value().perf.has_value());
    EXPECT_EQ(artifacts.value().perf->engine, PerfEngineKind::kEvent);
    EXPECT_FALSE(artifacts.value().perf->resources.empty());
    EXPECT_GT(artifacts.value().perf->latency_cycles, 0.0);
}

TEST(SessionPerfEngineTest, ReportSchemaTagsEngineAndResources)
{
    auto run = [](PerfEngineKind engine) {
        CompileRequest request;
        request.model = "mlp";
        request.arch = "jain";
        request.perf_engine = engine;
        request.stop_after = CompileStage::kPerf;
        CompilerSession session(std::move(request));
        auto artifacts = session.run();
        EXPECT_TRUE(artifacts.isOk());
        return artifacts.value().toConfig();
    };

    const ConfigValue event_doc = run(PerfEngineKind::kEvent);
    const ConfigValue closed_doc = run(PerfEngineKind::kClosedForm);
    ASSERT_TRUE(event_doc.has("perf") && closed_doc.has("perf"));
    const ConfigValue event_perf = event_doc.get("perf").value();
    const ConfigValue closed_perf = closed_doc.get("perf").value();

    EXPECT_EQ(event_perf.getStringOr("engine", ""), "event");
    EXPECT_EQ(closed_perf.getStringOr("engine", ""), "closed_form");
    ASSERT_TRUE(event_perf.has("resources"));
    EXPECT_TRUE(event_perf.has("stall_cycles"));
    EXPECT_FALSE(closed_perf.has("resources"));

    const ConfigValue resources = event_perf.get("resources").value();
    ASSERT_TRUE(resources.isArray());
    ASSERT_FALSE(resources.asArray().empty());
    for (const ConfigValue &row : resources.asArray()) {
        EXPECT_TRUE(row.has("name"));
        EXPECT_TRUE(row.has("instances"));
        EXPECT_TRUE(row.has("ops"));
        EXPECT_TRUE(row.has("busy_cycles"));
        EXPECT_TRUE(row.has("stall_cycles"));
        EXPECT_TRUE(row.has("utilization"));
    }
}

// ----- budgeted DSE: closed-form proxy rung below event ---------------------

TEST(DsePerfEngineTest, SpecParsesEngineAndRejectsUnknown)
{
    auto spec = dseSpecFromText(
        "{\"model\": \"lenet5\", \"arch\": \"jain\", "
        "\"perf_engine\": \"event\", "
        "\"sweep\": {\"xb_size\": [[256, 64], [128, 128]]}}");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    EXPECT_EQ(spec.value().knobs.perf_engine, "event");

    auto bad = dseSpecFromText(
        "{\"model\": \"lenet5\", \"arch\": \"jain\", "
        "\"perf_engine\": \"bogus\", "
        "\"sweep\": {\"xb_size\": [[256, 64]]}}");
    EXPECT_FALSE(bad.isOk());
}

TEST(DsePerfEngineTest, HalvingUsesClosedFormProxyBelowEvent)
{
    auto spec = dseSpecFromText(
        "{\"model\": \"lenet5\", \"arch\": \"jain\", "
        "\"perf_engine\": \"event\", \"threads\": 1, "
        "\"budget\": 3, "
        "\"sweep\": {\"xb_size\": [[256, 64], [128, 128], [64, 64]], "
        "\"core_grid\": [[2, 2], [4, 4]]}}");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    ArchExplorer explorer(spec.value());
    auto result = explorer.explore(nullptr);
    ASSERT_TRUE(result.isOk()) << result.status().toString();

    EXPECT_EQ(result.value().perf_engine, PerfEngineKind::kEvent);
    EXPECT_EQ(result.value().full_evals, 3);
    EXPECT_GT(result.value().proxy_evals, 0);
    // The closed-form proxy rung prices candidates more optimistically
    // than the event engine's full evaluation: every promoted candidate
    // carries both metrics, and full (event) latency >= proxy latency.
    for (const DseCandidate &candidate : result.value().candidates) {
        if (!candidate.full_eval || !candidate.status.isOk())
            continue;
        EXPECT_TRUE(candidate.on_front || candidate.latency_cycles > 0);
        if (candidate.proxied)
            EXPECT_GE(candidate.latency_cycles,
                      candidate.proxy_latency_cycles);
    }
    const ConfigValue doc = result.value().toConfig();
    EXPECT_EQ(doc.getStringOr("perf_engine", ""), "event");
}

TEST(DsePerfEngineTest, SharedCacheKeepsEnginesApart)
{
    // One cache across an event sweep and a closed-form sweep of the
    // same space: the perf engine in the key must keep the two result
    // sets from aliasing each other.
    const std::string sweep =
        "\"sweep\": {\"xb_size\": [[256, 64], [128, 128]]}";
    auto event_spec = dseSpecFromText(
        "{\"model\": \"mlp\", \"arch\": \"jain\", \"threads\": 1, "
        "\"perf_engine\": \"event\", "
        + sweep + "}");
    auto closed_spec = dseSpecFromText(
        "{\"model\": \"mlp\", \"arch\": \"jain\", \"threads\": 1, "
        + sweep + "}");
    ASSERT_TRUE(event_spec.isOk() && closed_spec.isOk());

    TuneCache cache;
    auto event_result = ArchExplorer(event_spec.value()).explore(&cache);
    auto shared_closed =
        ArchExplorer(closed_spec.value()).explore(&cache);
    auto fresh_closed =
        ArchExplorer(closed_spec.value()).explore(nullptr);
    ASSERT_TRUE(event_result.isOk() && shared_closed.isOk()
                && fresh_closed.isOk());

    ASSERT_EQ(shared_closed.value().candidates.size(),
              fresh_closed.value().candidates.size());
    for (std::size_t i = 0;
         i < shared_closed.value().candidates.size(); ++i) {
        const DseCandidate &shared = shared_closed.value().candidates[i];
        const DseCandidate &fresh = fresh_closed.value().candidates[i];
        const DseCandidate &event = event_result.value().candidates[i];
        EXPECT_EQ(shared.latency_cycles, fresh.latency_cycles);
        // The event engine prices the same candidate strictly higher
        // here (real data movement), so aliasing would be visible.
        if (shared.status.isOk() && event.status.isOk())
            EXPECT_NE(shared.latency_cycles, event.latency_cycles);
    }
}

} // namespace
} // namespace cimmlc
