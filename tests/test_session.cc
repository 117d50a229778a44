/**
 * @file
 * Tests for the staged compilation-session API: CompileRequest
 * validation, stage planning (stop_after, requested outputs), the
 * observer hook, artifact completeness, and the kvjson report
 * round-trip.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "arch/presets.h"
#include "common/config.h"
#include "common/logging.h"
#include "common/version.h"
#include "compiler/session.h"
#include "graph/models.h"

#ifndef CIMMLC_SOURCE_DIR
#error "CIMMLC_SOURCE_DIR must name the repository root"
#endif

namespace cimmlc {
namespace {

CompileRequest
borrowedRequest(const Graph &graph, const CimArchitecture &arch)
{
    CompileRequest request;
    request.graph = &graph;
    request.arch_ref = &arch;
    request.threads = 1;
    return request;
}

// ----- CompileRequest validation -----------------------------------------

TEST(CompileRequestTest, RejectsMissingWorkloadSource)
{
    CompileRequest request;
    const Status status = request.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("no workload source"),
              std::string::npos);
}

TEST(CompileRequestTest, RejectsConflictingWorkloadSources)
{
    CompileRequest request;
    request.model = "lenet5";
    request.model_file = "net.json";
    const Status status = request.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("conflicting workload sources"),
              std::string::npos);
    // The message names the offenders.
    EXPECT_NE(status.message().find("model_file"), std::string::npos);
}

TEST(CompileRequestTest, RejectsBorrowedGraphPlusNamedModel)
{
    const Graph graph = models::convReluToy();
    CompileRequest request;
    request.graph = &graph;
    request.model = "lenet5";
    EXPECT_FALSE(request.validate().isOk());
}

TEST(CompileRequestTest, RejectsConflictingArchSources)
{
    CompileRequest request;
    request.model = "lenet5";
    request.arch = "isaac-baseline";
    request.arch_file = "chip.json";
    const Status status = request.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("conflicting architecture sources"),
              std::string::npos);
}

TEST(CompileRequestTest, RejectsUnknownOptLevel)
{
    CompileRequest request;
    request.model = "lenet5";
    request.opt = "turbo";
    EXPECT_FALSE(request.validate().isOk());
    // An explicit ScheduleOptions makes the opt name irrelevant.
    request.options = ScheduleOptions::full();
    EXPECT_TRUE(request.validate().isOk());
}

TEST(CompileRequestTest, RejectsNegativeThreadsAndFlowLimit)
{
    CompileRequest request;
    request.model = "lenet5";
    request.threads = -1;
    EXPECT_FALSE(request.validate().isOk());
    request.threads = 0;
    request.outputs.flow_limit = -5;
    EXPECT_FALSE(request.validate().isOk());
}

TEST(CompileRequestTest, RejectsThreadsAboveTheCeiling)
{
    // Only validated: no tune stage starts a pool here.
    CompileRequest request;
    request.model = "lenet5";
    request.threads = 1025;
    const Status status = request.validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("threads must be in [0, 1024]"),
              std::string::npos)
        << status.toString();
    request.threads = 1024;
    EXPECT_TRUE(request.validate().isOk());
}

TEST(CompileRequestTest, DefaultRequestWithModelIsValid)
{
    CompileRequest request;
    request.model = "lenet5";
    EXPECT_TRUE(request.validate().isOk());
}

// ----- stage planning ------------------------------------------------------

TEST(CompilerSessionTest, RunProducesAllArtifactsAndStageTraces)
{
    const Graph graph = models::convReluToy();
    const CimArchitecture arch = presets::isaacBaseline();
    CompilerSession session(borrowedRequest(graph, arch));
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const CompileArtifacts &artifacts = result.value();

    EXPECT_EQ(artifacts.workload, graph.name());
    EXPECT_EQ(artifacts.nodes,
              static_cast<std::int64_t>(graph.nodeCount()));
    EXPECT_EQ(artifacts.weights, graph.totalWeights());
    EXPECT_EQ(artifacts.arch_name, arch.name);

    ASSERT_TRUE(artifacts.schedule.has_value());
    ASSERT_TRUE(artifacts.code.has_value());
    ASSERT_TRUE(artifacts.perf.has_value());
    EXPECT_FALSE(artifacts.verify.has_value());
    EXPECT_FALSE(artifacts.tuned);
    EXPECT_GT(artifacts.flowStatements(), 0);

    const std::vector<CompileStage> expected = {
        CompileStage::kLoad, CompileStage::kValidate,
        CompileStage::kSchedule, CompileStage::kCodegen,
        CompileStage::kPerf};
    ASSERT_EQ(artifacts.stages.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(artifacts.stages[i].stage, expected[i]);
        EXPECT_TRUE(artifacts.stages[i].status.isOk());
        EXPECT_GE(artifacts.stages[i].wall_ms, 0.0);
        EXPECT_FALSE(artifacts.stages[i].detail.empty());
    }
}

TEST(CompilerSessionTest, StopAfterScheduleSubsumesScheduleOnly)
{
    const Graph graph = models::convReluToy();
    const CimArchitecture arch = presets::isaacBaseline();
    CompileRequest request = borrowedRequest(graph, arch);
    request.stop_after = CompileStage::kSchedule;
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk());
    EXPECT_TRUE(result.value().schedule.has_value());
    EXPECT_FALSE(result.value().code.has_value());
    EXPECT_FALSE(result.value().perf.has_value());
    EXPECT_EQ(result.value().stages.back().stage,
              CompileStage::kSchedule);
}

TEST(CompilerSessionTest, FlowDisabledSkipsCodegenButKeepsPerf)
{
    const Graph graph = models::convReluToy();
    const CimArchitecture arch = presets::isaacBaseline();
    CompileRequest request = borrowedRequest(graph, arch);
    request.outputs.flow = false;
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk());
    EXPECT_FALSE(result.value().code.has_value());
    ASSERT_TRUE(result.value().perf.has_value());
    EXPECT_GT(result.value().perf->latency_cycles, 0.0);
    for (const StageTrace &trace : result.value().stages)
        EXPECT_NE(trace.stage, CompileStage::kCodegen);
}

TEST(CompilerSessionTest, RequestedReportsAreMaterialized)
{
    const Graph graph = models::convReluToy();
    const CimArchitecture arch = presets::isaacBaseline();
    CompileRequest request = borrowedRequest(graph, arch);
    request.outputs.schedule_report = true;
    request.outputs.flow_text = true;
    request.outputs.flow_limit = 8;
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk());
    EXPECT_FALSE(result.value().schedule_report.empty());
    EXPECT_FALSE(result.value().flow_text.empty());
}

TEST(CompilerSessionTest, ObserverSeesStagesInOrder)
{
    const Graph graph = models::convReluToy();
    const CimArchitecture arch = presets::isaacBaseline();
    CompilerSession session(borrowedRequest(graph, arch));
    std::vector<CompileStage> seen;
    session.setObserver(
        [&seen](const StageTrace &trace, const CompileArtifacts &) {
            seen.push_back(trace.stage);
        });
    auto result = session.run();
    ASSERT_TRUE(result.isOk());
    ASSERT_EQ(seen.size(), result.value().stages.size());
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], result.value().stages[i].stage);
}

// ----- workload / architecture resolution ---------------------------------

TEST(CompilerSessionTest, LoadsModelAndArchByPresetName)
{
    CompileRequest request;
    request.model = "conv_relu_toy";
    request.arch = "tutorial";
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().workload, "conv_relu_toy");
}

TEST(CompilerSessionTest, UnknownModelFailsAtLoadWithNotFound)
{
    CompileRequest request;
    request.model = "resnet9000";
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
    EXPECT_NE(result.status().message().find("load"), std::string::npos);
}

TEST(CompilerSessionTest, InlineModelTextLoads)
{
    CompileRequest request;
    request.model_text = R"({
        "name": "inline_toy",
        "inputs": [{"name": "x", "dims": [1, 16]}],
        "nodes": [{"op": "linear", "name": "fc", "inputs": ["x"],
                   "out_features": 4}],
        "outputs": ["fc"]
    })";
    request.arch = "tutorial";
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().workload, "inline_toy");
}

TEST(CompilerSessionTest, EmptyArchDefaultsToIsaacBaseline)
{
    CompileRequest request;
    request.model = "conv_relu_toy";
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value().arch_name, "isaac-baseline");
}

// ----- tuning / verification stages ---------------------------------------

TEST(CompilerSessionTest, TuneStageSelectsTunedOptions)
{
    const Graph graph = models::convReluToy();
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    CompileRequest request = borrowedRequest(graph, arch);
    request.tune = true;
    request.objective = TuneObjective::kEdp;
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_TRUE(result.value().tuned);
    ASSERT_TRUE(result.value().tune.has_value());
    EXPECT_EQ(result.value().tune->objective, TuneObjective::kEdp);
    EXPECT_EQ(result.value().options.toString(),
              result.value().tune->best().options.toString());
}

TEST(CompilerSessionTest, TunedCompileWarnsOnceAboutItsArch)
{
    // arch_dual_win switched to WLM keeps parallel_row == crossbar rows,
    // which deserves one warning. CimArchitecture::validate() runs on
    // load, in the validate stage and in every CG plan the tuner builds,
    // so the warning must come from the validate stage alone.
    std::ifstream in(std::string(CIMMLC_SOURCE_DIR)
                     + "/examples/arch_dual_win.json");
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t mode = text.find("\"XBM\"");
    ASSERT_NE(mode, std::string::npos);
    text.replace(mode, 5, "\"WLM\"");

    const Graph graph = models::lenet5();
    CompileRequest request;
    request.graph = &graph;
    request.arch_text = text;
    request.threads = 2;
    request.tune = true;
    const long warnings_before = Logger::warningCount();
    auto result = CompilerSession(std::move(request)).run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().arch_mode, "WLM");
    EXPECT_EQ(Logger::warningCount(), warnings_before + 1);
}

TEST(CompilerSessionTest, VerifyStageReportsBitExactMatch)
{
    const Graph graph = models::convReluToy();
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    CompileRequest request = borrowedRequest(graph, arch);
    request.outputs.verify = true;
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    ASSERT_TRUE(result.value().verify.has_value());
    EXPECT_TRUE(result.value().verify->match);
    EXPECT_GT(result.value().verify->elements_checked, 0);
    EXPECT_EQ(result.value().stages.back().stage, CompileStage::kVerify);
}

TEST(CompilerSessionTest, VerifyReplaysTheScheduleTheSessionPriced)
{
    // On a chip with a weak vector ALU the default host model offloads
    // lenet5's digital regions, and one with a prohibitive launch cost
    // offloads none. The verified flow must run ops on the host exactly
    // when the session's own schedule offloads.
    HostModel never;
    never.launch_overhead_cycles = 1e12;
    for (const bool offload : {true, false}) {
        CompileRequest request;
        request.model = "lenet5";
        request.arch_file =
            std::string(CIMMLC_SOURCE_DIR) + "/examples/arch_weak_alu.json";
        ScheduleOptions options = ScheduleOptions::full();
        options.host_offload = true;
        request.options = options;
        request.host_model = offload ? HostModel{} : never;
        request.threads = 1;
        request.outputs.verify = true;
        auto result = CompilerSession(std::move(request)).run();
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        const CompileArtifacts &artifacts = result.value();
        ASSERT_TRUE(artifacts.schedule.has_value());
        EXPECT_EQ(!artifacts.schedule->host_regions.empty(), offload);
        const ConfigValue report = artifacts.toConfig();
        ASSERT_TRUE(report.has("verify"));
        const ConfigValue verify = report.get("verify").value();
        EXPECT_TRUE(verify.getBoolOr("match", false));
        EXPECT_EQ(verify.getIntOr("host_ops", 0) > 0, offload)
            << report.dump(false);
    }
}

// ----- kvjson report -------------------------------------------------------

TEST(CompilerSessionTest, ReportRoundTripsThroughKvjsonReader)
{
    const Graph graph = models::lenet5();
    const CimArchitecture arch = presets::isaacBaseline();
    CompilerSession session(borrowedRequest(graph, arch));
    auto result = session.run();
    ASSERT_TRUE(result.isOk());
    const CompileArtifacts &artifacts = result.value();

    const std::string dumped = artifacts.toConfig().dump(true);
    auto parsed = parseConfig(dumped);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const ConfigValue &doc = parsed.value();

    EXPECT_EQ(doc.getStringOr("schema", ""), "cimmlc.report.v1");
    auto perf = doc.get("perf");
    ASSERT_TRUE(perf.isOk());
    // %.17g round-trips doubles exactly: the parsed latency must be
    // bit-identical to the in-memory perf report, not approximately so.
    EXPECT_EQ(perf.value().getNumberOr("latency_cycles", -1.0),
              artifacts.perf->latency_cycles);
    auto energy = perf.value().get("energy");
    ASSERT_TRUE(energy.isOk());
    EXPECT_EQ(energy.value().getNumberOr("total_pj", -1.0),
              artifacts.perf->energy.total());
    EXPECT_EQ(perf.value().getStringOr("text", ""),
              artifacts.perf->toString());

    auto stages = doc.get("stages");
    ASSERT_TRUE(stages.isOk());
    ASSERT_TRUE(stages.value().isArray());
    EXPECT_EQ(stages.value().asArray().size(), artifacts.stages.size());
    EXPECT_EQ(stages.value().asArray()[0].getStringOr("stage", ""),
              "load");

    auto flow = doc.get("flow");
    ASSERT_TRUE(flow.isOk());
    EXPECT_EQ(flow.value().getIntOr("statements", -1),
              artifacts.flowStatements());
}

TEST(CompilerSessionTest, ReportCarriesTheCompilerVersion)
{
    CompileRequest request;
    request.model = "conv_relu_toy";
    request.arch = "tutorial";
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk());
    // The version key lets a daemon client detect skew between the
    // serving binary and its own; it must match this process's.
    EXPECT_EQ(result.value().toConfig().getStringOr("compiler_version",
                                                    ""),
              cimmlcVersion());
}

TEST(CompilerSessionTest, CancelCheckAbortsAtStageBoundary)
{
    CompileRequest request;
    request.model = "conv_relu_toy";
    request.arch = "tutorial";
    CompilerSession session(std::move(request));
    int polls = 0;
    // Cancel before the third stage: load and validate run, the rest
    // never start (the daemon wires this to client disconnect).
    session.setCancelCheck([&polls] { return ++polls >= 3; });
    std::vector<CompileStage> seen;
    session.setObserver(
        [&seen](const StageTrace &trace, const CompileArtifacts &) {
            seen.push_back(trace.stage);
        });
    auto result = session.run();
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().message().find("canceled"),
              std::string::npos);
    EXPECT_EQ(seen, (std::vector<CompileStage>{CompileStage::kLoad,
                                               CompileStage::kValidate}));
}

TEST(CompilerSessionTest, UntriggeredCancelCheckDoesNotPerturb)
{
    CompileRequest request;
    request.model = "conv_relu_toy";
    request.arch = "tutorial";
    CompilerSession session(std::move(request));
    session.setCancelCheck([] { return false; });
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_TRUE(result.value().perf.has_value());
}

// ----- lint stage ----------------------------------------------------------

TEST(CompileRequestTest, LintStrictRequiresLintAndFlow)
{
    CompileRequest strict_only;
    strict_only.model = "lenet5";
    strict_only.lint_strict = true;
    EXPECT_FALSE(strict_only.validate().isOk());

    CompileRequest no_flow;
    no_flow.model = "lenet5";
    no_flow.lint = true;
    no_flow.outputs.flow = false;
    EXPECT_FALSE(no_flow.validate().isOk());
}

TEST(CompilerSessionTest, LintStageProducesArtifactsTraceAndReport)
{
    const Graph graph = models::lenet5();
    const CimArchitecture arch = presets::isaacBaseline();
    CompileRequest request = borrowedRequest(graph, arch);
    request.lint = true;
    request.lint_strict = true;
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const CompileArtifacts &artifacts = result.value();

    ASSERT_TRUE(artifacts.lint.has_value());
    EXPECT_TRUE(artifacts.lint->clean()) << artifacts.lint->table();
    EXPECT_GT(artifacts.lint->statements, 0);
    EXPECT_GT(artifacts.lint->crossbars_programmed, 0);

    // The stage trace carries the mopcheck summary line.
    bool saw_lint = false;
    for (const StageTrace &trace : artifacts.stages) {
        if (trace.stage != CompileStage::kLint)
            continue;
        saw_lint = true;
        EXPECT_TRUE(trace.status.isOk());
        EXPECT_NE(trace.detail.find("mopcheck"), std::string::npos);
    }
    EXPECT_TRUE(saw_lint);

    // report.v1 gains a "lint" section with counters + diagnostics.
    auto parsed = parseConfig(artifacts.toConfig().dump(true));
    ASSERT_TRUE(parsed.isOk());
    auto lint = parsed.value().get("lint");
    ASSERT_TRUE(lint.isOk()) << "report has no lint section";
    EXPECT_EQ(lint.value().getIntOr("errors", -1), 0);
    EXPECT_EQ(lint.value().getIntOr("warnings", -1), 0);
    EXPECT_EQ(lint.value().getIntOr("statements", -1),
              artifacts.lint->statements);
    auto diags = lint.value().get("diagnostics");
    ASSERT_TRUE(diags.isOk());
    EXPECT_TRUE(diags.value().isArray());
}

TEST(CompilerSessionTest, LintStrictFailsOnUncompilableScratchpad)
{
    const Graph graph = models::lenet5();
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kWLM);
    arch.core.l1_size_kib = 0.015625; // 4 elements: nothing fits
    CompileRequest request = borrowedRequest(graph, arch);
    request.lint = true;
    request.lint_strict = true;
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.status().message().find("mopcheck"),
              std::string::npos)
        << result.status().toString();

    // Without strict mode the same findings are reported, not fatal.
    CompileRequest advisory = borrowedRequest(graph, arch);
    advisory.lint = true;
    CompilerSession relaxed(std::move(advisory));
    auto soft = relaxed.run();
    ASSERT_TRUE(soft.isOk()) << soft.status().toString();
    ASSERT_TRUE(soft.value().lint.has_value());
    EXPECT_GT(soft.value().lint->errors(), 0);
}

} // namespace
} // namespace cimmlc
