/**
 * @file
 * Tests for the batch compilation driver: sweep parsing, cross-product
 * validation, per-job error isolation, and — the property the parallel
 * driver stands on — byte-identical results between the serial loop and
 * the concurrent run.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/strutil.h"
#include "compiler/batch.h"

namespace cimmlc {
namespace {

std::vector<BatchJob>
smokeJobs()
{
    auto jobs = crossProductJobs(
        {"mlp", "lenet5", "conv_relu_toy", "macro_cnn"},
        {"isaac", "puma", "jia"});
    EXPECT_TRUE(jobs.isOk()) << jobs.status().toString();
    return jobs.value();
}

BatchSweep
sweepOf(std::vector<BatchJob> jobs, int threads, std::string opt = "full")
{
    BatchSweep sweep;
    sweep.jobs = std::move(jobs);
    sweep.threads = threads;
    sweep.knobs.opt = std::move(opt);
    return sweep;
}

// ----- crossProductJobs ----------------------------------------------------

TEST(BatchCompilerTest, CrossProductEnumeratesModelsTimesArchs)
{
    const std::vector<BatchJob> jobs = smokeJobs();
    ASSERT_EQ(jobs.size(), 12u);
    EXPECT_EQ(jobs[0].model, "mlp");
    EXPECT_EQ(jobs[0].arch, "isaac");
    EXPECT_EQ(jobs[11].model, "macro_cnn");
    EXPECT_EQ(jobs[11].arch, "jia");
}

TEST(BatchCompilerTest, CrossProductRejectsUnknownModel)
{
    auto jobs = crossProductJobs({"resnet9000"}, {"isaac"});
    ASSERT_FALSE(jobs.isOk());
    EXPECT_EQ(jobs.status().code(), StatusCode::kNotFound);
}

TEST(BatchCompilerTest, CrossProductRejectsUnknownArch)
{
    auto jobs = crossProductJobs({"mlp"}, {"tpu"});
    ASSERT_FALSE(jobs.isOk());
    EXPECT_EQ(jobs.status().code(), StatusCode::kNotFound);
}

TEST(BatchCompilerTest, CrossProductRejectsEmptyAxes)
{
    EXPECT_FALSE(crossProductJobs({}, {"isaac"}).isOk());
    EXPECT_FALSE(crossProductJobs({"mlp"}, {}).isOk());
}

// ----- runSweep ----------------------------------------------------------

TEST(BatchCompilerTest, EmptyJobListIsAnError)
{
    EXPECT_FALSE(runSweep(BatchSweep{}).isOk());
}

TEST(BatchCompilerTest, SerialRunCompilesEveryJob)
{
    auto result = runSweep(sweepOf(smokeJobs(), /*threads=*/1));
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value().entries.size(), 12u);
    EXPECT_EQ(result.value().okCount(), 12);
    for (const BatchEntry &entry : result.value().entries) {
        EXPECT_TRUE(entry.status.isOk()) << entry.status.toString();
        EXPECT_GT(entry.perf.latency_cycles, 0.0);
        EXPECT_GT(entry.flow_statements, 0);
        EXPECT_GT(entry.nodes, 0);
    }
}

TEST(BatchCompilerTest, ParallelRunMatchesSerialByteForByte)
{
    const std::vector<BatchJob> jobs = smokeJobs();
    auto serial_result = runSweep(sweepOf(jobs, /*threads=*/1));
    auto parallel_result = runSweep(sweepOf(jobs, /*threads=*/4));
    ASSERT_TRUE(serial_result.isOk());
    ASSERT_TRUE(parallel_result.isOk());

    // The rendered table is the user-visible artifact; identical tables
    // mean identical ordering, statuses, and every formatted metric.
    EXPECT_EQ(serial_result.value().table(),
              parallel_result.value().table());

    // Belt and braces: the raw numbers match exactly, not just their
    // 6-significant-digit formatting.
    ASSERT_EQ(serial_result.value().entries.size(),
              parallel_result.value().entries.size());
    for (std::size_t i = 0; i < serial_result.value().entries.size();
         ++i) {
        const BatchEntry &a = serial_result.value().entries[i];
        const BatchEntry &b = parallel_result.value().entries[i];
        EXPECT_EQ(a.job.model, b.job.model);
        EXPECT_EQ(a.job.arch, b.job.arch);
        EXPECT_EQ(a.perf.latency_cycles, b.perf.latency_cycles);
        EXPECT_EQ(a.perf.energy.total(), b.perf.energy.total());
        EXPECT_EQ(a.perf.avg_power_mw, b.perf.avg_power_mw);
        EXPECT_EQ(a.flow_statements, b.flow_statements);
    }
}

TEST(BatchCompilerTest, ParallelRunIsStableAcrossRepeats)
{
    const BatchSweep sweep = sweepOf(smokeJobs(), /*threads=*/4);
    auto first = runSweep(sweep);
    auto second = runSweep(sweep);
    ASSERT_TRUE(first.isOk());
    ASSERT_TRUE(second.isOk());
    EXPECT_EQ(first.value().table(), second.value().table());
}

TEST(BatchCompilerTest, PerJobFailureDoesNotPoisonTheBatch)
{
    // A bad job (unknown architecture) must fail alone while its
    // neighbours succeed. (Capacity overflow cannot fail here: the
    // scheduler falls back to weight reloading, so every model/preset
    // pair compiles.)
    const std::vector<BatchJob> jobs = {
        {"mlp", "isaac"}, {"vgg7", "npu-9000"}, {"macro_cnn", "jain"}};
    auto result = runSweep(sweepOf(jobs, /*threads=*/2));
    ASSERT_TRUE(result.isOk());
    ASSERT_EQ(result.value().entries.size(), 3u);
    EXPECT_TRUE(result.value().entries[0].status.isOk());
    EXPECT_FALSE(result.value().entries[1].status.isOk());
    EXPECT_TRUE(result.value().entries[2].status.isOk());
    EXPECT_EQ(result.value().okCount(), 2);
    // The failed row still renders (with its status) in the table.
    EXPECT_NE(result.value().table().find("vgg7"), std::string::npos);
}

TEST(BatchCompilerTest, UnknownModelInJobIsIsolated)
{
    const std::vector<BatchJob> jobs = {{"mlp", "isaac"},
                                        {"not_a_model", "isaac"}};
    auto result = runSweep(sweepOf(jobs, /*threads=*/2));
    ASSERT_TRUE(result.isOk());
    EXPECT_TRUE(result.value().entries[0].status.isOk());
    EXPECT_EQ(result.value().entries[1].status.code(),
              StatusCode::kNotFound);
}

TEST(BatchCompilerTest, OptionsChangeTheSchedule)
{
    const std::vector<BatchJob> jobs = {{"lenet5", "isaac"}};
    auto full_result = runSweep(sweepOf(jobs, 1));
    auto none_result = runSweep(sweepOf(jobs, 1, "none"));
    ASSERT_TRUE(full_result.isOk());
    ASSERT_TRUE(none_result.isOk());
    // Unoptimized latency must be strictly worse.
    EXPECT_GT(none_result.value().entries[0].perf.latency_cycles,
              full_result.value().entries[0].perf.latency_cycles);
}

// ----- sweep parsing -----------------------------------------------------

TEST(SweepParseTest, ParsesFullSweep)
{
    auto sweep = sweepFromText(R"({
        "models": ["mlp", "lenet5"],  # comments are kvjson extensions
        "archs": ["isaac"],
        "opt": "cg",
        "threads": 3
    })");
    ASSERT_TRUE(sweep.isOk()) << sweep.status().toString();
    EXPECT_EQ(sweep.value().jobs.size(), 2u);
    EXPECT_EQ(sweep.value().threads, 3);
    const ScheduleOptions options =
        sweep.value().knobs.scheduleOptions().value();
    EXPECT_FALSE(options.mvm_pipeline);
    EXPECT_TRUE(options.cg_pipeline);
}

TEST(SweepParseTest, DefaultsToFullOptAndAutoThreads)
{
    auto sweep = sweepFromText(
        R"({"models": ["mlp"], "archs": ["puma"]})");
    ASSERT_TRUE(sweep.isOk());
    EXPECT_EQ(sweep.value().threads, 0);
    EXPECT_TRUE(
        sweep.value().knobs.scheduleOptions().value().vvm_remap);
}

TEST(SweepParseTest, RejectsMissingOrEmptyAxes)
{
    EXPECT_FALSE(sweepFromText(R"({"archs": ["isaac"]})").isOk());
    EXPECT_FALSE(
        sweepFromText(R"({"models": [], "archs": ["isaac"]})").isOk());
    EXPECT_FALSE(
        sweepFromText(R"({"models": ["mlp"], "archs": [3]})").isOk());
}

TEST(SweepParseTest, RejectsBadOptAndThreads)
{
    EXPECT_FALSE(sweepFromText(
                     R"({"models": ["mlp"], "archs": ["isaac"],
                         "opt": "turbo"})")
                     .isOk());
    EXPECT_FALSE(sweepFromText(
                     R"({"models": ["mlp"], "archs": ["isaac"],
                         "threads": -2})")
                     .isOk());
}

TEST(SweepParseTest, RejectsUnknownNamesUpFront)
{
    auto sweep = sweepFromText(
        R"({"models": ["mlp", "alexnet"], "archs": ["isaac"]})");
    ASSERT_FALSE(sweep.isOk());
    EXPECT_EQ(sweep.status().code(), StatusCode::kNotFound);
}

TEST(SweepParseTest, MissingModelsKeyNamesTheKey)
{
    auto sweep = sweepFromText(R"({"archs": ["isaac"]})");
    ASSERT_FALSE(sweep.isOk());
    EXPECT_NE(sweep.status().message().find("models"),
              std::string::npos);
}

TEST(SweepParseTest, MissingArchsKeyNamesTheKey)
{
    auto sweep = sweepFromText(R"({"models": ["mlp"]})");
    ASSERT_FALSE(sweep.isOk());
    EXPECT_NE(sweep.status().message().find("archs"), std::string::npos);
}

TEST(SweepParseTest, RejectsBadObjective)
{
    auto sweep = sweepFromText(
        R"({"models": ["mlp"], "archs": ["isaac"],
            "tune": true, "objective": "throughput"})");
    ASSERT_FALSE(sweep.isOk());
    EXPECT_EQ(sweep.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(sweep.status().message().find("throughput"),
              std::string::npos);
}

TEST(SweepParseTest, RejectsNegativeThreads)
{
    auto sweep = sweepFromText(
        R"({"models": ["mlp"], "archs": ["isaac"], "threads": -1})");
    ASSERT_FALSE(sweep.isOk());
    EXPECT_EQ(sweep.status().code(), StatusCode::kInvalidArgument);
}

/** The load error of a one-model sweep with @p keys added ("" = OK). */
std::string
sweepError(const std::string &keys)
{
    auto sweep = sweepFromText(R"({"models": ["mlp"], "archs": ["isaac"], )"
                               + keys + "}");
    return sweep.isOk() ? "" : sweep.status().message();
}

TEST(SweepParseTest, MistypedKnobKeysNameTheKey)
{
    // Each of these used to load with the knob at its default.
    const struct {
        const char *key;
        const char *value;
        const char *type;
    } cases[] = {
        {"opt", "3", "a string"},          {"dual_mode", "1", "a bool"},
        {"host_offload", "\"yes\"", "a bool"}, {"tune", "1", "a bool"},
        {"tune", "\"true\"", "a bool"},     {"objective", "true", "a string"},
        {"lint", "\"yes\"", "a bool"},       {"lint_strict", "null", "a bool"},
        {"perf_engine", "[\"event\"]", "a string"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(sweepError(strformat(R"("%s": %s)", c.key, c.value)),
                  strformat("sweep key '%s' must be %s", c.key, c.type));
    }
}

TEST(SweepParseTest, ThreadsMustBeAnInt)
{
    // Above the 1,024-thread ceiling is an error too; nothing starts a
    // pool here, the sweep is only parsed.
    for (const char *value :
         {"\"2\"", "2.5", "2147483648", "true", "-1", "1025", "100000",
          "2147483647"}) {
        EXPECT_NE(sweepError(strformat(R"("threads": %s)", value))
                      .find("threads"),
                  std::string::npos)
            << value;
    }
    EXPECT_EQ(sweepError(R"("threads": 1025)"),
              "sweep 'threads' must be in [0, 1024]");
    EXPECT_EQ(sweepError(R"("threads": 1024)"), "");
    EXPECT_EQ(sweepError(R"("threads": 0)"), "");
}

TEST(SweepParseTest, UnknownKeysNameTheKey)
{
    EXPECT_EQ(sweepError(R"("lnit": true)"), "sweep has unknown key 'lnit'");
    // Knobs a sweep file does not read, and DSE keys, are unknown too.
    for (const char *key : {"model", "arch_text", "search_budget", "verify",
                            "sweep"}) {
        EXPECT_EQ(sweepError(strformat(R"("%s": 1)", key)),
                  strformat("sweep has unknown key '%s'", key));
    }
    // One document with every fault fails on the first key, in key order.
    EXPECT_EQ(sweepError(R"("tune": 1, "lint": "yes", "threads": "2",
                            "lnit": true)"),
              "sweep key 'lint' must be a bool");
}

TEST(SweepParseTest, KnobKeysFillTheKnobRecord)
{
    auto sweep = sweepFromText(R"({
        "models": ["mlp"], "archs": ["isaac"], "opt": "cg",
        "dual_mode": true, "host_offload": true, "tune": true,
        "objective": "edp", "lint_strict": true, "perf_engine": "event",
        "budget": {"evals": 5, "proxy_opt_none": true}, "threads": 2
    })");
    ASSERT_TRUE(sweep.isOk()) << sweep.status().toString();
    const RpcCompileRequest &knobs = sweep.value().knobs;
    EXPECT_EQ(knobs.opt, "cg");
    EXPECT_TRUE(knobs.dual_mode);
    EXPECT_TRUE(knobs.host_offload);
    EXPECT_TRUE(knobs.tune);
    EXPECT_EQ(knobs.objective, "edp");
    EXPECT_FALSE(knobs.lint);
    EXPECT_TRUE(knobs.lint_strict);
    EXPECT_EQ(knobs.perf_engine, "event");
    EXPECT_EQ(sweep.value().budget.max_full_evals, 5);
    EXPECT_TRUE(sweep.value().budget.proxy_opt_none);
    EXPECT_EQ(sweep.value().threads, 2);
    // A job's request comes from the record through applyKnobs, so the
    // sweep's lint_strict lints as the frame's and the flag's do.
    CompileRequest request;
    ASSERT_TRUE(knobs.applyKnobs(request).isOk());
    EXPECT_TRUE(request.lint);
    EXPECT_TRUE(request.tune);
    EXPECT_EQ(request.objective, TuneObjective::kEdp);
}

TEST(SweepParseTest, NonObjectDocumentIsAParseError)
{
    EXPECT_FALSE(sweepFromText(R"(["mlp", "isaac"])").isOk());
}

} // namespace
} // namespace cimmlc
