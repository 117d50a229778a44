/**
 * @file
 * Differential lock-down of the budgeted search engine against the
 * exhaustive reference paths: for every preset workload x architecture
 * pair the pruned tuner must select the same best schedule the
 * exhaustive tuner selects (while never evaluating more points), the
 * halved ArchExplorer must report a Pareto front whose every point is
 * fully evaluated and identical to the exhaustive front, full-fidelity
 * evaluations must drop by >= 40% at a half-sweep budget, and every
 * budgeted report must be byte-identical across thread counts.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/presets.h"
#include "dse/arch_explorer.h"
#include "graph/models.h"
#include "sched/autotune.h"

namespace cimmlc {
namespace {

// Small enough to tune exhaustively twice per architecture while still
// covering conv/pool/fc mixes and every ComputeMode clamp.
const std::vector<std::string> kWorkloads = {"conv_relu_toy", "lenet5",
                                             "macro_cnn"};

SearchBudget
pruningOnly()
{
    // A cap far above the 256-point lattice: pruning decides alone,
    // the budget never truncates.
    SearchBudget budget;
    budget.max_full_evals = 100000;
    return budget;
}

// ----- tuner: pruned == exhaustive on every preset pair ------------------

TEST(SearchDifferentialTest, PrunedTunerSelectsTheExhaustiveBest)
{
    for (const std::string &model : kWorkloads) {
        const Graph graph = models::byName(model);
        for (const std::string &preset : presets::availablePresets()) {
            const CimArchitecture arch =
                presets::byName(preset).value();

            AutoTuneConfig exhaustive_config;
            exhaustive_config.threads = 1;
            auto exhaustive =
                AutoTuner(exhaustive_config).tune(graph, arch);
            ASSERT_TRUE(exhaustive.isOk())
                << model << " x " << preset << ": "
                << exhaustive.status().toString();

            AutoTuneConfig pruned_config;
            pruned_config.threads = 1;
            pruned_config.budget = pruningOnly();
            auto pruned = AutoTuner(pruned_config).tune(graph, arch);
            ASSERT_TRUE(pruned.isOk())
                << model << " x " << preset << ": "
                << pruned.status().toString();

            const TuneCandidate &want = exhaustive.value().best();
            const TuneCandidate &got = pruned.value().best();
            EXPECT_EQ(got.encoding, want.encoding)
                << model << " x " << preset << ": pruned best "
                << got.options.toString() << " != exhaustive best "
                << want.options.toString();
            EXPECT_EQ(got.latency_cycles, want.latency_cycles);
            EXPECT_EQ(got.energy_pj, want.energy_pj);

            // Pruning can only ever shrink the evaluated set.
            EXPECT_LE(pruned.value().evaluated_count,
                      exhaustive.value().evaluated_count)
                << model << " x " << preset;
            EXPECT_EQ(pruned.value().evaluated_count
                          + pruned.value().pruned_count,
                      static_cast<std::int64_t>(
                          pruned.value().candidates.size()));
            // Every skipped candidate carries its provenance.
            for (const TuneCandidate &candidate :
                 pruned.value().candidates) {
                if (candidate.pruned) {
                    EXPECT_FALSE(candidate.status.isOk());
                    EXPECT_NE(candidate.status.message().find("pruned"),
                              std::string::npos);
                }
            }
        }
    }
}

TEST(SearchDifferentialTest, BudgetCapBoundsTunerEvaluations)
{
    const Graph graph = models::byName("conv_relu_toy");
    const CimArchitecture arch =
        presets::byName("jia-isscc21").value(); // CM: 32 candidates
    AutoTuneConfig config;
    config.threads = 1;
    config.budget.max_full_evals = 8;
    auto result = AutoTuner(config).tune(graph, arch);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    // The cap is a hard ceiling: one slot inside it stays reserved for
    // the always-evaluated default configuration.
    EXPECT_LE(result.value().evaluated_count, 8);
    EXPECT_TRUE(result.value().defaults().status.isOk())
        << "the default configuration must stay evaluated under any "
           "budget";
    EXPECT_TRUE(result.value().best().status.isOk());
    EXPECT_FALSE(result.value().best().pruned);
}

TEST(SearchDifferentialTest, BudgetedTunerReportIsThreadCountInvariant)
{
    const Graph graph = models::byName("lenet5");
    const CimArchitecture arch =
        presets::byName("isaac-baseline").value();
    std::vector<std::string> renders;
    for (int threads : {1, 2, 8}) {
        AutoTuneConfig config;
        config.threads = threads;
        config.budget = pruningOnly();
        auto result = AutoTuner(config).tune(graph, arch);
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        renders.push_back(result.value().table()
                          + result.value().summary());
    }
    EXPECT_EQ(renders[0], renders[1]);
    EXPECT_EQ(renders[0], renders[2]);
}

// ----- explorer: halved front == exhaustive front ------------------------

// The examples/dse_lenet5.json sweep (18 candidates) inlined so the
// test binary needs no source-tree path.
const char *kLenetSweep = R"({
    "model": "lenet5",
    "arch": "jain",
    "opt": "full",
    "objective": "latency",
    "threads": 1,
    "sweep": {
        "xb_size": [[256, 64], [128, 128], [64, 64]],
        "core_grid": {"log2": [1, 4]},
        "core_noc_bandwidth": [0, 128]
    }
})";

// A second spec over a different base/workload/axes mix.
const char *kMacroSweep = R"({
    "model": "macro_cnn",
    "arch": "jia",
    "opt": "cg",
    "objective": "edp",
    "threads": 1,
    "sweep": {
        "xb_size": [[64, 64], [128, 128]],
        "core_grid": {"log2": [1, 4]},
        "l1_bandwidth": [64, 256]
    }
})";

DseResult
explored(const std::string &spec_text, std::int64_t budget, int threads)
{
    auto spec = dseSpecFromText(spec_text);
    EXPECT_TRUE(spec.isOk()) << spec.status().toString();
    spec.value().threads = threads;
    spec.value().budget.max_full_evals = budget;
    TuneCache cache;
    auto result = ArchExplorer(spec.value()).explore(&cache);
    EXPECT_TRUE(result.isOk()) << result.status().toString();
    return std::move(result).value();
}

TEST(SearchDifferentialTest, HalvedExplorerFrontMatchesExhaustive)
{
    for (const char *spec_text : {kLenetSweep, kMacroSweep}) {
        const DseResult exhaustive = explored(spec_text, 0, 1);
        const std::int64_t half = exhaustive.full_evals / 2;
        const DseResult halved = explored(spec_text, half, 1);

        // The budgeted front is exactly the exhaustive front...
        EXPECT_EQ(halved.front, exhaustive.front);
        // ...every front point received full-fidelity evaluation...
        for (std::size_t index : halved.front) {
            EXPECT_TRUE(halved.candidates[index].full_eval);
            EXPECT_TRUE(halved.candidates[index].status.isOk());
            EXPECT_EQ(halved.candidates[index].latency_cycles,
                      exhaustive.candidates[index].latency_cycles);
            EXPECT_EQ(halved.candidates[index].energy_pj,
                      exhaustive.candidates[index].energy_pj);
        }
        // ...and full-fidelity work dropped by >= 40%.
        EXPECT_LE(halved.full_evals * 10, exhaustive.full_evals * 6)
            << "full evals " << halved.full_evals << " vs exhaustive "
            << exhaustive.full_evals;
        // Non-promoted candidates never claim the front.
        for (const DseCandidate &candidate : halved.candidates) {
            if (!candidate.full_eval)
                EXPECT_FALSE(candidate.on_front);
        }
    }
}

TEST(SearchDifferentialTest, BudgetedExplorerReportIsThreadCountInvariant)
{
    std::vector<std::string> renders;
    for (int threads : {1, 2, 8}) {
        const DseResult result = explored(kLenetSweep, 9, threads);
        renders.push_back(result.toConfig().dump(true) + result.table()
                          + result.summary());
    }
    EXPECT_EQ(renders[0], renders[1]);
    EXPECT_EQ(renders[0], renders[2]);
}

TEST(SearchDifferentialTest, ProxyCacheEntriesNeverPoisonFullRuns)
{
    // A warm cache carrying halving-rung proxy entries must leave a
    // later exhaustive run byte-identical to a cold one: the fidelity
    // in the key keeps proxy and full entries disjoint.
    auto spec = dseSpecFromText(kLenetSweep);
    ASSERT_TRUE(spec.isOk());
    spec.value().threads = 1;

    DseSpec budgeted = spec.value();
    budgeted.budget.max_full_evals = 9;
    TuneCache shared;
    auto halved = ArchExplorer(budgeted).explore(&shared);
    ASSERT_TRUE(halved.isOk());
    ASSERT_GT(shared.size(), 0u);

    auto warm = ArchExplorer(spec.value()).explore(&shared);
    ASSERT_TRUE(warm.isOk());
    TuneCache cold_cache;
    auto cold = ArchExplorer(spec.value()).explore(&cold_cache);
    ASSERT_TRUE(cold.isOk());
    EXPECT_EQ(warm.value().front, cold.value().front);
    for (std::size_t i = 0; i < cold.value().candidates.size(); ++i) {
        EXPECT_EQ(warm.value().candidates[i].latency_cycles,
                  cold.value().candidates[i].latency_cycles);
        EXPECT_EQ(warm.value().candidates[i].energy_pj,
                  cold.value().candidates[i].energy_pj);
    }
}

TEST(SearchDifferentialTest, DegenerateProxyBudgetsAreRejected)
{
    // A DSE spec whose budget's proxy equals full fidelity fails at
    // parse time...
    EXPECT_FALSE(dseSpecFromText(R"({
        "model": "lenet5", "arch": "jain",
        "budget": {"evals": 9, "proxy_opt_none": false,
                   "proxy_prefix_fraction": 0},
        "sweep": {"core_grid": {"log2": [1, 4]}}
    })").isOk());
    // ...and a budget enabled after parsing (the --search-budget CLI
    // override path) is re-checked by explore() before any rung runs.
    auto spec = dseSpecFromText(kLenetSweep);
    ASSERT_TRUE(spec.isOk());
    spec.value().budget.max_full_evals = 9;
    spec.value().budget.proxy_opt_none = false;
    spec.value().budget.proxy_prefix_fraction = 0.0;
    auto result = ArchExplorer(spec.value()).explore();
    EXPECT_FALSE(result.isOk());
    EXPECT_NE(result.status().message().find("proxy stage"),
              std::string::npos);
}

TEST(SearchDifferentialTest, TunedHalvingKeepsFrontFullyEvaluated)
{
    // Halving under per-candidate tuning: the expensive stage is the
    // tuned evaluation, proxies stay untuned; the front must still be
    // a subset of the tuned (full) evaluations.
    auto spec = dseSpecFromText(R"({
        "model": "conv_relu_toy",
        "arch": "jain",
        "tune": true,
        "objective": "latency",
        "threads": 1,
        "sweep": {
            "xb_size": [[256, 64], [128, 128], [64, 64]],
            "core_grid": {"log2": [1, 2]}
        }
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    spec.value().budget.max_full_evals = 3;
    TuneCache cache;
    auto result = ArchExplorer(spec.value()).explore(&cache);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().full_evals, 3);
    ASSERT_FALSE(result.value().front.empty());
    for (std::size_t index : result.value().front) {
        EXPECT_TRUE(result.value().candidates[index].full_eval);
        EXPECT_TRUE(result.value().candidates[index].tuned);
    }
}

} // namespace
} // namespace cimmlc
