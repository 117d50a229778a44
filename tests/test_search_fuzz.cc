/**
 * @file
 * Fuzz-style error-path tests for the budgeted search engine's input
 * surfaces: random byte mutations (overwrites, truncations, splices)
 * of well-formed DseSpec, tune-cache, and search-budget kvjson
 * documents must parse into a Status error or a valid value — never
 * crash, hang, or leave half-loaded state behind. Deterministic
 * SplitMix64 mutations keep every failure reproducible from the case
 * number printed by the assertion.
 */
#include <gtest/gtest.h>

#include <string>

#include "arch/presets.h"
#include "common/config.h"
#include "dse/arch_explorer.h"
#include "fuzz_mutate.h"
#include "graph/models.h"
#include "search/search_budget.h"
#include "sched/autotune.h"

namespace cimmlc {
namespace {

// The examples/dse_lenet5.json sweep with every budgeted-search key
// present, so mutations hit the new surfaces too.
const char *kDseSpecSeed = R"({
    "model": "lenet5",
    "arch": "jain",
    "opt": "full",
    "objective": "latency",
    "budget": {"evals": 9, "proxy_opt_none": false,
               "proxy_prefix_fraction": 0.5},
    "sweep": {
        "xb_size": [[256, 64], [128, 128], [64, 64]],
        "core_grid": {"log2": [1, 4]},
        "core_noc_bandwidth": [0, 128]
    }
})";

const char *kBudgetSeed =
    R"({"evals": 9, "proxy_opt_none": true, "proxy_prefix_fraction": 0.25})";

TEST(SearchFuzzTest, MutatedDseSpecsErrorOrParseButNeverCrash)
{
    Rng rng(0xD5E5EEDull);
    for (int round = 0; round < 400; ++round) {
        const std::string text = mutate(kDseSpecSeed, rng);
        auto spec = dseSpecFromText(text);
        if (!spec.isOk()) {
            EXPECT_FALSE(spec.status().message().empty())
                << "case " << round << " lost its diagnostic";
            continue;
        }
        // A mutation that still parses must yield a self-consistent
        // spec: a validated budget and a non-empty sweep.
        EXPECT_TRUE(spec.value().budget.validate().isOk())
            << "case " << round;
        EXPECT_FALSE(spec.value().sweep.axes.empty()) << "case " << round;
    }
}

TEST(SearchFuzzTest, MutatedBudgetsErrorOrValidateButNeverCrash)
{
    Rng rng(0xB0D6E7ull);
    for (int round = 0; round < 400; ++round) {
        const std::string text = mutate(kBudgetSeed, rng);
        auto doc = parseConfig(text);
        if (!doc.isOk())
            continue;
        auto budget = searchBudgetFromConfig(doc.value());
        if (budget.isOk()) {
            // Whatever parses must also pass its own validation — the
            // parser never hands back an out-of-contract budget.
            EXPECT_TRUE(budget.value().validate().isOk())
                << "case " << round;
        } else {
            EXPECT_FALSE(budget.status().message().empty())
                << "case " << round;
        }
    }
}

TEST(SearchFuzzTest, MutatedTuneCachesDegradeToColdNeverHalfLoaded)
{
    // A genuine cache document, proxy entries included.
    TuneCache seed_cache;
    const Graph graph = models::byName("conv_relu_toy");
    const CimArchitecture arch = presets::byName("jain").value();
    SearchFidelity proxy;
    proxy.prefix_nodes = 2;
    proxy.forced_opt_none = true;
    const std::string digest = evaluationDigest(graph, arch);
    seed_cache.insert(evaluationKey(digest, 3),
                      TuneCache::Entry{Status::ok(), 10.0, 20.0, 200.0});
    seed_cache.insert(evaluationKey(digest, 3, proxy),
                      TuneCache::Entry{Status::ok(), 4.0, 8.0, 32.0});
    seed_cache.insert(
        evaluationKey(digest, 7),
        TuneCache::Entry{resourceExhausted("xbars"), 0.0, 0.0, 0.0});
    const std::string seed_text = seed_cache.toConfig().dump(true);

    Rng rng(0xCAC4Eull);
    for (int round = 0; round < 400; ++round) {
        const std::string text = mutate(seed_text, rng);
        auto doc = parseConfig(text);
        if (!doc.isOk())
            continue;
        TuneCache cache;
        // Pre-populate: a failed load must leave the cache COLD, not
        // keep stale entries and not keep half of the new ones.
        cache.insert("sentinel",
                     TuneCache::Entry{Status::ok(), 1.0, 1.0, 1.0});
        const Status loaded = cache.loadFromConfig(doc.value());
        if (loaded.isOk()) {
            EXPECT_FALSE(cache.lookup("sentinel").has_value())
                << "case " << round << ": load must replace, not merge";
        } else {
            EXPECT_FALSE(loaded.message().empty()) << "case " << round;
            EXPECT_EQ(cache.size(), 0u)
                << "case " << round << ": error must leave a cold cache";
        }
    }
}

} // namespace
} // namespace cimmlc
