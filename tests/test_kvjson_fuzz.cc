/**
 * @file
 * Mutation fuzz of the kvjson readers for documents from outside the
 * program: the graph and Abs-arch documents `--model-file`,
 * `--arch-file` and a compile frame's `model_text` / `arch_text` carry,
 * and the shard files `--merge-shards` reads. Every mutant of a bundled
 * model's graphToConfig dump must load as a Status or as a graph that
 * validates and goes through scheduling, every mutant of a preset's
 * archToConfig dump as a Status or an architecture that validates, and
 * every mutant of a batch or DSE shard slice must merge into a Status
 * or a result: never a crash. Each document gets byte mutants (mutate)
 * and value mutants (mutateNumber), which keep it well-formed but put
 * edge values into its numbers.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "arch/presets.h"
#include "arch/serialize.h"
#include "common/rng.h"
#include "compiler/session.h"
#include "compiler/shard.h"
#include "fuzz_mutate.h"
#include "graph/models.h"
#include "graph/serialize.h"

#ifndef CIMMLC_SOURCE_DIR
#error "CIMMLC_SOURCE_DIR must name the repository root"
#endif

namespace cimmlc {
namespace {

constexpr int kRounds = 1000;
constexpr int kShardRounds = 300;

TEST(KvjsonFuzzTest, GraphMutantsErrorOrSchedule)
{
    Rng rng(0x6EA9F5ull);
    Rng value_rng(0x6EA9F6ull);
    int loaded = 0;
    int scheduled = 0;
    const auto check = [&](const std::string &text) {
        auto graph = graphFromText(text);
        if (!graph.isOk()) {
            EXPECT_FALSE(graph.status().message().empty()) << text;
            return;
        }
        ++loaded;
        EXPECT_TRUE(graph.value().validate().isOk()) << text;
        // The path `cimmlc --model-file` takes, up to the schedule.
        CompileRequest request;
        request.graph = &graph.value();
        request.arch = "jain";
        request.stop_after = CompileStage::kSchedule;
        auto compiled = CompilerSession(std::move(request)).run();
        if (compiled.isOk())
            ++scheduled;
        else
            EXPECT_FALSE(compiled.status().message().empty()) << text;
    };
    for (const char *model : {"mlp", "lenet5", "conv_relu_toy", "macro_cnn",
                              "inception_toy", "vgg7"}) {
        const std::string seed =
            graphToConfig(models::byName(model)).dump(false);
        for (int round = 0; round < kRounds; ++round) {
            check(mutate(seed, rng));
            check(mutateNumber(seed, value_rng));
        }
    }
    // Enough mutants load and schedule for the check to mean something.
    EXPECT_GT(loaded, 100);
    EXPECT_GT(scheduled, 100);
}

TEST(KvjsonFuzzTest, ArchMutantsErrorOrValidate)
{
    Rng rng(0xA4C8F5ull);
    Rng value_rng(0xA4C8F6ull);
    int loaded = 0;
    const auto check = [&](const std::string &text) {
        auto arch = archFromText(text);
        if (!arch.isOk()) {
            EXPECT_FALSE(arch.status().message().empty()) << text;
            return;
        }
        ++loaded;
        EXPECT_TRUE(arch.value().validate().isOk()) << text;
    };
    for (const std::string &preset : presets::availablePresets()) {
        const std::string seed =
            archToConfig(presets::byName(preset).value()).dump(false);
        for (int round = 0; round < kRounds; ++round) {
            check(mutate(seed, rng));
            check(mutateNumber(seed, value_rng));
        }
    }
    EXPECT_GT(loaded, 100);
}

/** Writes @p text to this process's temp file @p tag; returns its path. */
std::string
writeTemp(const std::string &tag, const std::string &text)
{
    const std::string path = testing::TempDir() + "/cimmlc_fuzz_"
                             + std::to_string(::getpid()) + "_" + tag
                             + ".json";
    FILE *file = std::fopen(path.c_str(), "w");
    EXPECT_NE(file, nullptr) << path;
    if (file != nullptr) {
        std::fputs(text.c_str(), file);
        std::fclose(file);
    }
    return path;
}

/**
 * Merges mutants of each slice of @p seeds (one shard file's text per
 * shard) with the other slices unmutated, through @p merge; returns how
 * many merged. Every merge must return a Status or a result.
 */
template <typename Merge>
int
mergeMutants(const char *tag, const std::vector<std::string> &seeds,
             std::uint64_t seed, const Merge &merge)
{
    std::vector<std::string> paths;
    for (std::size_t s = 0; s < seeds.size(); ++s)
        paths.push_back(
            writeTemp(std::string(tag) + std::to_string(s), seeds[s]));
    EXPECT_TRUE(merge(paths).isOk()) << "the unmutated slices must merge";
    Rng rng(seed);
    int merged = 0;
    for (int round = 0; round < kShardRounds; ++round) {
        // Each slice in turn, byte and value mutants alternating.
        const auto turn = static_cast<std::size_t>(round);
        const std::size_t victim = turn % seeds.size();
        const std::string text = (turn / seeds.size()) % 2 == 0
                                     ? mutate(seeds[victim], rng)
                                     : mutateNumber(seeds[victim], rng);
        std::vector<std::string> set = paths;
        set[victim] = writeTemp(std::string(tag) + "_mutant", text);
        const auto result = merge(set);
        if (result.isOk())
            ++merged;
        else
            EXPECT_FALSE(result.status().message().empty())
                << "round " << round;
    }
    return merged;
}

TEST(KvjsonFuzzTest, BatchShardMutantsErrorOrMerge)
{
    // A 2-shard slice of the shipped smoke sweep.
    auto sweep = sweepFromFile(std::string(CIMMLC_SOURCE_DIR)
                               + "/examples/sweep_smoke.json");
    ASSERT_TRUE(sweep.isOk()) << sweep.status().toString();
    std::vector<std::string> seeds;
    for (int s = 0; s < 2; ++s) {
        const ShardSpec shard{s, 2};
        std::vector<std::size_t> owned;
        std::vector<BatchJob> slice;
        for (std::size_t i = 0; i < sweep.value().jobs.size(); ++i) {
            if (shard.owns(i)) {
                owned.push_back(i);
                slice.push_back(sweep.value().jobs[i]);
            }
        }
        auto result = runSweep(sweep.value(), slice);
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        seeds.push_back(batchShardToConfig(sweep.value(), shard, owned,
                                           result.value().entries)
                            .dump(true));
    }
    const int merged = mergeMutants(
        "batch", seeds, 0xBA7C5ull,
        [&sweep](const std::vector<std::string> &paths) {
            auto result = mergeBatchShards(sweep.value(), paths);
            if (result.isOk()) {
                EXPECT_FALSE(result.value().table().empty());
            }
            return result;
        });
    EXPECT_GT(merged, 10);
}

TEST(KvjsonFuzzTest, DseShardMutantsErrorOrMerge)
{
    // A 3-shard slice of the shipped lenet5 DSE spec.
    auto spec = dseSpecFromFile(std::string(CIMMLC_SOURCE_DIR)
                                + "/examples/dse_lenet5.json");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    std::vector<std::string> seeds;
    for (int s = 0; s < 3; ++s) {
        ArchExplorer explorer(spec.value());
        ASSERT_TRUE(explorer.restrictToShard(s, 3).isOk());
        auto partial = explorer.explore();
        ASSERT_TRUE(partial.isOk()) << partial.status().toString();
        seeds.push_back(
            dseShardToConfig(spec.value(), ShardSpec{s, 3}, partial.value())
                .dump(true));
    }
    const int merged = mergeMutants(
        "dse", seeds, 0xD5E5ull,
        [&spec](const std::vector<std::string> &paths) {
            auto result = mergeDseShards(spec.value(), paths);
            if (result.isOk()) {
                EXPECT_FALSE(result.value().table().empty());
            }
            return result;
        });
    EXPECT_GT(merged, 10);
}

} // namespace
} // namespace cimmlc
