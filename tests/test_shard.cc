/**
 * @file
 * Tests for cross-process sweep sharding: the I/N spec parser, the
 * index partition, shard-file envelope validation (schema, spec digest,
 * coverage), and — the property the subsystem stands on — a sharded
 * run's merge being byte-identical to the single-process sweep.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/shard.h"

namespace cimmlc {
namespace {

BatchSweep
smokeSweep()
{
    auto sweep = sweepFromText(R"({
      "models": ["mlp", "lenet5", "conv_relu_toy"],
      "archs": ["isaac", "puma"],
      "opt": "full",
      "threads": 1
    })");
    EXPECT_TRUE(sweep.isOk()) << sweep.status().toString();
    return sweep.value();
}

DseSpec
smokeDseSpec()
{
    auto spec = dseSpecFromText(R"({
      "model": "lenet5",
      "arch": "jain",
      "opt": "full",
      "threads": 1,
      "sweep": {
        "xb_size": [[128, 128], [64, 64]],
        "core_grid": {"log2": [1, 2]}
      }
    })");
    EXPECT_TRUE(spec.isOk()) << spec.status().toString();
    return spec.value();
}

/** Runs the sweep's shard @p shard of @p count and writes its file. */
std::string
runBatchShard(const BatchSweep &sweep, int index, int count)
{
    const ShardSpec shard{index, count};
    std::vector<std::size_t> owned;
    std::vector<BatchJob> slice;
    for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
        if (shard.owns(i)) {
            owned.push_back(i);
            slice.push_back(sweep.jobs[i]);
        }
    }
    auto result = runSweep(sweep, slice);
    EXPECT_TRUE(result.isOk()) << result.status().toString();
    const std::string path = testing::TempDir() + "/cimmlc_shard_"
                             + std::to_string(::getpid()) + "_"
                             + std::to_string(index) + "of"
                             + std::to_string(count) + ".json";
    EXPECT_TRUE(saveConfigFile(path,
                               batchShardToConfig(sweep, shard, owned,
                                                  result.value().entries))
                    .isOk());
    return path;
}

// ----- parseShardSpec ----------------------------------------------------

TEST(ShardSpecTest, ParsesIndexSlashCount)
{
    auto shard = parseShardSpec("2/4");
    ASSERT_TRUE(shard.isOk());
    EXPECT_EQ(shard.value().index, 2);
    EXPECT_EQ(shard.value().count, 4);
    EXPECT_TRUE(shard.value().enabled());
    EXPECT_FALSE(parseShardSpec("0/1").value().enabled());
}

TEST(ShardSpecTest, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"", "3", "4/4", "5/4", "-1/4", "a/b", "1/0", "1/", "/4",
          "1/2/3", "1.5/4"}) {
        EXPECT_FALSE(parseShardSpec(bad).isOk())
            << "'" << bad << "' should not parse";
    }
}

TEST(ShardSpecTest, ShardsPartitionTheIndexSpace)
{
    const int count = 3;
    for (std::size_t index = 0; index < 20; ++index) {
        int owners = 0;
        for (int s = 0; s < count; ++s)
            if ((ShardSpec{s, count}).owns(index))
                ++owners;
        EXPECT_EQ(owners, 1) << "index " << index;
    }
}

// ----- batch sharding ----------------------------------------------------

TEST(BatchShardTest, TwoShardMergeIsByteIdenticalToSingleProcess)
{
    const BatchSweep sweep = smokeSweep();

    auto single = runSweep(sweep);
    ASSERT_TRUE(single.isOk());

    const std::vector<std::string> paths = {runBatchShard(sweep, 0, 2),
                                            runBatchShard(sweep, 1, 2)};
    auto merged = mergeBatchShards(sweep, paths);
    ASSERT_TRUE(merged.isOk()) << merged.status().toString();
    EXPECT_EQ(merged.value().table(), single.value().table());
    EXPECT_EQ(merged.value().okCount(), single.value().okCount());
}

TEST(BatchShardTest, MergeRejectsDigestMismatch)
{
    const BatchSweep sweep = smokeSweep();
    const std::vector<std::string> paths = {runBatchShard(sweep, 0, 2),
                                            runBatchShard(sweep, 1, 2)};

    BatchSweep other = sweep;
    other.knobs.opt = "none";
    auto merged = mergeBatchShards(other, paths);
    ASSERT_FALSE(merged.isOk());
    EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchShardTest, MergeRejectsIncompleteAndDuplicateCoverage)
{
    const BatchSweep sweep = smokeSweep();
    const std::string shard0 = runBatchShard(sweep, 0, 2);
    const std::string shard1 = runBatchShard(sweep, 1, 2);

    // One file of a two-shard run: the declared shard count disagrees
    // with the merge set.
    EXPECT_FALSE(mergeBatchShards(sweep, {shard0}).isOk());
    // The same shard twice.
    EXPECT_FALSE(mergeBatchShards(sweep, {shard0, shard0}).isOk());
    // The full set is fine.
    EXPECT_TRUE(mergeBatchShards(sweep, {shard1, shard0}).isOk());
}

TEST(BatchShardTest, MergeRejectsNonShardFiles)
{
    const BatchSweep sweep = smokeSweep();
    const std::string path =
        testing::TempDir() + "/cimmlc_not_a_shard.json";
    ConfigValue::Object doc;
    doc["schema"] = ConfigValue::makeString("cimmlc.report.v1");
    ASSERT_TRUE(
        saveConfigFile(path, ConfigValue::makeObject(std::move(doc)))
            .isOk());
    auto merged = mergeBatchShards(sweep, {path});
    ASSERT_FALSE(merged.isOk());
    EXPECT_EQ(merged.status().code(), StatusCode::kParseError);
}

/** Copies shard file @p path with the first match of @p pattern
 * replaced by @p replacement; returns the copy's path. */
std::string
editedShard(const std::string &path, const std::string &pattern,
            const std::string &replacement)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const std::string edited =
        std::regex_replace(text.str(), std::regex(pattern), replacement,
                           std::regex_constants::format_first_only);
    EXPECT_NE(edited, text.str()) << pattern;
    const std::string out = path + ".edited.json";
    std::ofstream(out) << edited;
    return out;
}

// Each of these edits used to merge into a table that printed 0 (or
// the wrong job) with exit 0.
TEST(BatchShardTest, MistypedMembersFailTheMerge)
{
    const BatchSweep sweep = smokeSweep();
    const std::string shard0 = runBatchShard(sweep, 0, 2);
    const std::string shard1 = runBatchShard(sweep, 1, 2);
    const struct {
        const char *pattern;
        const char *replacement;
        const char *key;
    } cases[] = {
        {R"("latency_cycles": ([0-9.e+-]+))", R"("latency_cycles": "$1")",
         "latency_cycles"},
        {R"("index": 0)", R"("index": 0.7)", "index"},
        {R"("nodes": ([0-9]+))", R"("nodes": "$1")", "nodes"},
        {R"("tuned": false)", R"("tuned": 0)", "tuned"},
        {R"("code": 0)", R"("code": 0.5)", "code"},
        {R"("shards": 2)", R"("shards": "2")", "shards"},
    };
    for (const auto &c : cases) {
        const std::string edited = editedShard(shard0, c.pattern,
                                               c.replacement);
        auto merged = mergeBatchShards(sweep, {edited, shard1});
        ASSERT_FALSE(merged.isOk()) << c.replacement;
        EXPECT_EQ(merged.status().code(), StatusCode::kParseError)
            << merged.status().toString();
        EXPECT_NE(merged.status().message().find(
                      std::string("key '") + c.key + "' must be"),
                  std::string::npos)
            << merged.status().toString();
    }
    // A member the writer always writes may not go missing either.
    auto dropped = mergeBatchShards(
        sweep, {editedShard(shard0, R"("stall_cycles": [0-9.e+-]+,?)", ""),
                shard1});
    ASSERT_FALSE(dropped.isOk());
    EXPECT_NE(dropped.status().message().find("is missing 'stall_cycles'"),
              std::string::npos)
        << dropped.status().toString();
}

// ----- arch-dse sharding -------------------------------------------------

TEST(DseShardTest, ShardingRequiresExhaustiveUntunedSpecs)
{
    DseSpec budgeted = smokeDseSpec();
    budgeted.budget.max_full_evals = 2;
    EXPECT_FALSE(validateSpecForSharding(budgeted).isOk());

    DseSpec tuned = smokeDseSpec();
    tuned.knobs.tune = true;
    EXPECT_FALSE(validateSpecForSharding(tuned).isOk());

    EXPECT_TRUE(validateSpecForSharding(smokeDseSpec()).isOk());
}

// Pins the exact diagnostic texts: the rejection must name the
// adaptive-search mechanism a shard cannot reproduce, so a spec author
// knows which key to drop instead of just that sharding "is not
// allowed".
TEST(DseShardTest, ShardingRejectionNamesTheAdaptiveMechanism)
{
    DseSpec budgeted = smokeDseSpec();
    budgeted.budget.max_full_evals = 2;
    const Status budget_status = validateSpecForSharding(budgeted);
    ASSERT_FALSE(budget_status.isOk());
    EXPECT_EQ(budget_status.message(),
              "arch-dse sharding requires an exhaustive spec: "
              "successive-halving promotion compares candidates across "
              "the whole sweep, which per-shard slices cannot reproduce "
              "(drop 'budget' / --search-budget)");

    DseSpec tuned = smokeDseSpec();
    tuned.knobs.tune = true;
    const Status tune_status = validateSpecForSharding(tuned);
    ASSERT_FALSE(tune_status.isOk());
    EXPECT_EQ(tune_status.message(),
              "arch-dse sharding requires an untuned spec: "
              "per-candidate tuning shares one memo across the sweep, "
              "so shard-local caches would change the reported hit "
              "accounting (drop 'tune')");

    // restrictToShard surfaces the same named reason.
    ArchExplorer explorer(std::move(tuned));
    EXPECT_EQ(explorer.restrictToShard(0, 2).message(),
              tune_status.message());
}

TEST(DseShardTest, ExplorerRejectsBadShardFilters)
{
    ArchExplorer explorer(smokeDseSpec());
    EXPECT_FALSE(explorer.restrictToShard(2, 2).isOk());
    EXPECT_FALSE(explorer.restrictToShard(-1, 2).isOk());
    EXPECT_TRUE(explorer.restrictToShard(1, 2).isOk());
}

TEST(DseShardTest, TwoShardMergeMatchesSingleProcessRun)
{
    const DseSpec spec = smokeDseSpec();
    // The single-process reference runs with a fresh memo, exactly like
    // the CLI does — the merged cache accounting must reproduce it.
    TuneCache cache;
    auto single = ArchExplorer(spec).explore(&cache);
    ASSERT_TRUE(single.isOk()) << single.status().toString();

    std::vector<std::string> paths;
    for (int s = 0; s < 2; ++s) {
        ArchExplorer explorer(spec);
        ASSERT_TRUE(explorer.restrictToShard(s, 2).isOk());
        auto partial = explorer.explore();
        ASSERT_TRUE(partial.isOk()) << partial.status().toString();
        const std::string path =
            testing::TempDir() + "/cimmlc_dse_shard_"
            + std::to_string(::getpid()) + "_" + std::to_string(s)
            + ".json";
        ASSERT_TRUE(saveConfigFile(
                        path, dseShardToConfig(spec, ShardSpec{s, 2},
                                               partial.value()))
                        .isOk());
        paths.push_back(path);
    }

    auto merged = mergeDseShards(spec, paths);
    ASSERT_TRUE(merged.isOk()) << merged.status().toString();
    // The whole record — table, summary, front, hit accounting — must
    // reproduce the single-process run byte for byte.
    EXPECT_EQ(merged.value().table(), single.value().table());
    EXPECT_EQ(merged.value().summary(), single.value().summary());
    EXPECT_EQ(merged.value().front, single.value().front);
    EXPECT_EQ(merged.value().cache_hits, single.value().cache_hits);
    EXPECT_EQ(merged.value().toConfig().dump(true),
              single.value().toConfig().dump(true));
}

TEST(DseShardTest, MistypedMembersFailTheMerge)
{
    const DseSpec spec = smokeDseSpec();
    std::vector<std::string> paths;
    for (int s = 0; s < 2; ++s) {
        ArchExplorer explorer(spec);
        ASSERT_TRUE(explorer.restrictToShard(s, 2).isOk());
        auto partial = explorer.explore();
        ASSERT_TRUE(partial.isOk()) << partial.status().toString();
        const std::string path =
            testing::TempDir() + "/cimmlc_dse_typed_shard_"
            + std::to_string(::getpid()) + "_" + std::to_string(s)
            + ".json";
        ASSERT_TRUE(saveConfigFile(
                        path, dseShardToConfig(spec, ShardSpec{s, 2},
                                               partial.value()))
                        .isOk());
        paths.push_back(path);
    }
    ASSERT_TRUE(mergeDseShards(spec, paths).isOk());
    for (const auto &[pattern, replacement] :
         {std::pair{R"("latency_cycles": ([0-9.e+-]+))",
                    R"("latency_cycles": "$1")"},
          std::pair{R"("index": 0)", R"("index": 0.7)"},
          std::pair{R"("edp": ([0-9.e+-]+))", R"("edp": null)"}}) {
        auto merged = mergeDseShards(
            spec, {editedShard(paths[0], pattern, replacement), paths[1]});
        ASSERT_FALSE(merged.isOk()) << replacement;
        EXPECT_EQ(merged.status().code(), StatusCode::kParseError)
            << merged.status().toString();
    }
}

TEST(DseShardTest, SpecDigestCoversTheWholeBaseArch)
{
    const DseSpec spec = smokeDseSpec();
    std::vector<std::string> paths;
    for (int s = 0; s < 2; ++s) {
        ArchExplorer explorer(spec);
        ASSERT_TRUE(explorer.restrictToShard(s, 2).isOk());
        auto partial = explorer.explore();
        ASSERT_TRUE(partial.isOk()) << partial.status().toString();
        const std::string path =
            testing::TempDir() + "/cimmlc_dse_arch_shard_"
            + std::to_string(::getpid()) + "_" + std::to_string(s)
            + ".json";
        ASSERT_TRUE(saveConfigFile(
                        path, dseShardToConfig(spec, ShardSpec{s, 2},
                                               partial.value()))
                        .isOk());
        paths.push_back(path);
    }
    ASSERT_TRUE(mergeDseShards(spec, paths).isOk());

    // Each variant changes one base-arch field that the arch's
    // toString() omits, so only a digest over archToConfig() sees it.
    const std::size_t cores = static_cast<std::size_t>(
        spec.base_arch.chip.coreNumber());
    const std::size_t xbars = static_cast<std::size_t>(
        spec.base_arch.core.xbNumber());
    std::vector<DseSpec> variants(6, spec);
    variants[0].base_arch.chip.core_noc_bandwidth += 1.0;
    variants[1].base_arch.core.xb_noc_bandwidth += 1.0;
    variants[2].base_arch.chip.core_noc_cost.assign(cores * cores, 2.0);
    variants[3].base_arch.core.xb_noc_cost.assign(xbars * xbars, 2.0);
    variants[4].base_arch.weight_bits = 4;
    variants[5].base_arch.activation_bits = 4;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const DseSpec &variant = variants[i];
        ASSERT_EQ(variant.base_arch.toString(), spec.base_arch.toString())
            << "variant " << i;
        EXPECT_NE(dseSpecDigest(variant), dseSpecDigest(spec))
            << "variant " << i;
        auto merged = mergeDseShards(variant, paths);
        ASSERT_FALSE(merged.isOk()) << "variant " << i;
        EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(merged.status().message().find("different sweep spec"),
                  std::string::npos)
            << merged.status().toString();
    }
}

TEST(DseShardTest, ShardSliceEvaluatesOnlyOwnedCandidates)
{
    const DseSpec spec = smokeDseSpec();
    ArchExplorer explorer(spec);
    ASSERT_TRUE(explorer.restrictToShard(0, 2).isOk());
    auto partial = explorer.explore();
    ASSERT_TRUE(partial.isOk());
    for (const DseCandidate &candidate : partial.value().candidates) {
        if (candidate.index % 2 != 0)
            EXPECT_FALSE(candidate.full_eval)
                << "candidate " << candidate.index
                << " belongs to the other shard";
    }
}

} // namespace
} // namespace cimmlc
