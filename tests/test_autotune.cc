/**
 * @file
 * Tests for the schedule auto-tuner: candidate enumeration clamped per
 * ComputeMode, encoding stability, thread-count-independent results,
 * cache-hit behavior, and the regression pin that the tuned
 * configuration is never worse than the ScheduleOptions{} defaults.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/presets.h"
#include "arch/serialize.h"
#include "compiler/batch.h"
#include "compiler/session.h"
#include "dse/arch_explorer.h"
#include "graph/models.h"
#include "sched/autotune.h"

#ifndef CIMMLC_SOURCE_DIR
#error "CIMMLC_SOURCE_DIR must name the repository root"
#endif

namespace cimmlc {
namespace {

// ----- objective parsing -------------------------------------------------

TEST(TuneObjectiveTest, ParsesKnownNames)
{
    EXPECT_EQ(parseTuneObjective("latency").value(),
              TuneObjective::kLatency);
    EXPECT_EQ(parseTuneObjective("ENERGY").value(),
              TuneObjective::kEnergy);
    EXPECT_EQ(parseTuneObjective(" edp ").value(), TuneObjective::kEdp);
}

TEST(TuneObjectiveTest, RejectsUnknownNames)
{
    auto parsed = parseTuneObjective("throughput");
    ASSERT_FALSE(parsed.isOk());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

// ----- encoding ----------------------------------------------------------

TEST(TuneEncodingTest, RoundTripsEveryCandidate)
{
    for (ComputeMode mode :
         {ComputeMode::kCM, ComputeMode::kXBM, ComputeMode::kWLM}) {
        for (const ScheduleOptions &options :
             AutoTuner::enumerateCandidates(mode)) {
            const std::uint32_t encoding =
                AutoTuner::encodeOptions(options);
            const ScheduleOptions decoded =
                AutoTuner::decodeOptions(encoding);
            EXPECT_EQ(AutoTuner::encodeOptions(decoded), encoding);
            EXPECT_EQ(decoded.toString(), options.toString());
        }
    }
}

TEST(TuneEncodingTest, CandidatesAscendByEncoding)
{
    const auto candidates =
        AutoTuner::enumerateCandidates(ComputeMode::kWLM);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
        EXPECT_LT(AutoTuner::encodeOptions(candidates[i - 1]),
                  AutoTuner::encodeOptions(candidates[i]));
    }
}

// ----- candidate enumeration / mode clamping -----------------------------

TEST(TuneCandidateTest, CmChipsNeverGetMvmOrVvmKnobs)
{
    const auto candidates =
        AutoTuner::enumerateCandidates(ComputeMode::kCM);
    // 2 CG toggles x binding x 4 segment caps x dual-mode x host-offload.
    EXPECT_EQ(candidates.size(), 128u);
    for (const ScheduleOptions &options : candidates) {
        EXPECT_FALSE(options.mvm_duplication);
        EXPECT_FALSE(options.mvm_pipeline);
        EXPECT_FALSE(options.vvm_remap);
    }
}

TEST(TuneCandidateTest, XbmChipsNeverGetVvmKnob)
{
    const auto candidates =
        AutoTuner::enumerateCandidates(ComputeMode::kXBM);
    EXPECT_EQ(candidates.size(), 512u);
    for (const ScheduleOptions &options : candidates)
        EXPECT_FALSE(options.vvm_remap);
}

TEST(TuneCandidateTest, WlmChipsGetTheFullSpace)
{
    EXPECT_EQ(AutoTuner::enumerateCandidates(ComputeMode::kWLM).size(),
              1024u);
}

TEST(TuneCandidateTest, TunedConfigOnCmChipRespectsClamp)
{
    const AutoTuner tuner(AutoTuneConfig{TuneObjective::kLatency, 1});
    auto result =
        tuner.tune(models::byName("lenet5"), presets::jiaIsscc21());
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    for (const TuneCandidate &candidate : result.value().candidates) {
        EXPECT_FALSE(candidate.options.mvm_duplication);
        EXPECT_FALSE(candidate.options.mvm_pipeline);
        EXPECT_FALSE(candidate.options.vvm_remap);
    }
    EXPECT_FALSE(result.value().best().options.vvm_remap);
}

// ----- determinism across thread counts ----------------------------------

TEST(TuneDeterminismTest, SerialAndParallelRunsAreByteIdentical)
{
    const Graph graph = models::byName("lenet5");
    const CimArchitecture arch = presets::byName("jain").value();

    const AutoTuner serial(AutoTuneConfig{TuneObjective::kLatency, 1});
    const AutoTuner parallel(AutoTuneConfig{TuneObjective::kLatency, 4});
    auto a = serial.tune(graph, arch);
    auto b = parallel.tune(graph, arch);
    ASSERT_TRUE(a.isOk()) << a.status().toString();
    ASSERT_TRUE(b.isOk()) << b.status().toString();

    EXPECT_EQ(a.value().best_index, b.value().best_index);
    EXPECT_EQ(a.value().best().encoding, b.value().best().encoding);
    EXPECT_EQ(a.value().table(), b.value().table());
    EXPECT_EQ(a.value().summary(), b.value().summary());
}

// ----- oracle: every candidate prices as a CompilerSession run ----------
//
// The tuner shares one CG plan per group of candidates and validates its
// inputs once per tune; a CompilerSession run of each candidate's options
// (schedule + closed-form perf) is the reference it must match bit for
// bit, status text included.

/** The reference: one session run of @p options, stopped after perf. */
TuneCache::Entry
sessionReference(const Graph &graph, const CimArchitecture &arch,
                 const ScheduleOptions &options, const HostModel &host)
{
    CompileRequest request;
    request.graph = &graph;
    request.arch_ref = &arch;
    request.options = options;
    request.host_model = host;
    request.threads = 1;
    request.outputs.flow = false;
    request.stop_after = CompileStage::kPerf;
    auto artifacts = CompilerSession(std::move(request)).run();
    TuneCache::Entry entry;
    if (!artifacts.isOk()) {
        entry.status = artifacts.status();
        return entry;
    }
    entry.latency_cycles = artifacts.value().perf->latency_cycles;
    entry.energy_pj = artifacts.value().perf->energy.total();
    entry.edp = entry.latency_cycles * entry.energy_pj;
    return entry;
}

/** Checks one priced value against its reference, bit for bit. */
void
expectSameEntry(const TuneCache::Entry &actual,
                const TuneCache::Entry &expected, const std::string &what)
{
    EXPECT_EQ(actual.status.toString(), expected.status.toString())
        << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.latency_cycles),
              std::bit_cast<std::uint64_t>(expected.latency_cycles))
        << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.energy_pj),
              std::bit_cast<std::uint64_t>(expected.energy_pj))
        << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.edp),
              std::bit_cast<std::uint64_t>(expected.edp))
        << what;
}

/**
 * Tunes @p graph x @p arch exhaustively and under a 60-evaluation
 * budget, at 1 and 4 threads, and compares every evaluated candidate
 * with its session reference. Returns the number of infeasible
 * candidates seen in the exhaustive runs.
 */
int
expectTunerMatchesSessions(const Graph &graph, const CimArchitecture &arch,
                           const HostModel &host = HostModel{})
{
    std::map<std::uint32_t, TuneCache::Entry> reference;
    int infeasible = 0;
    for (const bool budgeted : {false, true}) {
        for (const int threads : {1, 4}) {
            AutoTuneConfig config;
            config.threads = threads;
            config.host_model = host;
            if (budgeted)
                config.budget.max_full_evals = 60;
            auto result = AutoTuner(config).tune(graph, arch);
            if (!result.isOk()) {
                ADD_FAILURE() << result.status().toString();
                return infeasible;
            }
            std::int64_t evaluated = 0;
            for (const TuneCandidate &candidate :
                 result.value().candidates) {
                if (candidate.pruned)
                    continue;
                ++evaluated;
                auto [it, inserted] =
                    reference.try_emplace(candidate.encoding);
                if (inserted)
                    it->second = sessionReference(graph, arch,
                                                  candidate.options, host);
                expectSameEntry(
                    TuneCache::Entry{candidate.status,
                                     candidate.latency_cycles,
                                     candidate.energy_pj, candidate.edp},
                    it->second,
                    graph.name() + " x " + arch.name + " "
                        + candidate.options.toString()
                        + (budgeted ? " budgeted" : "") + " threads "
                        + std::to_string(threads));
                if (!budgeted && threads == 1 && !candidate.status.isOk())
                    ++infeasible;
            }
            EXPECT_EQ(result.value().evaluated_count, evaluated);
        }
    }
    return infeasible;
}

TEST(TuneOracleTest, EveryCandidateMatchesItsSessionRunOnPresets)
{
    int infeasible = 0;
    for (const char *model : {"lenet5", "inception_toy"}) {
        for (const char *preset : {"jia-isscc21", "puma", "jain-jssc21"}) {
            infeasible += expectTunerMatchesSessions(
                models::byName(model), presets::byName(preset).value());
        }
    }
    // On puma and jain every bits-to-xb candidate fails in the MVM
    // level, so the oracle also covers failures below the shared CG plan.
    EXPECT_GT(infeasible, 0);
}

TEST(TuneOracleTest, EveryCandidateMatchesItsSessionRunOnDualAndHostArchs)
{
    // arch_dual_win makes the dual-mode bit matter, arch_weak_alu the
    // host-offload bit.
    for (const char *file : {"arch_dual_win.json", "arch_weak_alu.json"}) {
        auto arch = archFromFile(std::string(CIMMLC_SOURCE_DIR)
                                 + "/examples/" + file);
        ASSERT_TRUE(arch.isOk()) << arch.status().toString();
        expectTunerMatchesSessions(models::byName("lenet5"), arch.value());
    }
}

TEST(TuneOracleTest, InputsRejectedBeforeSchedulingKeepTheSessionText)
{
    // The tuner validates its inputs once per tune; every candidate
    // must still carry (and cache) the text its session would give it.
    const Graph graph = models::byName("lenet5");
    CimArchitecture bad_arch = presets::byName("puma").value();
    bad_arch.xbar.parallel_row = 0;
    HostModel bad_host;
    bad_host.alu_ops_per_cycle = -1.0;
    struct Case {
        CimArchitecture arch;
        HostModel host;
        const char *prefix;
    };
    for (const Case &c :
         {Case{bad_arch, HostModel{}, "validate: "},
          Case{presets::byName("puma").value(), bad_host,
               "CompileRequest: host_model: "}}) {
        TuneCache cache;
        AutoTuneConfig config;
        config.threads = 4;
        config.cache = &cache;
        config.host_model = c.host;
        auto result = AutoTuner(config).tune(graph, c.arch);
        ASSERT_FALSE(result.isOk());
        EXPECT_NE(result.status().message().find(c.prefix),
                  std::string::npos)
            << result.status().toString();
        const auto candidates = AutoTuner::enumerateCandidates(c.arch.mode);
        ASSERT_EQ(cache.size(), candidates.size());
        const std::string digest = evaluationDigest(graph, c.arch);
        for (const ScheduleOptions &options : candidates) {
            const std::uint32_t encoding = AutoTuner::encodeOptions(options);
            auto entry =
                cache.lookup(evaluationKey(digest, encoding, {}, c.host));
            ASSERT_TRUE(entry.has_value()) << options.toString();
            expectSameEntry(*entry,
                            sessionReference(graph, c.arch, options, c.host),
                            options.toString());
        }
    }
}

// ----- cache -------------------------------------------------------------

TEST(TuneCacheTest, SecondRunIsServedFromTheCache)
{
    const Graph graph = models::byName("macro_cnn");
    const CimArchitecture arch = presets::byName("jia").value();

    TuneCache cache;
    const AutoTuner tuner(
        AutoTuneConfig{TuneObjective::kLatency, 1, &cache});

    auto first = tuner.tune(graph, arch);
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    EXPECT_EQ(first.value().cache_hits, 0);
    EXPECT_EQ(cache.size(), first.value().candidates.size());

    auto second = tuner.tune(graph, arch);
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    EXPECT_EQ(second.value().cache_hits,
              static_cast<std::int64_t>(
                  second.value().candidates.size()));
    // Cached values are bit-identical to fresh ones.
    EXPECT_EQ(first.value().table(), second.value().table());
    EXPECT_EQ(first.value().best().encoding,
              second.value().best().encoding);
}

/** The leaves of @p doc by path, arrays as one leaf. */
void
collectLeaves(const ConfigValue &doc, const std::string &path,
              std::map<std::string, std::string> *leaves)
{
    if (!doc.isObject()) {
        (*leaves)[path] = doc.dump(false);
        return;
    }
    for (const auto &[key, value] : doc.asObject())
        collectLeaves(value, path + "/" + key, leaves);
}

std::map<std::string, std::string>
archLeaves(const CimArchitecture &arch)
{
    std::map<std::string, std::string> leaves;
    collectLeaves(archToConfig(arch), "", &leaves);
    return leaves;
}

/** The graph facts evaluationDigest covers; keyGraph varies one. */
enum class GraphFact {
    kNone,
    kName,
    kWeightsAndMacs,
    kNodeKind,
    kNodeArity,
    kNodeCount,
    kOutputDims,
};

Graph
keyGraph(GraphFact fact)
{
    Graph g(fact == GraphFact::kName ? "h" : "g");
    const std::int64_t kernel = fact == GraphFact::kWeightsAndMacs ? 5 : 3;
    TensorId y = g.conv2d(g.addInput("x", {1, 3, 8, 8}), 8, kernel, 1,
                          kernel / 2);
    if (fact == GraphFact::kNodeKind)
        y = g.gelu(y);
    else if (fact == GraphFact::kNodeArity)
        y = g.addNode(OpKind::kRelu, std::monostate{}, {y, y});
    else
        y = g.relu(y);
    y = g.linear(g.flatten(y), 10);
    if (fact == GraphFact::kNodeCount)
        y = g.relu(y);
    g.markOutput(g.reshape(y, fact == GraphFact::kOutputDims
                                  ? std::vector<std::int64_t>{10, 1}
                                  : std::vector<std::int64_t>{1, 10}));
    return g;
}

TEST(TuneCacheTest, FingerprintSeparatesArchCandidates)
{
    // A DSE sweep shares one cache across arch candidates, so every
    // field archToConfig writes must change the memo key. Each variant
    // records the archToConfig leaves it changed; together they must
    // cover every leaf, so a field added to the serializer fails here
    // until a variant exercises it.
    const Graph graph = models::byName("lenet5");
    const CimArchitecture base = presets::jainJssc21();
    const std::string base_key =
        evaluationKey(evaluationDigest(graph, base), 0);

    std::vector<CimArchitecture> variants;
    // The 12 sweepable axes, through the DSE's own mutation helper.
    auto axes = sweepSpecFromConfig(parseConfig(R"({
        "xb_size": [[128, 128]], "xb_grid": [[2, 2]],
        "core_grid": [[4, 4]], "core_noc": ["mesh"],
        "core_noc_bandwidth": [64], "l0_bandwidth": [64],
        "l1_bandwidth": [64], "compute_mode": ["XBM"], "dac_bits": [2],
        "adc_bits": [4], "cell_type": ["ReRAM"], "cell_bits": [2]
    })").value());
    ASSERT_TRUE(axes.isOk()) << axes.status().toString();
    ASSERT_EQ(axes.value().axes.size(), 12u);
    for (const ArchAxis &axis : axes.value().axes) {
        CimArchitecture arch = base;
        ASSERT_TRUE(
            applyArchParam(&arch, axis.param, axis.values[0]).isOk());
        variants.push_back(arch);
    }
    // The fields no axis sweeps.
    auto variant = [&](auto mutate) {
        CimArchitecture arch = base;
        mutate(arch);
        variants.push_back(arch);
    };
    const auto cores = static_cast<std::size_t>(base.chip.coreNumber());
    const auto xbs = static_cast<std::size_t>(base.core.xbNumber());
    variant([](CimArchitecture &a) { a.name = "jain-variant"; });
    variant([](CimArchitecture &a) { a.weight_bits = 4; });
    variant([](CimArchitecture &a) { a.activation_bits = 4; });
    variant([](CimArchitecture &a) { a.chip.alu_ops_per_cycle = 32.0; });
    variant([](CimArchitecture &a) { a.core.alu_ops_per_cycle = 32.0; });
    variant([](CimArchitecture &a) { a.chip.l0_size_kib = 96.0; });
    variant([](CimArchitecture &a) { a.core.l1_size_kib = 96.0; });
    variant([](CimArchitecture &a) { a.core.xb_noc = NocType::kMesh; });
    variant([](CimArchitecture &a) { a.core.xb_noc_bandwidth = 64.0; });
    variant([](CimArchitecture &a) { a.xbar.parallel_row = 16; });
    variant([&](CimArchitecture &a) {
        a.chip.core_noc_cost.assign(cores * cores, 2.0);
    });
    variant([&](CimArchitecture &a) {
        a.core.xb_noc_cost.assign(xbs * xbs, 2.0);
    });

    const auto base_leaves = archLeaves(base);
    std::map<std::string, std::string> every_leaf = base_leaves;
    std::set<std::string> changed;
    for (const CimArchitecture &arch : variants) {
        for (const auto &[path, value] : archLeaves(arch)) {
            every_leaf[path] = value;
            auto it = base_leaves.find(path);
            if (it == base_leaves.end() || it->second != value)
                changed.insert(path);
        }
        EXPECT_NE(evaluationKey(evaluationDigest(graph, arch), 0),
                  base_key)
            << arch.toString();
    }
    for (const auto &[path, value] : every_leaf)
        EXPECT_TRUE(changed.count(path) > 0) << "no variant changes " << path;

    // Each graph fact on its own (weights and MACs move together).
    const std::string graph_key =
        evaluationKey(evaluationDigest(keyGraph(GraphFact::kNone), base), 0);
    EXPECT_EQ(evaluationKey(evaluationDigest(keyGraph(GraphFact::kNone),
                                             base),
                            0),
              graph_key);
    for (GraphFact fact :
         {GraphFact::kName, GraphFact::kWeightsAndMacs, GraphFact::kNodeKind,
          GraphFact::kNodeArity, GraphFact::kNodeCount,
          GraphFact::kOutputDims}) {
        EXPECT_NE(evaluationKey(evaluationDigest(keyGraph(fact), base), 0),
                  graph_key)
            << static_cast<int>(fact);
    }
}

TEST(TuneCacheTest, KeysGroupTunerDseAndHostModelEvaluations)
{
    // One key function serves the tuner and the explorer: a
    // fixed-options DSE point priced closed-form and unlinted warms
    // exactly the tuner candidate with its encoding, and a linted or
    // event-engine point warms none.
    const Graph graph = models::byName("conv_relu_toy");
    const std::string sweep = R"("sweep": {"xb_size": [[256, 64]]}})";
    struct Case {
        const char *extra;
        std::int64_t tuner_hits;
    };
    for (const Case &c :
         {Case{"", 1}, Case{R"("lint": true, )", 0},
          Case{R"("perf_engine": "event", )", 0}}) {
        auto spec = dseSpecFromText(
            std::string(R"({"model": "conv_relu_toy", "arch": "jain", )")
            + R"("threads": 1, )" + c.extra + sweep);
        ASSERT_TRUE(spec.isOk()) << spec.status().toString();
        TuneCache cache;
        auto dse = ArchExplorer(spec.value()).explore(&cache);
        ASSERT_TRUE(dse.isOk()) << dse.status().toString();
        ASSERT_EQ(cache.size(), 1u);
        const DseCandidate &point = dse.value().candidates[0];
        AutoTuneConfig config;
        config.threads = 1;
        config.cache = &cache;
        auto tuned = AutoTuner(config).tune(graph, point.arch);
        ASSERT_TRUE(tuned.isOk()) << tuned.status().toString();
        EXPECT_EQ(tuned.value().cache_hits, c.tuner_hits) << c.extra;
        if (c.tuner_hits == 0)
            continue;
        const std::uint32_t encoding =
            AutoTuner::encodeOptions(
                spec.value().knobs.scheduleOptions().value());
        for (const TuneCandidate &candidate : tuned.value().candidates) {
            if (candidate.encoding == encoding) {
                EXPECT_EQ(candidate.latency_cycles, point.latency_cycles);
            }
        }
    }
    // A halving rung's proxy of the same point is another evaluation.
    const std::string digest =
        evaluationDigest(graph, presets::jainJssc21());
    SearchFidelity proxy;
    proxy.prefix_nodes = 1;
    EXPECT_NE(evaluationKey(digest, 0, proxy), evaluationKey(digest, 0));

    // Another host model reprices exactly the offloading candidates.
    const CimArchitecture arch = presets::jainJssc21();
    TuneCache cache;
    AutoTuneConfig config;
    config.threads = 1;
    config.cache = &cache;
    auto cold = AutoTuner(config).tune(graph, arch);
    ASSERT_TRUE(cold.isOk());
    std::int64_t offloading = 0;
    for (const TuneCandidate &candidate : cold.value().candidates)
        offloading += candidate.options.host_offload ? 1 : 0;
    ASSERT_GT(offloading, 0);
    config.host_model.alu_ops_per_cycle = 8.0;
    auto slow_host = AutoTuner(config).tune(graph, arch);
    ASSERT_TRUE(slow_host.isOk());
    EXPECT_EQ(slow_host.value().cache_hits,
              static_cast<std::int64_t>(cold.value().candidates.size())
                  - offloading);
}

TEST(TuneCacheTest, ArchCandidatesWithDifferentXbSizeNeverShareEntries)
{
    const Graph graph = models::byName("lenet5");
    CimArchitecture small = presets::jainJssc21();
    CimArchitecture large = presets::jainJssc21();
    large.xbar.rows = 128;
    large.xbar.cols = 128;

    TuneCache cache;
    const AutoTuner tuner(
        AutoTuneConfig{TuneObjective::kLatency, 1, &cache});
    auto first = tuner.tune(graph, small);
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    auto second = tuner.tune(graph, large);
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    // Same graph, same candidate encodings — but a different crossbar:
    // nothing may alias.
    EXPECT_EQ(second.value().cache_hits, 0);
    EXPECT_EQ(cache.size(), first.value().candidates.size()
                                + second.value().candidates.size());
}

// ----- cross-process persistence -----------------------------------------

TEST(TuneCachePersistTest, RoundTripMatchesAWarmInMemoryCache)
{
    const Graph graph = models::byName("lenet5");
    const CimArchitecture arch = presets::byName("jain").value();
    const std::string path = "test_autotune_cache_roundtrip.json";

    TuneCache original;
    const AutoTuner tuner_a(
        AutoTuneConfig{TuneObjective::kLatency, 1, &original});
    auto cold = tuner_a.tune(graph, arch);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    ASSERT_TRUE(original.saveToFile(path).isOk());

    // In-memory warm reference: every candidate served from the memo.
    auto warm_memory = tuner_a.tune(graph, arch);
    ASSERT_TRUE(warm_memory.isOk());

    TuneCache reloaded;
    ASSERT_TRUE(reloaded.loadFromFile(path).isOk());
    EXPECT_EQ(reloaded.size(), original.size());
    const AutoTuner tuner_b(
        AutoTuneConfig{TuneObjective::kLatency, 1, &reloaded});
    auto warm_disk = tuner_b.tune(graph, arch);
    ASSERT_TRUE(warm_disk.isOk()) << warm_disk.status().toString();

    // Hit counts identical to the in-memory warm cache, values
    // bit-identical to the cold run.
    EXPECT_EQ(warm_disk.value().cache_hits,
              warm_memory.value().cache_hits);
    EXPECT_EQ(warm_disk.value().cache_hits,
              static_cast<std::int64_t>(
                  warm_disk.value().candidates.size()));
    EXPECT_EQ(warm_disk.value().table(), cold.value().table());
    EXPECT_EQ(warm_disk.value().best().encoding,
              cold.value().best().encoding);
    std::remove(path.c_str());
}

TEST(TuneCachePersistTest, CorruptFileDegradesToAColdCache)
{
    const std::string path = "test_autotune_cache_corrupt.json";
    {
        std::ofstream out(path);
        out << "this is not kvjson {{{";
    }
    TuneCache cache;
    const Status loaded = cache.loadFromFile(path);
    EXPECT_FALSE(loaded.isOk());
    EXPECT_EQ(cache.size(), 0u);

    // The degraded cache still works — as a cold one.
    const AutoTuner tuner(
        AutoTuneConfig{TuneObjective::kLatency, 1, &cache});
    auto result = tuner.tune(models::byName("conv_relu_toy"),
                             presets::byName("tutorial").value());
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().cache_hits, 0);
    EXPECT_EQ(cache.size(), result.value().candidates.size());
    std::remove(path.c_str());
}

TEST(TuneCachePersistTest, StaleSchemaOrTruncatedEntriesAreRejected)
{
    TuneCache cache;
    // Pre-populate so a failed load demonstrably empties the memo
    // instead of leaving stale entries behind.
    cache.insert("sentinel", TuneCache::Entry{Status::ok(), 1, 2, 2});

    auto wrong_schema = parseConfig(
        R"({"schema": "cimmlc.tunecache.v0", "entries": []})");
    ASSERT_TRUE(wrong_schema.isOk());
    EXPECT_FALSE(cache.loadFromConfig(wrong_schema.value()).isOk());
    EXPECT_EQ(cache.size(), 0u);

    // A well-formed v1 file holds the retired fingerprint keys: stale.
    cache.insert("sentinel", TuneCache::Entry{Status::ok(), 1, 2, 2});
    auto v1 = parseConfig(R"({
        "schema": "cimmlc.tunecache.v1",
        "entries": [{"key": "k", "code": 0, "latency_cycles": 1,
                     "energy_pj": 1, "edp": 1}]
    })");
    ASSERT_TRUE(v1.isOk());
    const Status stale = cache.loadFromConfig(v1.value());
    EXPECT_NE(stale.message().find("stale file?"), std::string::npos)
        << stale.toString();
    EXPECT_EQ(cache.size(), 0u);

    cache.insert("sentinel", TuneCache::Entry{Status::ok(), 1, 2, 2});
    auto truncated = parseConfig(R"({
        "schema": "cimmlc.tunecache.v2",
        "entries": [{"key": "k", "code": 0, "latency_cycles": 1}]
    })");
    ASSERT_TRUE(truncated.isOk());
    EXPECT_FALSE(cache.loadFromConfig(truncated.value()).isOk());
    EXPECT_EQ(cache.size(), 0u);

    cache.insert("sentinel", TuneCache::Entry{Status::ok(), 1, 2, 2});
    auto bad_code = parseConfig(R"({
        "schema": "cimmlc.tunecache.v2",
        "entries": [{"key": "k", "code": 99, "latency_cycles": 1,
                     "energy_pj": 1, "edp": 1}]
    })");
    ASSERT_TRUE(bad_code.isOk());
    EXPECT_FALSE(cache.loadFromConfig(bad_code.value()).isOk());
    EXPECT_EQ(cache.size(), 0u);

    // A wrong-typed metric must be rejected, not loaded as 0.0 (a
    // zero-latency entry would win every warm Pareto front).
    cache.insert("sentinel", TuneCache::Entry{Status::ok(), 1, 2, 2});
    auto mistyped = parseConfig(R"({
        "schema": "cimmlc.tunecache.v2",
        "entries": [{"key": "k", "code": 0, "latency_cycles": "oops",
                     "energy_pj": 1, "edp": 1}]
    })");
    ASSERT_TRUE(mistyped.isOk());
    EXPECT_FALSE(cache.loadFromConfig(mistyped.value()).isOk());
    EXPECT_EQ(cache.size(), 0u);

    // A fractional code used to truncate to 0 and load a failed
    // evaluation as a success.
    cache.insert("sentinel", TuneCache::Entry{Status::ok(), 1, 2, 2});
    auto fractional_code = parseConfig(R"({
        "schema": "cimmlc.tunecache.v2",
        "entries": [{"key": "k", "code": 0.5, "latency_cycles": 1,
                     "energy_pj": 1, "edp": 1}]
    })");
    ASSERT_TRUE(fractional_code.isOk());
    const Status fractional = cache.loadFromConfig(fractional_code.value());
    EXPECT_EQ(fractional.code(), StatusCode::kParseError);
    EXPECT_EQ(fractional.message(),
              "tune cache entry 'k' key 'code' must be an integer in int64 "
              "range");
    EXPECT_EQ(cache.size(), 0u);

    EXPECT_FALSE(cache.loadFromFile("no_such_cache_file.json").isOk());
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TuneCachePersistTest, FailedEvaluationsSurviveTheRoundTrip)
{
    // Failure entries matter: a warm cache must also skip re-running
    // infeasible candidates, and their Status must come back intact.
    TuneCache cache;
    cache.insert("ok", TuneCache::Entry{Status::ok(), 10.0, 20.0, 200.0});
    cache.insert("bad",
                 TuneCache::Entry{resourceExhausted("too big"), 0, 0, 0});
    TuneCache reloaded;
    ASSERT_TRUE(reloaded.loadFromConfig(cache.toConfig()).isOk());
    ASSERT_EQ(reloaded.size(), 2u);
    auto ok_entry = reloaded.lookup("ok");
    ASSERT_TRUE(ok_entry.has_value());
    EXPECT_TRUE(ok_entry->status.isOk());
    EXPECT_DOUBLE_EQ(ok_entry->latency_cycles, 10.0);
    auto bad_entry = reloaded.lookup("bad");
    ASSERT_TRUE(bad_entry.has_value());
    EXPECT_EQ(bad_entry->status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(bad_entry->status.message(), "too big");
}

TEST(TuneCacheTest, DifferentArchesDoNotCollide)
{
    const Graph graph = models::byName("lenet5");
    TuneCache cache;
    const AutoTuner tuner(
        AutoTuneConfig{TuneObjective::kLatency, 1, &cache});

    auto on_jia = tuner.tune(graph, presets::byName("jia").value());
    auto on_tutorial =
        tuner.tune(graph, presets::byName("tutorial").value());
    ASSERT_TRUE(on_jia.isOk());
    ASSERT_TRUE(on_tutorial.isOk());
    EXPECT_EQ(on_tutorial.value().cache_hits, 0);
    EXPECT_NE(on_jia.value().best().latency_cycles,
              on_tutorial.value().best().latency_cycles);
}

// ----- regression pin: proxy keys never alias full ones -----------------

TEST(TuneCacheTest, ProxyFidelityNeverAliasesFullEvaluations)
{
    // A halving rung evaluates the same (graph, arch, options) point at
    // proxy fidelity (workload prefix and/or forced opt=none). Its memo
    // key must differ from the full evaluation's, for every proxy mode,
    // or a warm cache would poison full runs with proxy metrics.
    const Graph graph = models::byName("lenet5");
    const CimArchitecture arch = presets::byName("jain").value();
    const std::uint32_t encoding =
        AutoTuner::encodeOptions(ScheduleOptions::none());

    const std::string digest = evaluationDigest(graph, arch);
    const std::string full = evaluationKey(digest, encoding);
    SearchFidelity prefix;
    prefix.prefix_nodes = 4;
    SearchFidelity opt_none;
    opt_none.forced_opt_none = true;
    SearchFidelity both = prefix;
    both.forced_opt_none = true;
    const std::string with_prefix = evaluationKey(digest, encoding, prefix);
    const std::string with_opt_none =
        evaluationKey(digest, encoding, opt_none);
    const std::string with_both = evaluationKey(digest, encoding, both);

    EXPECT_NE(full, with_prefix);
    EXPECT_NE(full, with_opt_none);
    EXPECT_NE(full, with_both);
    EXPECT_NE(with_prefix, with_opt_none);
    EXPECT_NE(with_prefix, with_both);
    EXPECT_NE(with_opt_none, with_both);
    // Distinct prefix lengths are distinct fidelities.
    SearchFidelity longer = prefix;
    longer.prefix_nodes = 5;
    EXPECT_NE(with_prefix, evaluationKey(digest, encoding, longer));
    // The default fidelity is the full evaluation.
    EXPECT_EQ(full, evaluationKey(digest, encoding, SearchFidelity{}));

    // End to end: a proxy entry in a warm cache is invisible to the
    // full-fidelity lookup path.
    TuneCache cache;
    cache.insert(with_prefix,
                 TuneCache::Entry{Status::ok(), 1.0, 1.0, 1.0});
    EXPECT_FALSE(cache.lookup(full).has_value());
}

// ----- regression pin: tuned never worse than the defaults ---------------

TEST(TuneRegressionTest, TunedNeverWorseThanDefaultOptions)
{
    for (const char *model : {"lenet5", "macro_cnn"}) {
        for (const char *preset : {"jain", "jia"}) {
            for (TuneObjective objective :
                 {TuneObjective::kLatency, TuneObjective::kEnergy,
                  TuneObjective::kEdp}) {
                const AutoTuner tuner(AutoTuneConfig{objective, 1});
                auto result = tuner.tune(
                    models::byName(model),
                    presets::byName(preset).value());
                ASSERT_TRUE(result.isOk())
                    << model << " x " << preset << ": "
                    << result.status().toString();
                const TuneResult &r = result.value();
                ASSERT_TRUE(r.defaults().status.isOk());
                EXPECT_LE(r.best().objectiveValue(objective),
                          r.defaults().objectiveValue(objective))
                    << model << " x " << preset << " objective "
                    << tuneObjectiveName(objective);
            }
        }
    }
}

TEST(TuneRegressionTest, TunerStrictlyBeatsDefaultsSomewhere)
{
    // The pinned wins of this cost model: segmentation granularity
    // (seg<=N) trades a cheap reload for more duplication budget on
    // jain and jia. If the cost model changes and these stop being
    // strict wins, retune and re-pin.
    struct Pin {
        const char *model;
        const char *preset;
    };
    for (const Pin &pin : {Pin{"macro_cnn", "jain"},
                           Pin{"vgg7", "jia"}}) {
        const AutoTuner tuner(
            AutoTuneConfig{TuneObjective::kLatency, 1});
        auto result = tuner.tune(models::byName(pin.model),
                                 presets::byName(pin.preset).value());
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        EXPECT_LT(result.value().best().latency_cycles,
                  result.value().defaults().latency_cycles)
            << pin.model << " x " << pin.preset;
        EXPECT_GT(result.value().speedupOverDefault(), 1.0);
    }
}

// ----- report ------------------------------------------------------------

TEST(TuneReportTest, TableMarksBestAndDefault)
{
    const AutoTuner tuner(AutoTuneConfig{TuneObjective::kLatency, 1});
    auto result = tuner.tune(models::byName("conv_relu_toy"),
                             presets::byName("tutorial").value());
    ASSERT_TRUE(result.isOk());
    const std::string table = result.value().table();
    EXPECT_NE(table.find("<- best"), std::string::npos);
    EXPECT_NE(table.find("default"), std::string::npos);
    EXPECT_NE(result.value().summary().find("autotune[latency]"),
              std::string::npos);
}

// ----- batch sweep integration -------------------------------------------

TEST(TuneSweepTest, SweepFileParsesTuneKeys)
{
    auto sweep = sweepFromText(R"({
        "models": ["lenet5"],
        "archs": ["jain"],
        "tune": true,
        "objective": "edp"
    })");
    ASSERT_TRUE(sweep.isOk()) << sweep.status().toString();
    EXPECT_TRUE(sweep.value().knobs.tune);
    EXPECT_EQ(sweep.value().knobs.objective, "edp");
}

TEST(TuneSweepTest, SweepFileDefaultsToNoTuning)
{
    auto sweep = sweepFromText(R"({
        "models": ["lenet5"],
        "archs": ["jain"]
    })");
    ASSERT_TRUE(sweep.isOk());
    EXPECT_FALSE(sweep.value().knobs.tune);
    EXPECT_EQ(sweep.value().knobs.objective, "latency");
}

TEST(TuneSweepTest, SweepFileRejectsUnknownObjective)
{
    auto sweep = sweepFromText(R"({
        "models": ["lenet5"],
        "archs": ["jain"],
        "objective": "throughput"
    })");
    EXPECT_FALSE(sweep.isOk());
}

TEST(TuneSweepTest, TunedBatchMatchesSerialAndBeatsFixedOptions)
{
    auto jobs = crossProductJobs({"lenet5", "macro_cnn"}, {"jain", "jia"});
    ASSERT_TRUE(jobs.isOk());

    BatchSweep sweep;
    sweep.jobs = jobs.value();
    sweep.threads = 1;
    sweep.knobs.tune = true;
    sweep.knobs.objective = "latency";
    auto a = runSweep(sweep);
    sweep.threads = 4;
    auto b = runSweep(sweep);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(a.value().table(), b.value().table());

    sweep.threads = 1;
    sweep.knobs.tune = false;
    auto baseline = runSweep(sweep);
    ASSERT_TRUE(baseline.isOk());
    for (std::size_t i = 0; i < a.value().entries.size(); ++i) {
        const BatchEntry &tuned = a.value().entries[i];
        const BatchEntry &untuned = baseline.value().entries[i];
        ASSERT_TRUE(tuned.status.isOk()) << tuned.status.toString();
        EXPECT_TRUE(tuned.tuned);
        EXPECT_LE(tuned.perf.latency_cycles,
                  untuned.perf.latency_cycles)
            << tuned.job.model << " x " << tuned.job.arch;
    }
}

} // namespace
} // namespace cimmlc
