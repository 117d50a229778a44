/**
 * @file
 * Tests for the two scheduling axes added on top of the CG level:
 * dual-mode arrays ("Be CIM or Be Memory" — segments pinned resident so
 * their crossbars stay programmed across segment switches) and hybrid
 * host/CIM offload (digital regions priced against a host-CPU model).
 *
 * Covers the schedule invariants both passes must uphold, the pinned
 * workload x architecture pairs where the auto-tuner selects each knob
 * and strictly beats every knob-off candidate, codegen's init-section
 * weight writes for resident segments, the host flag's round-trip
 * through the meta-op text syntax, cache-key non-aliasing for
 * the new encoding bits, and byte-identical batch output across thread
 * counts with both knobs forced on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "arch/serialize.h"
#include "cache/artifact_cache.h"
#include "compiler/batch.h"
#include "compiler/session.h"
#include "graph/models.h"
#include "mop/parser.h"
#include "sched/autotune.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"

namespace cimmlc {
namespace {

/**
 * ReRAM chip shaped so residency is a real trade: small crossbars force
 * multi-crossbar cores (16 arrays behind one set of write drivers, so a
 * segment reload is volume, not a constant), and the 6-core budget
 * makes lenet5 split into segments small enough that pinning one still
 * leaves room for the rest.
 */
CimArchitecture
dualWinArch()
{
    auto arch = archFromText(R"({
      "name": "dual-win", "computing_mode": "XBM",
      "chip_tier": {"core_grid": [2, 3], "core_noc": "mesh",
                    "core_noc_bandwidth": 256, "alu": 64,
                    "l0_size_kib": 256, "l0_bandwidth": 256},
      "core_tier": {"xb_grid": [4, 4], "xb_noc": "ideal",
                    "alu": 32, "l1_size_kib": 64, "l1_bandwidth": 128},
      "xb_tier": {"xb_size": [64, 64], "parallel_row": 64,
                  "dac": 1, "adc": 8, "type": "ReRAM", "precision": 2}})");
    EXPECT_TRUE(arch.isOk()) << arch.status().toString();
    return arch.value();
}

/** Chip whose vector ALU is so slow that digital regions price better
 * on the host CPU even after launch overhead and boundary transfers. */
CimArchitecture
weakAluArch()
{
    auto arch = archFromText(R"({
      "name": "weak-alu", "computing_mode": "XBM",
      "chip_tier": {"core_grid": [3, 3], "core_noc": "mesh",
                    "core_noc_bandwidth": 256, "alu": 0.25,
                    "l0_size_kib": 256, "l0_bandwidth": 256},
      "core_tier": {"xb_grid": [2, 2], "xb_noc": "ideal",
                    "alu": 0, "l1_size_kib": 64, "l1_bandwidth": 128},
      "xb_tier": {"xb_size": [128, 128], "parallel_row": 128,
                  "dac": 1, "adc": 8, "type": "ReRAM", "precision": 2}})");
    EXPECT_TRUE(arch.isOk()) << arch.status().toString();
    return arch.value();
}

ScheduleOptions
dualOptions()
{
    ScheduleOptions options = ScheduleOptions::full();
    options.segment_max_nodes = 4;
    options.dual_mode = true;
    return options;
}

// ----- dual-mode schedule invariants -------------------------------------

TEST(DualModeTest, ResidentSegmentsSkipReloadAndStackCores)
{
    const Graph graph = models::byName("lenet5");
    const CimArchitecture arch = dualWinArch();
    auto schedule = scheduleGraph(graph, arch, dualOptions());
    ASSERT_TRUE(schedule.isOk()) << schedule.status().toString();
    const Schedule &s = schedule.value();

    std::size_t resident_count = 0;
    bool saw_nonresident_reload = false;
    for (std::size_t i = 0; i < s.segments.size(); ++i) {
        const Segment &segment = s.segments[i];
        if (segment.resident) {
            ++resident_count;
            EXPECT_EQ(segment.reload_cycles, 0.0)
                << "resident segment " << i << " must never reload";
            EXPECT_GT(i, 0u) << "segment 0 never needs pinning";
        } else if (i > 0) {
            saw_nonresident_reload |= segment.reload_cycles > 0.0;
        }
    }
    EXPECT_GT(resident_count, 0u)
        << "the pinned pair must actually pin on this architecture";
    EXPECT_TRUE(saw_nonresident_reload)
        << "non-resident later segments still pay their reload";

    // Resident core ranges live at the top of the core space and never
    // collide with the per-segment ranges non-resident segments reuse.
    for (const OperatorMapping &a : s.ops) {
        if (!a.is_cim || !a.resident)
            continue;
        const std::int64_t a_lo = a.core_base;
        const std::int64_t a_hi =
            a.core_base + a.duplication * a.cores_per_replica;
        EXPECT_LE(a_hi, arch.chip.coreNumber());
        for (const OperatorMapping &b : s.ops) {
            if (!b.is_cim || b.resident)
                continue;
            const std::int64_t b_hi =
                b.core_base + b.duplication * b.cores_per_replica;
            EXPECT_TRUE(b_hi <= a_lo || b.core_base >= a_hi)
                << "resident cores [" << a_lo << "," << a_hi
                << ") collide with non-resident [" << b.core_base << ","
                << b_hi << ")";
        }
    }
}

TEST(DualModeTest, KnobOffProducesNoResidentSegments)
{
    const Graph graph = models::byName("lenet5");
    ScheduleOptions options = dualOptions();
    options.dual_mode = false;
    auto schedule = scheduleGraph(graph, dualWinArch(), options);
    ASSERT_TRUE(schedule.isOk());
    for (const Segment &segment : schedule.value().segments)
        EXPECT_FALSE(segment.resident);
}

// The pinned improvement of ISSUE acceptance: on this workload x arch
// pair the tuner's global best enables dual-mode and strictly beats
// every candidate that leaves it off. If the cost model changes and
// this stops holding, re-run the arch-shape sweep and re-pin.
TEST(DualModeTest, TunerSelectsDualAndStrictlyBeatsNonDual)
{
    const AutoTuner tuner(AutoTuneConfig{TuneObjective::kLatency, 1});
    auto result = tuner.tune(models::byName("lenet5"), dualWinArch());
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const TuneResult &r = result.value();

    EXPECT_TRUE(r.best().options.dual_mode);
    double best_without = std::numeric_limits<double>::infinity();
    for (const TuneCandidate &candidate : r.candidates) {
        if (candidate.status.isOk() && !candidate.options.dual_mode)
            best_without =
                std::min(best_without, candidate.latency_cycles);
    }
    EXPECT_LT(r.best().latency_cycles, best_without)
        << "dual-mode must strictly improve over the whole knob-off "
           "lattice, not just the default";
}

TEST(DualModeTest, CodegenMovesResidentWritesToInit)
{
    const Graph graph = models::byName("lenet5");
    const CimArchitecture arch = dualWinArch();

    auto dual = scheduleGraph(graph, arch, dualOptions());
    ScheduleOptions off = dualOptions();
    off.dual_mode = false;
    auto plain = scheduleGraph(graph, arch, off);
    ASSERT_TRUE(dual.isOk() && plain.isOk());

    CodegenOptions codegen;
    codegen.unroll = false; // shape-only flow; no weights installed
    auto dual_prog = generateProgram(graph, arch, dual.value(), codegen);
    ASSERT_TRUE(dual_prog.isOk()) << dual_prog.status().toString();
    const MopProgram &program = dual_prog.value().program;

    // Segment 0 and resident segments program once at init; every
    // other segment's crossbars are reprogrammed in the compute flow.
    const Schedule &ds = dual.value();
    std::int64_t expected_init = 0;
    std::int64_t expected_compute = 0;
    for (const OperatorMapping &op : ds.ops) {
        if (!op.is_cim)
            continue;
        const bool at_init =
            op.segment == 0 ||
            ds.segments[static_cast<std::size_t>(op.segment)].resident;
        (at_init ? expected_init : expected_compute) +=
            op.totalCrossbars();
    }
    EXPECT_GT(expected_init, 0);
    EXPECT_GT(expected_compute, 0)
        << "non-resident segments should still reprogram";
    EXPECT_EQ(static_cast<std::int64_t>(program.init().size()),
              expected_init);
    EXPECT_EQ(program.counts().cim_writes,
              expected_init + expected_compute);

    // The knob-off program on the same architecture front-loads only
    // segment 0 (plain.value() exists to pin that contrast).
    ASSERT_TRUE(plain.isOk());
    for (const Segment &segment : plain.value().segments)
        EXPECT_FALSE(segment.resident);
}

// ----- hybrid host offload ------------------------------------------------

TEST(HostOffloadTest, WeakAluChipOffloadsWinningRegions)
{
    const Graph graph = models::byName("lenet5");
    ScheduleOptions options = ScheduleOptions::full();
    options.host_offload = true;
    auto schedule = scheduleGraph(graph, weakAluArch(), options);
    ASSERT_TRUE(schedule.isOk()) << schedule.status().toString();
    const Schedule &s = schedule.value();

    ASSERT_FALSE(s.host_regions.empty());
    for (const HostRegion &region : s.host_regions) {
        EXPECT_FALSE(region.nodes.empty());
        // The scheduler only moves a region when the host total
        // (launch + transfer + compute) strictly beats the chip ALU.
        EXPECT_LT(region.host_cycles, region.chip_cycles);
        EXPECT_GT(region.transfer_bits, 0.0);
        for (NodeId node : region.nodes) {
            const OperatorMapping &mapping = s.mapping(node);
            EXPECT_TRUE(mapping.on_host);
            EXPECT_FALSE(mapping.is_cim)
                << "only digital nodes may leave the crossbars";
        }
    }
    // Nodes outside every region stay on chip.
    std::size_t flagged = 0;
    for (const OperatorMapping &mapping : s.ops)
        flagged += mapping.on_host ? 1 : 0;
    std::size_t in_regions = 0;
    for (const HostRegion &region : s.host_regions)
        in_regions += region.nodes.size();
    EXPECT_EQ(flagged, in_regions);
}

TEST(HostOffloadTest, TunerSelectsHostOffloadAndStrictlyBeatsChipOnly)
{
    const AutoTuner tuner(AutoTuneConfig{TuneObjective::kLatency, 1});
    auto result = tuner.tune(models::byName("lenet5"), weakAluArch());
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const TuneResult &r = result.value();

    EXPECT_TRUE(r.best().options.host_offload);
    double best_without = std::numeric_limits<double>::infinity();
    for (const TuneCandidate &candidate : r.candidates) {
        if (candidate.status.isOk() && !candidate.options.host_offload)
            best_without =
                std::min(best_without, candidate.latency_cycles);
    }
    EXPECT_LT(r.best().latency_cycles, best_without);
}

TEST(HostOffloadTest, HostOpsRoundTripThroughText)
{
    const Graph graph = models::byName("lenet5");
    const CimArchitecture arch = weakAluArch();
    ScheduleOptions options = ScheduleOptions::full();
    options.host_offload = true;
    auto schedule = scheduleGraph(graph, arch, options);
    ASSERT_TRUE(schedule.isOk());
    CodegenOptions codegen;
    codegen.unroll = false; // shape-only flow; no weights installed
    auto result = generateProgram(graph, arch, schedule.value(), codegen);
    ASSERT_TRUE(result.isOk()) << result.status().toString();

    std::size_t host_ops = 0;
    result.value().program.forEachOp([&](const MetaOp &op) {
        if (!op.host)
            return;
        ++host_ops;
        auto parsed = parseOpLine(op.toString());
        ASSERT_TRUE(parsed.isOk())
            << op.toString() << ": " << parsed.status().toString();
        EXPECT_TRUE(parsed.value().host)
            << "host marker lost in round-trip: " << op.toString();
    });
    EXPECT_GT(host_ops, 0u);
}

// ----- cache keys never alias the new knobs ------------------------------

TEST(FingerprintTest, DualAndHostBitsNeverAliasInTuneCache)
{
    const Graph graph = models::byName("lenet5");
    const CimArchitecture arch = dualWinArch();

    ScheduleOptions base = ScheduleOptions::full();
    ScheduleOptions dual = base;
    dual.dual_mode = true;
    ScheduleOptions host = base;
    host.host_offload = true;

    const std::string digest = evaluationDigest(graph, arch);
    const std::string fp_base =
        evaluationKey(digest, AutoTuner::encodeOptions(base));
    const std::string fp_dual =
        evaluationKey(digest, AutoTuner::encodeOptions(dual));
    const std::string fp_host =
        evaluationKey(digest, AutoTuner::encodeOptions(host));
    EXPECT_NE(fp_base, fp_dual);
    EXPECT_NE(fp_base, fp_host);
    EXPECT_NE(fp_dual, fp_host);

    // Another host model changes the key of host-offload evaluations
    // only: two compiles that price regions differently can never
    // alias in a shared (or persisted) cache.
    HostModel slow;
    slow.alu_ops_per_cycle = 8.0;
    EXPECT_NE(
        evaluationKey(digest, AutoTuner::encodeOptions(host), {}, slow),
        fp_host);
    EXPECT_EQ(
        evaluationKey(digest, AutoTuner::encodeOptions(base), {}, slow),
        fp_base);
}

TEST(FingerprintTest, WarmArtifactCacheMissesAcrossKnobChanges)
{
    ArtifactCache cache(64);
    auto makeRequest = [&cache](bool dual, bool host) {
        CompileRequest request;
        request.model = "lenet5";
        request.arch = "jain";
        request.threads = 1;
        ScheduleOptions options = ScheduleOptions::full();
        options.dual_mode = dual;
        options.host_offload = host;
        request.options = options;
        request.artifact_cache = &cache;
        return request;
    };

    auto cold = CompilerSession(makeRequest(false, false)).run();
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    EXPECT_EQ(CompilerSession::cachedStageCount(cold.value()), 0u);

    // Identical request: the warm cache replays stages (sanity check
    // that the cache is live at all).
    auto warm = CompilerSession(makeRequest(false, false)).run();
    ASSERT_TRUE(warm.isOk());
    EXPECT_GT(CompilerSession::cachedStageCount(warm.value()), 0u);

    // Same model, same arch, same everything — except one knob. Even
    // when the knob happens not to change the schedule on this preset,
    // the fingerprints must not alias: every knob-dependent stage
    // (schedule and everything downstream of it) misses. The load
    // stage may still replay — the resolved graph and arch genuinely
    // do not depend on the knobs.
    auto knobDependentCached = [](const CompileArtifacts &artifacts) {
        std::size_t cached = 0;
        for (const StageTrace &trace : artifacts.stages) {
            if (trace.cached && trace.stage >= CompileStage::kTune)
                ++cached;
        }
        return cached;
    };
    auto dual = CompilerSession(makeRequest(true, false)).run();
    ASSERT_TRUE(dual.isOk());
    EXPECT_EQ(knobDependentCached(dual.value()), 0u);

    auto host = CompilerSession(makeRequest(false, true)).run();
    ASSERT_TRUE(host.isOk());
    EXPECT_EQ(knobDependentCached(host.value()), 0u);
}

// ----- determinism with the knobs on -------------------------------------

TEST(DeterminismTest, KnobbedBatchIsByteIdenticalAcrossThreads)
{
    std::vector<BatchJob> jobs;
    for (const char *model : {"lenet5", "mlp", "macro_cnn"})
        for (const char *arch : {"jain", "puma"})
            jobs.push_back(BatchJob{model, arch});

    BatchSweep sweep;
    sweep.jobs = jobs;
    sweep.knobs.dual_mode = true;
    sweep.knobs.host_offload = true;

    std::string reference;
    for (int threads : {1, 2, 8}) {
        sweep.threads = threads;
        auto result = runSweep(sweep);
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        if (reference.empty())
            reference = result.value().table();
        else
            EXPECT_EQ(result.value().table(), reference)
                << "threads=" << threads;
    }
}

} // namespace
} // namespace cimmlc
