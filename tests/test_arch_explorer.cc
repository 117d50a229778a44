/**
 * @file
 * Tests for the architecture DSE explorer: sweep-spec parsing (explicit
 * lists, log2 ranges, error paths), the arch mutation helpers, Pareto
 * dominance properties (non-front points dominated, front mutually
 * non-dominating, order/thread-count invariance), and the pinned
 * regression that the jain-class cheap-write crossbar lands on the
 * lenet5 front.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/presets.h"
#include "arch/serialize.h"
#include "common/strutil.h"
#include "dse/arch_explorer.h"
#include "sched/autotune.h"

namespace cimmlc {
namespace {

// ----- sweep-spec parsing ------------------------------------------------

StatusOr<ArchSweepSpec>
sweepFromJson(const std::string &text)
{
    auto doc = parseConfig(text);
    if (!doc.isOk())
        return doc.status();
    return sweepSpecFromConfig(doc.value());
}

TEST(SweepSpecTest, ParsesExplicitListsInCanonicalOrder)
{
    // kvjson objects iterate alphabetically (core_grid before xb_size);
    // the parsed axes must come back in canonical ArchParam order.
    auto spec = sweepFromJson(R"({
        "core_grid": [[2, 2], 4],
        "xb_size": [[256, 64], [128, 128]],
        "core_noc": ["mesh", "htree"]
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    const ArchSweepSpec &sweep = spec.value();
    ASSERT_EQ(sweep.axes.size(), 3u);
    EXPECT_EQ(sweep.axes[0].param, ArchParam::kXbSize);
    EXPECT_EQ(sweep.axes[1].param, ArchParam::kCoreGrid);
    EXPECT_EQ(sweep.axes[2].param, ArchParam::kCoreNoc);
    EXPECT_EQ(sweep.candidateCount(), 2u * 2u * 2u);
    // Scalar grid shorthand expands to a square.
    EXPECT_EQ(sweep.axes[1].values[1].rows, 4);
    EXPECT_EQ(sweep.axes[1].values[1].cols, 4);
    // NoC names are canonicalized at parse time.
    EXPECT_EQ(sweep.axes[2].values[0].name,
              nocTypeName(NocType::kMesh));
}

TEST(SweepSpecTest, ExpandsLog2Ranges)
{
    auto spec = sweepFromJson(R"({
        "core_grid": {"log2": [1, 8]},
        "l1_bandwidth": {"log2": [64, 256]}
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    const ArchAxis &grid = spec.value().axes[0];
    ASSERT_EQ(grid.values.size(), 4u); // 1, 2, 4, 8 -> square grids
    EXPECT_EQ(grid.values[3].rows, 8);
    EXPECT_EQ(grid.values[3].cols, 8);
    const ArchAxis &bandwidth = spec.value().axes[1];
    ASSERT_EQ(bandwidth.values.size(), 3u); // 64, 128, 256
    EXPECT_DOUBLE_EQ(bandwidth.values[2].number, 256.0);

    // Bounds near the top of int64 end the doubling without overflow.
    for (const char *hi : {"4611686018427387904", "9223372036854774784"}) {
        auto wide = sweepFromJson(
            strformat(R"({"core_grid": {"log2": [1, %s]}})", hi));
        ASSERT_TRUE(wide.isOk()) << hi << ": " << wide.status().toString();
        ASSERT_EQ(wide.value().axes[0].values.size(), 63u); // 2^0 .. 2^62
        EXPECT_EQ(wide.value().axes[0].values[62].rows,
                  std::int64_t{1} << 62);
    }
}

TEST(SweepSpecTest, RejectsMalformedAxes)
{
    // Unknown parameter name.
    EXPECT_FALSE(sweepFromJson(R"({"adc_precision": [6, 8]})").isOk());
    // Empty value list.
    EXPECT_FALSE(sweepFromJson(R"({"xb_size": []})").isOk());
    // Non-positive grid dimension.
    EXPECT_FALSE(sweepFromJson(R"({"xb_size": [[0, 64]]})").isOk());
    // Grid entry of the wrong shape.
    EXPECT_FALSE(sweepFromJson(R"({"xb_size": [[1, 2, 3]]})").isOk());
    // Negative bandwidth.
    EXPECT_FALSE(sweepFromJson(R"({"l0_bandwidth": [-1]})").isOk());
    // Unknown NoC name.
    EXPECT_FALSE(sweepFromJson(R"({"core_noc": ["torus"]})").isOk());
    // log2 range on an enumeration axis.
    EXPECT_FALSE(sweepFromJson(R"({"core_noc": {"log2": [1, 4]}})").isOk());
    // log2 bounds out of order / non-positive.
    EXPECT_FALSE(sweepFromJson(R"({"xb_size": {"log2": [8, 4]}})").isOk());
    EXPECT_FALSE(sweepFromJson(R"({"xb_size": {"log2": [0, 4]}})").isOk());
    // Axis that is neither a list nor a log2 range.
    EXPECT_FALSE(sweepFromJson(R"({"xb_size": "128x128"})").isOk());
    // Fractional values must be rejected, not truncated.
    EXPECT_FALSE(sweepFromJson(R"({"core_grid": [2.5]})").isOk());
    EXPECT_FALSE(sweepFromJson(R"({"xb_size": [[2.5, 64]]})").isOk());
    EXPECT_FALSE(
        sweepFromJson(R"({"xb_size": {"log2": [1.9, 4]}})").isOk());
    // A log2 bound past int64 is rejected, not cast.
    EXPECT_FALSE(sweepFromJson(
                     R"({"l1_bandwidth":
                         {"log2": [1, 9223372036854775808]}})")
                     .isOk());
    // Bit-width axes take positive integers, not fractions or zeros.
    EXPECT_FALSE(sweepFromJson(R"({"adc_bits": [6.5]})").isOk());
    EXPECT_FALSE(sweepFromJson(R"({"dac_bits": [0]})").isOk());
    EXPECT_FALSE(sweepFromJson(R"({"cell_bits": [-2]})").isOk());
    // Unknown cell-type name; ranges on a name axis.
    EXPECT_FALSE(sweepFromJson(R"({"cell_type": ["FeFET"]})").isOk());
    EXPECT_FALSE(
        sweepFromJson(R"({"cell_type": {"log2": [1, 4]}})").isOk());
}

// A bit width past int used to narrow in applyArchParam: 4294967297
// became a 1-bit DAC, and the duplicate point counted as a cache hit.
TEST(SweepSpecTest, BitWidthAxesMustFitInt)
{
    for (const char *axis :
         {R"({"dac_bits": [4294967297]})", R"({"adc_bits": [2147483648]})",
          R"({"cell_bits": {"log2": [1, 4294967296]}})"}) {
        auto spec = sweepFromJson(axis);
        ASSERT_FALSE(spec.isOk()) << axis;
        EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
        EXPECT_NE(spec.status().message().find("must be an integer in int "
                                               "range"),
                  std::string::npos)
            << spec.status().toString();
    }
    EXPECT_EQ(sweepFromJson(R"({"dac_bits": [4294967297]})")
                  .status()
                  .message(),
              "DSE sweep key 'dac_bits' must be an integer in int range");
    auto widest = sweepFromJson(R"({"dac_bits": [2147483647]})");
    ASSERT_TRUE(widest.isOk()) << widest.status().toString();
    CimArchitecture arch = presets::byName("jain").value();
    ASSERT_TRUE(applyArchParam(&arch, ArchParam::kDacBits,
                               widest.value().axes[0].values[0])
                    .isOk());
    EXPECT_EQ(arch.xbar.dac_bits, 2147483647);
    // A range object takes only its log2 key.
    EXPECT_EQ(sweepFromJson(R"({"core_grid": {"log2": [1, 4], "step": 2}})")
                  .status()
                  .message(),
              "DSE sweep range 'core_grid' has unknown key 'step'");
}

// Grid axes take int64 values up to the largest double below 2^63; a
// candidate whose cell count then overflows fails validate() instead of
// wrapping.
TEST(SweepSpecTest, GridAxesReadToTheEdgesOfInt64)
{
    for (const char *axis : {"xb_size", "xb_grid", "core_grid"}) {
        for (const char *value :
             {"4611686018427387904", "9223372036854774784", "2147483647",
              "2147483648"}) {
            const std::string text =
                strformat(R"({"%s": [%s, [%s, 1]]})", axis, value, value);
            auto spec = sweepFromJson(text);
            ASSERT_TRUE(spec.isOk()) << text << ": "
                                     << spec.status().toString();
            for (const ArchParamValue &point : spec.value().axes[0].values) {
                CimArchitecture arch = presets::byName("jain").value();
                ASSERT_TRUE(applyArchParam(&arch, spec.value().axes[0].param,
                                           point)
                                .isOk());
                const Status valid = arch.validate();
                EXPECT_TRUE(valid.isOk() || !valid.message().empty());
            }
        }
        EXPECT_FALSE(
            sweepFromJson(strformat(R"({"%s": [9223372036854775808]})", axis))
                .isOk());
    }
    auto square = sweepFromJson(R"({"core_grid": [4611686018427387904]})");
    ASSERT_TRUE(square.isOk());
    CimArchitecture arch = presets::byName("jain").value();
    ASSERT_TRUE(applyArchParam(&arch, ArchParam::kCoreGrid,
                               square.value().axes[0].values[0])
                    .isOk());
    EXPECT_NE(arch.validate().message().find("overflows int64"),
              std::string::npos);
}

TEST(SweepSpecTest, ParsesConverterAndCellAxes)
{
    auto spec = sweepFromJson(R"({
        "adc_bits": {"log2": [4, 8]},
        "dac_bits": [1, 2],
        "cell_type": ["SRAM", "ReRAM"],
        "cell_bits": [1, 2, 4]
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    const ArchSweepSpec &sweep = spec.value();
    ASSERT_EQ(sweep.axes.size(), 4u);
    EXPECT_EQ(sweep.axes[0].param, ArchParam::kDacBits);
    EXPECT_EQ(sweep.axes[1].param, ArchParam::kAdcBits);
    EXPECT_EQ(sweep.axes[2].param, ArchParam::kCellType);
    EXPECT_EQ(sweep.axes[3].param, ArchParam::kCellBits);
    EXPECT_EQ(sweep.candidateCount(), 2u * 2u * 2u * 3u);
    ASSERT_EQ(sweep.axes[1].values.size(), 2u); // 4, 8
    EXPECT_EQ(sweep.axes[1].values[1].rows, 8);
    EXPECT_EQ(archParamValueToString(ArchParam::kAdcBits,
                                     sweep.axes[1].values[1]),
              "8");
    // Cell-type names canonicalize through the device vocabulary.
    EXPECT_EQ(sweep.axes[2].values[1].name,
              cellTypeName(CellType::kReram));

    CimArchitecture arch = presets::jiaIsscc21();
    EXPECT_TRUE(applyArchParam(&arch, ArchParam::kAdcBits,
                               sweep.axes[1].values[1])
                    .isOk());
    EXPECT_EQ(arch.xbar.adc_bits, 8);
    EXPECT_TRUE(applyArchParam(&arch, ArchParam::kCellType,
                               sweep.axes[2].values[1])
                    .isOk());
    EXPECT_EQ(arch.xbar.cell_type, CellType::kReram);
    EXPECT_TRUE(applyArchParam(&arch, ArchParam::kCellBits,
                               sweep.axes[3].values[2])
                    .isOk());
    EXPECT_EQ(arch.xbar.cell_bits, 4);
    EXPECT_TRUE(arch.validate().isOk());
}

// ----- mutation helpers --------------------------------------------------

TEST(ApplyArchParamTest, XbSizeClampsParallelRow)
{
    CimArchitecture arch = presets::jainJssc21(); // 256 rows, 32 parallel
    ArchParamValue value;
    value.rows = 16;
    value.cols = 64;
    ASSERT_TRUE(
        applyArchParam(&arch, ArchParam::kXbSize, value).isOk());
    EXPECT_EQ(arch.xbar.rows, 16);
    EXPECT_EQ(arch.xbar.cols, 64);
    EXPECT_EQ(arch.xbar.parallel_row, 16);
    EXPECT_TRUE(arch.validate().isOk()) << arch.validate().toString();
}

TEST(ApplyArchParamTest, CoreGridDropsStaleNocCostMatrix)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kWLM);
    const std::size_t cores =
        static_cast<std::size_t>(arch.chip.coreNumber());
    arch.chip.core_noc_cost.assign(cores * cores, 1.0);
    ASSERT_TRUE(arch.validate().isOk());

    ArchParamValue value;
    value.rows = 4;
    value.cols = 4;
    ASSERT_TRUE(
        applyArchParam(&arch, ArchParam::kCoreGrid, value).isOk());
    EXPECT_EQ(arch.chip.coreNumber(), 16);
    // The matrix was sized for the old grid; keeping it would fail
    // validation (or worse, silently misprice hops).
    EXPECT_TRUE(arch.chip.core_noc_cost.empty());
    EXPECT_TRUE(arch.validate().isOk()) << arch.validate().toString();
}

TEST(ApplyArchParamTest, CoreNocBandwidthDropsOverridingCostMatrix)
{
    // NocModel lets an explicit cost matrix fully override the
    // bandwidth parameter; sweeping core_noc_bandwidth over such a base
    // design would otherwise be a silent no-op axis.
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kWLM);
    const std::size_t cores =
        static_cast<std::size_t>(arch.chip.coreNumber());
    arch.chip.core_noc_cost.assign(cores * cores, 1.0);

    ArchParamValue value;
    value.number = 64.0;
    ASSERT_TRUE(
        applyArchParam(&arch, ArchParam::kCoreNocBandwidth, value)
            .isOk());
    EXPECT_DOUBLE_EQ(arch.chip.core_noc_bandwidth, 64.0);
    EXPECT_TRUE(arch.chip.core_noc_cost.empty());
}

TEST(ApplyArchParamTest, ComputeModeAndBandwidthApply)
{
    CimArchitecture arch = presets::puma();
    ArchParamValue mode;
    mode.name = "WLM";
    ASSERT_TRUE(
        applyArchParam(&arch, ArchParam::kComputeMode, mode).isOk());
    EXPECT_EQ(arch.mode, ComputeMode::kWLM);

    ArchParamValue bandwidth;
    bandwidth.number = 512.0;
    ASSERT_TRUE(
        applyArchParam(&arch, ArchParam::kL0Bandwidth, bandwidth).isOk());
    EXPECT_DOUBLE_EQ(arch.chip.l0_bandwidth, 512.0);
}

// ----- Pareto dominance properties ---------------------------------------

DseCandidate
point(std::size_t index, double latency, double energy, bool ok = true)
{
    DseCandidate candidate;
    candidate.index = index;
    candidate.latency_cycles = latency;
    candidate.energy_pj = energy;
    candidate.edp = latency * energy;
    if (!ok)
        candidate.status = resourceExhausted("infeasible");
    return candidate;
}

bool
dominatesPair(const DseCandidate &a, const DseCandidate &b)
{
    return a.latency_cycles <= b.latency_cycles
           && a.energy_pj <= b.energy_pj
           && (a.latency_cycles < b.latency_cycles
               || a.energy_pj < b.energy_pj);
}

std::vector<DseCandidate>
randomPoints(std::size_t count, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> metric(1, 20);
    std::vector<DseCandidate> candidates;
    for (std::size_t i = 0; i < count; ++i) {
        candidates.push_back(point(i, 100.0 * metric(rng),
                                   1000.0 * metric(rng),
                                   /*ok=*/i % 7 != 3));
    }
    return candidates;
}

TEST(ParetoFrontTest, EveryNonFrontPointIsDominatedByAFrontPoint)
{
    const std::vector<DseCandidate> candidates = randomPoints(40, 1234);
    const std::vector<std::size_t> front =
        paretoFrontIndices(candidates);
    ASSERT_FALSE(front.empty());
    const std::set<std::size_t> members(front.begin(), front.end());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!candidates[i].status.isOk() || members.count(i))
            continue;
        bool dominated = false;
        for (std::size_t f : front)
            dominated = dominated
                        || dominatesPair(candidates[f], candidates[i]);
        EXPECT_TRUE(dominated) << "non-front point " << i
                               << " is not dominated by the front";
    }
}

TEST(ParetoFrontTest, NoFrontPointDominatesAnother)
{
    const std::vector<DseCandidate> candidates = randomPoints(40, 99);
    const std::vector<std::size_t> front =
        paretoFrontIndices(candidates);
    for (std::size_t a : front)
        for (std::size_t b : front)
            if (a != b)
                EXPECT_FALSE(dominatesPair(candidates[a], candidates[b]))
                    << a << " dominates " << b;
}

TEST(ParetoFrontTest, FrontIsInvariantUnderCandidateOrderShuffling)
{
    std::vector<DseCandidate> candidates = randomPoints(32, 7);
    auto frontMetrics = [](const std::vector<DseCandidate> &points) {
        std::multiset<std::pair<double, double>> metrics;
        for (std::size_t index : paretoFrontIndices(points))
            metrics.emplace(points[index].latency_cycles,
                            points[index].energy_pj);
        return metrics;
    };
    const auto reference = frontMetrics(candidates);
    std::mt19937 rng(2026);
    for (int round = 0; round < 5; ++round) {
        std::shuffle(candidates.begin(), candidates.end(), rng);
        for (std::size_t i = 0; i < candidates.size(); ++i)
            candidates[i].index = i; // identity follows position
        EXPECT_EQ(frontMetrics(candidates), reference)
            << "front changed after shuffle round " << round;
    }
}

TEST(ParetoFrontTest, InfeasiblePointsNeverJoinTheFront)
{
    // The infeasible point would dominate everything if admitted.
    std::vector<DseCandidate> candidates;
    candidates.push_back(point(0, 1.0, 1.0, /*ok=*/false));
    candidates.push_back(point(1, 10.0, 20.0));
    candidates.push_back(point(2, 20.0, 10.0));
    const std::vector<std::size_t> front =
        paretoFrontIndices(candidates);
    EXPECT_EQ(front, (std::vector<std::size_t>{1, 2}));
}

TEST(ParetoFrontTest, DuplicateMetricPointsAreBothKept)
{
    std::vector<DseCandidate> candidates;
    candidates.push_back(point(0, 10.0, 10.0));
    candidates.push_back(point(1, 10.0, 10.0));
    candidates.push_back(point(2, 30.0, 30.0));
    const std::vector<std::size_t> front =
        paretoFrontIndices(candidates);
    EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

// ----- DSE spec parsing --------------------------------------------------

TEST(DseSpecTest, ResolvesPresetBaseArch)
{
    auto spec = dseSpecFromText(R"({
        "model": "lenet5",
        "arch": "jain",
        "sweep": {"xb_size": [[256, 64]]}
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    EXPECT_EQ(spec.value().base_arch.name, "jain-jssc21");
    EXPECT_FALSE(spec.value().knobs.tune);
    EXPECT_EQ(spec.value().knobs.objective, "latency");
}

TEST(DseSpecTest, RejectsBadSpecs)
{
    // No workload.
    EXPECT_FALSE(dseSpecFromText(
                     R"({"sweep": {"xb_size": [[256, 64]]}})")
                     .isOk());
    // Conflicting workload sources.
    EXPECT_FALSE(dseSpecFromText(R"({
        "model": "lenet5", "model_file": "net.json",
        "sweep": {"xb_size": [[256, 64]]}
    })")
                     .isOk());
    // Missing sweep.
    EXPECT_FALSE(dseSpecFromText(R"({"model": "lenet5"})").isOk());
    // Empty sweep.
    EXPECT_FALSE(
        dseSpecFromText(R"({"model": "lenet5", "sweep": {}})").isOk());
    // Unknown objective.
    EXPECT_FALSE(dseSpecFromText(R"({
        "model": "lenet5", "objective": "throughput",
        "sweep": {"xb_size": [[256, 64]]}
    })")
                     .isOk());
    // Unknown base preset.
    EXPECT_FALSE(dseSpecFromText(R"({
        "model": "lenet5", "arch": "no-such-chip",
        "sweep": {"xb_size": [[256, 64]]}
    })")
                     .isOk());
    // Negative thread budget.
    EXPECT_FALSE(dseSpecFromText(R"({
        "model": "lenet5", "threads": -1,
        "sweep": {"xb_size": [[256, 64]]}
    })")
                     .isOk());
}

/** The load error of a lenet5 spec with @p keys added ("" = OK). */
std::string
dseError(const std::string &keys,
         const char *workload = R"("model": "lenet5")")
{
    auto spec = dseSpecFromText(std::string("{") + workload
                                + R"(, "sweep": {"xb_size": [[256, 64]]}, )"
                                + keys + "}");
    return spec.isOk() ? "" : spec.status().message();
}

TEST(DseSpecTest, MistypedKeysNameTheKey)
{
    // Each knob used to load at its default when mistyped.
    const struct {
        const char *key;
        const char *value;
        const char *type;
    } cases[] = {
        {"opt", "3", "a string"},
        {"dual_mode", "1", "a bool"},
        {"host_offload", "\"yes\"", "a bool"},
        {"tune", "\"true\"", "a bool"},
        {"objective", "true", "a string"},
        {"lint", "1", "a bool"},
        {"lint_strict", "null", "a bool"},
        {"perf_engine", "[\"event\"]", "a string"},
        {"arch", "7", "a string"},
        {"arch_file", "false", "a string"},
        {"arch_text", "{}", "a string"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(dseError(strformat(R"("%s": %s)", c.key, c.value)),
                  strformat("DSE spec key '%s' must be %s", c.key, c.type));
    }
    for (const char *workload :
         {R"("model": 5)", R"("model_file": ["net.json"])",
          R"("model_text": {})"}) {
        EXPECT_NE(dseError(R"("threads": 1)", workload)
                      .find("' must be a string"),
                  std::string::npos)
            << workload;
    }
}

TEST(DseSpecTest, ThreadsMustBeAnInt)
{
    // Above the 1,024-thread ceiling is an error too; nothing starts a
    // pool here, the spec is only parsed.
    for (const char *value :
         {"\"2\"", "2.5", "2147483648", "true", "-1", "1025", "100000",
          "2147483647"}) {
        EXPECT_NE(dseError(strformat(R"("threads": %s)", value))
                      .find("threads"),
                  std::string::npos)
            << value;
    }
    EXPECT_EQ(dseError(R"("threads": 1025)"),
              "DSE spec 'threads' must be in [0, 1024]");
    EXPECT_EQ(dseError(R"("threads": 1024)"), "");
    EXPECT_EQ(dseError(R"("threads": 0)"), "");
}

TEST(DseSpecTest, UnknownKeysNameTheKey)
{
    EXPECT_EQ(dseError(R"("lnit": true)"),
              "DSE spec has unknown key 'lnit'");
    // Knobs a DSE spec does not read, and sweep-file keys, are unknown.
    for (const char *key : {"models", "archs", "search_budget", "verify"}) {
        EXPECT_EQ(dseError(strformat(R"("%s": 1)", key)),
                  strformat("DSE spec has unknown key '%s'", key));
    }
    EXPECT_EQ(dseError(R"("arch": "jain", "tune": "true", "lint": 1,
                          "opt": 3)"),
              "DSE spec key 'lint' must be a bool");
}

TEST(DseSpecTest, KnobKeysFillTheKnobRecord)
{
    auto spec = dseSpecFromText(R"({
        "model": "lenet5", "arch": "jain", "opt": "cg", "dual_mode": true,
        "host_offload": true, "tune": true, "objective": "energy",
        "lint_strict": true, "perf_engine": "event", "threads": 3,
        "sweep": {"xb_size": [[256, 64]]}
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    const RpcCompileRequest &knobs = spec.value().knobs;
    EXPECT_EQ(knobs.opt, "cg");
    EXPECT_TRUE(knobs.dual_mode);
    EXPECT_TRUE(knobs.host_offload);
    EXPECT_TRUE(knobs.tune);
    EXPECT_EQ(knobs.objective, "energy");
    EXPECT_TRUE(knobs.lint_strict);
    EXPECT_EQ(knobs.perf_engine, "event");
    EXPECT_EQ(spec.value().threads, 3);
    const ScheduleOptions options = knobs.scheduleOptions().value();
    EXPECT_FALSE(options.mvm_pipeline);
    EXPECT_TRUE(options.dual_mode);
    EXPECT_TRUE(options.host_offload);
}

// ----- end-to-end exploration --------------------------------------------

DseSpec
toySpec(int threads)
{
    auto spec = dseSpecFromText(R"({
        "model": "conv_relu_toy",
        "arch": "tutorial",
        "sweep": {
            "xb_size": [[32, 128], [64, 128]],
            "core_grid": [[2, 1], [2, 2]]
        }
    })");
    EXPECT_TRUE(spec.isOk()) << spec.status().toString();
    DseSpec result = spec.value();
    result.threads = threads;
    return result;
}

TEST(ArchExplorerTest, EnumerationIsRowMajorAndLabelled)
{
    const ArchExplorer explorer(toySpec(1));
    const std::vector<DseCandidate> candidates = explorer.enumerate();
    ASSERT_EQ(candidates.size(), 4u);
    EXPECT_EQ(candidates[0].label, "xb_size=32x128 core_grid=2x1");
    EXPECT_EQ(candidates[1].label, "xb_size=32x128 core_grid=2x2");
    EXPECT_EQ(candidates[2].label, "xb_size=64x128 core_grid=2x1");
    EXPECT_EQ(candidates[3].label, "xb_size=64x128 core_grid=2x2");
    for (std::size_t i = 0; i < candidates.size(); ++i)
        EXPECT_EQ(candidates[i].index, i);
}

TEST(ArchExplorerTest, FrontPropertiesHoldOnRealEvaluations)
{
    const ArchExplorer explorer(toySpec(1));
    auto result = explorer.explore();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const DseResult &r = result.value();
    ASSERT_FALSE(r.front.empty());
    const std::set<std::size_t> members(r.front.begin(), r.front.end());
    for (const DseCandidate &candidate : r.candidates) {
        if (!candidate.status.isOk()) {
            EXPECT_FALSE(candidate.on_front);
            continue;
        }
        if (members.count(candidate.index)) {
            EXPECT_TRUE(candidate.on_front);
            continue;
        }
        bool dominated = false;
        for (std::size_t f : r.front)
            dominated = dominated
                        || dominatesPair(r.candidates[f], candidate);
        EXPECT_TRUE(dominated) << candidate.label;
    }
    for (std::size_t a : r.front)
        for (std::size_t b : r.front)
            if (a != b)
                EXPECT_FALSE(
                    dominatesPair(r.candidates[a], r.candidates[b]));
}

TEST(ArchExplorerTest, SerialAndParallelRunsAreByteIdentical)
{
    auto serial = ArchExplorer(toySpec(1)).explore();
    auto parallel = ArchExplorer(toySpec(4)).explore();
    ASSERT_TRUE(serial.isOk()) << serial.status().toString();
    ASSERT_TRUE(parallel.isOk()) << parallel.status().toString();
    EXPECT_EQ(serial.value().front, parallel.value().front);
    EXPECT_EQ(serial.value().table(), parallel.value().table());
    EXPECT_EQ(serial.value().summary(), parallel.value().summary());
    EXPECT_EQ(serial.value().toConfig().dump(true),
              parallel.value().toConfig().dump(true));
}

TEST(ArchExplorerTest, SharedCacheWarmsTheSecondRun)
{
    TuneCache cache;
    const ArchExplorer explorer(toySpec(1));
    auto cold = explorer.explore(&cache);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    EXPECT_EQ(cold.value().cache_hits, 0);

    auto warm = explorer.explore(&cache);
    ASSERT_TRUE(warm.isOk());
    EXPECT_EQ(warm.value().cache_hits,
              static_cast<std::int64_t>(warm.value().candidates.size()));
    // Cached values are bit-identical to fresh ones.
    EXPECT_EQ(cold.value().table(), warm.value().table());
}

TEST(ArchExplorerTest, DuplicateSweepPointsHitDeterministically)
{
    // The scalar grid shorthand can alias an explicit pair; duplicates
    // must be served from the first occurrence's evaluation with a hit
    // count that does not depend on thread timing.
    const char *spec_text = R"({
        "model": "conv_relu_toy",
        "arch": "tutorial",
        "sweep": {"core_grid": [[2, 2], 2, [4, 4]]}
    })";
    auto run = [&](int threads) {
        auto spec = dseSpecFromText(spec_text);
        EXPECT_TRUE(spec.isOk()) << spec.status().toString();
        spec.value().threads = threads;
        TuneCache cache;
        return ArchExplorer(spec.value()).explore(&cache);
    };
    auto serial = run(1);
    auto parallel = run(4);
    ASSERT_TRUE(serial.isOk()) << serial.status().toString();
    ASSERT_TRUE(parallel.isOk()) << parallel.status().toString();
    // [2,2] and the scalar 2 are the same candidate: one duplicate hit.
    EXPECT_EQ(serial.value().cache_hits, 1);
    EXPECT_EQ(parallel.value().cache_hits, 1);
    EXPECT_EQ(serial.value().candidates[0].latency_cycles,
              serial.value().candidates[1].latency_cycles);
    EXPECT_EQ(serial.value().toConfig().dump(true),
              parallel.value().toConfig().dump(true));
}

TEST(ArchExplorerTest, InfeasibleGeometryIsReportedPerCandidate)
{
    // tutorial stores 8-bit weights in 2-bit cells -> 4 cells per
    // weight; a 4x2 crossbar cannot hold even one weight, so that
    // candidate must fail validation while the sweep still succeeds.
    auto spec = dseSpecFromText(R"({
        "model": "conv_relu_toy",
        "arch": "tutorial",
        "sweep": {"xb_size": [[32, 128], [4, 2]]}
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    spec.value().threads = 1;
    auto result = ArchExplorer(spec.value()).explore();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const DseResult &r = result.value();
    ASSERT_EQ(r.candidates.size(), 2u);
    EXPECT_TRUE(r.candidates[0].status.isOk());
    EXPECT_FALSE(r.candidates[1].status.isOk());
    EXPECT_FALSE(r.candidates[1].on_front);
    EXPECT_EQ(r.feasibleCount(), 1);
    EXPECT_EQ(r.front, (std::vector<std::size_t>{0}));
    // The failure is visible in the report.
    EXPECT_NE(r.table().find("weight"), std::string::npos);
}

TEST(ArchExplorerTest, AllCandidatesInfeasibleFailsWithContext)
{
    auto spec = dseSpecFromText(R"({
        "model": "conv_relu_toy",
        "arch": "tutorial",
        "sweep": {"xb_size": [[4, 2]]}
    })");
    ASSERT_TRUE(spec.isOk());
    spec.value().threads = 1;
    auto result = ArchExplorer(spec.value()).explore();
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.status().message().find("no feasible candidate"),
              std::string::npos);
}

TEST(ArchExplorerTest, TunedSweepReportsTunedConfigs)
{
    auto spec = dseSpecFromText(R"({
        "model": "conv_relu_toy",
        "arch": "tutorial",
        "tune": true,
        "objective": "edp",
        "sweep": {"xb_size": [[32, 128], [64, 128]]}
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    spec.value().threads = 1;
    auto result = ArchExplorer(spec.value()).explore();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    for (const DseCandidate &candidate : result.value().candidates) {
        ASSERT_TRUE(candidate.status.isOk());
        EXPECT_TRUE(candidate.tuned);
        EXPECT_FALSE(candidate.config.empty());
    }
    EXPECT_NE(result.value().table().find("tuned: "), std::string::npos);
}

// ----- report schema -----------------------------------------------------

// On the lint-fault arch every emitted flow has mopcheck errors, so
// linting decides feasibility, while the objective ranks untuned runs
// and the halving proxies stay closed-form, untuned and unlinted.
TEST(ArchExplorerTest, LintGatesCandidatesButNotTheProxies)
{
    const std::string arch_file =
        std::string(CIMMLC_SOURCE_DIR) + "/examples/lint_fault_arch.json";
    const auto spec_with = [&arch_file](const std::string &keys) {
        auto spec = dseSpecFromText(
            R"({"model": "mlp", "arch_file": ")" + arch_file
            + R"(", "threads": 1, "objective": "energy", )" + keys
            + R"("sweep": {"xb_size": [[32, 128], [64, 128]],
                           "core_grid": [[2, 1], [4, 1]]}})");
        EXPECT_TRUE(spec.isOk()) << spec.status().toString();
        return spec.value();
    };

    auto plain = ArchExplorer(spec_with("")).explore();
    ASSERT_TRUE(plain.isOk()) << plain.status().toString();
    EXPECT_EQ(plain.value().feasibleCount(), 4);
    EXPECT_FALSE(plain.value().tuned);
    EXPECT_EQ(plain.value().objective, TuneObjective::kEnergy);
    const DseCandidate &best = plain.value().bestByObjective();
    for (std::size_t index : plain.value().front)
        EXPECT_LE(best.energy_pj,
                  plain.value().candidates[index].energy_pj);

    for (const char *lint :
         {R"("lint": true, )", R"("lint_strict": true, )"}) {
        auto linted = ArchExplorer(spec_with(lint)).explore();
        ASSERT_FALSE(linted.isOk()) << lint;
        EXPECT_NE(linted.status().message().find("no feasible candidate"),
                  std::string::npos)
            << linted.status().toString();

        // Budgeted: the proxies price cleanly, the full evaluations fail.
        TuneCache cache;
        EXPECT_FALSE(ArchExplorer(spec_with(std::string(lint)
                                            + R"("budget": 2, )"))
                         .explore(&cache)
                         .isOk());
        const ConfigValue entries = cache.toConfig().get("entries").value();
        int ok = 0;
        int failed = 0;
        for (const ConfigValue &entry : entries.asArray())
            ++(entry.getIntOr("code", -1) == 0 ? ok : failed);
        EXPECT_GT(ok, 0) << lint;
        EXPECT_EQ(failed, 2) << lint;
    }
}

// Halving proxies price the fixed options closed-form, untuned and
// unlinted, so the spec's tune, lint and engine knobs leave every proxy
// metric as it is.
TEST(ArchExplorerTest, ProxyRungsIgnoreTuneLintAndEngine)
{
    const auto explore_with = [](const std::string &keys) {
        auto spec = dseSpecFromText(
            R"({"model": "conv_relu_toy", "arch": "jain", "threads": 1,
                "budget": 2, )"
            + keys
            + R"("sweep": {"xb_size": [[256, 64], [128, 128]],
                           "core_grid": [[2, 2], [4, 4]]}})");
        EXPECT_TRUE(spec.isOk()) << spec.status().toString();
        auto result = ArchExplorer(spec.value()).explore();
        EXPECT_TRUE(result.isOk()) << keys << result.status().toString();
        return result.value();
    };
    const DseResult plain = explore_with("");
    ASSERT_EQ(plain.candidates.size(), 4u);
    for (const char *keys : {R"("tune": true, )", R"("lint": true, )",
                             R"("perf_engine": "event", )"}) {
        const DseResult other = explore_with(keys);
        ASSERT_EQ(other.candidates.size(), plain.candidates.size());
        for (std::size_t i = 0; i < plain.candidates.size(); ++i) {
            const DseCandidate &a = plain.candidates[i];
            const DseCandidate &b = other.candidates[i];
            ASSERT_TRUE(a.proxied && b.proxied) << keys << i;
            EXPECT_EQ(a.proxy_latency_cycles, b.proxy_latency_cycles)
                << keys << i;
            EXPECT_EQ(a.proxy_energy_pj, b.proxy_energy_pj) << keys << i;
        }
    }
}

TEST(DseReportTest, ConfigCarriesSchemaFrontAndEvaluatedSet)
{
    auto result = ArchExplorer(toySpec(1)).explore();
    ASSERT_TRUE(result.isOk());
    const ConfigValue doc = result.value().toConfig();
    EXPECT_EQ(doc.getStringOr("schema", ""), "cimmlc.dse.v1");
    ASSERT_TRUE(doc.get("evaluated").value().isArray());
    EXPECT_EQ(doc.get("evaluated").value().asArray().size(),
              result.value().candidates.size());
    ASSERT_TRUE(doc.get("front").value().isArray());
    EXPECT_EQ(doc.get("front").value().asArray().size(),
              result.value().front.size());
    // The dump must parse back through our own kvjson reader.
    auto reparsed = parseConfig(doc.dump(true));
    ASSERT_TRUE(reparsed.isOk()) << reparsed.status().toString();
    EXPECT_EQ(reparsed.value().getStringOr("schema", ""),
              "cimmlc.dse.v1");
}

// ----- pinned regression -------------------------------------------------

TEST(DseRegressionTest, JainClassCrossbarLandsOnTheLenet5Front)
{
    // The jain-jssc21 SRAM macro's 256x64 crossbar is the cheap-write
    // design of the paper's Figure 19; on lenet5 it is the lowest-
    // energy region of this sweep, so it must survive on the Pareto
    // front against the larger 128x128 and smaller 64x64 variants.
    // (Same sweep as examples/dse_lenet5.json.) If the cost model
    // changes and this stops holding, re-run the example and re-pin.
    auto spec = dseSpecFromText(R"({
        "model": "lenet5",
        "arch": "jain",
        "sweep": {
            "xb_size": [[256, 64], [128, 128], [64, 64]],
            "core_grid": {"log2": [1, 4]},
            "core_noc_bandwidth": [0, 128]
        }
    })");
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    spec.value().threads = 1;
    auto result = ArchExplorer(spec.value()).explore();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const DseResult &r = result.value();
    EXPECT_EQ(r.candidates.size(), 18u);
    bool jain_on_front = false;
    for (std::size_t index : r.front) {
        for (const auto &[param, value] : r.candidates[index].params)
            if (param == "xb_size" && value == "256x64")
                jain_on_front = true;
    }
    EXPECT_TRUE(jain_on_front)
        << "expected a 256x64 (jain-class) point on the front:\n"
        << r.table();
}

} // namespace
} // namespace cimmlc
