/**
 * @file
 * Tests for the hardware abstraction: tier parameters, validation,
 * presets (checked against the paper's Tables 2-3 and Figures 17-19),
 * NoC models, device profiles, and config serialization.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "arch/arch.h"
#include "arch/device.h"
#include "arch/noc.h"
#include "arch/presets.h"
#include "arch/serialize.h"
#include "common/strutil.h"

#ifndef CIMMLC_SOURCE_DIR
#error "CIMMLC_SOURCE_DIR must name the repository root"
#endif

namespace cimmlc {
namespace {

TEST(ArchTest, DerivedQuantities)
{
    CimArchitecture arch = presets::isaacBaseline();
    EXPECT_EQ(arch.chip.coreNumber(), 768);
    EXPECT_EQ(arch.core.xbNumber(), 16);
    EXPECT_EQ(arch.totalCrossbars(), 768 * 16);
    EXPECT_EQ(arch.cellsPerWeight(), 4);       // 8-bit / 2-bit cells
    EXPECT_EQ(arch.logicalColsPerCrossbar(), 32);
    EXPECT_EQ(arch.dacCyclesPerActivation(), 8); // 8-bit act / 1-bit DAC
    EXPECT_EQ(arch.rowGroupsPerActivation(), 16); // 128 rows / 8 parallel
}

TEST(ArchTest, ValidateCatchesBadParallelRow)
{
    CimArchitecture arch = presets::isaacBaseline();
    arch.xbar.parallel_row = 0;
    EXPECT_FALSE(arch.validate().isOk());
    arch.xbar.parallel_row = arch.xbar.rows + 1;
    EXPECT_FALSE(arch.validate().isOk());
}

TEST(ArchTest, ValidateCatchesTooWideWeight)
{
    CimArchitecture arch = presets::isaacBaseline();
    arch.xbar.cols = 2;
    arch.xbar.cell_bits = 1; // needs 8 cells per weight > 2 cols
    EXPECT_FALSE(arch.validate().isOk());
}

TEST(ArchTest, ValidateCatchesBadNocMatrix)
{
    CimArchitecture arch = presets::isaacBaseline();
    arch.chip.core_noc_cost = {1.0, 2.0}; // must be 768^2
    EXPECT_FALSE(arch.validate().isOk());
}

TEST(ArchTest, ValidateAcceptsPresets)
{
    for (const std::string &name : presets::availablePresets()) {
        auto arch = presets::byName(name);
        ASSERT_TRUE(arch.isOk()) << name;
        EXPECT_TRUE(arch.value().validate().isOk()) << name;
    }
}

TEST(ArchTest, WeightsStationaryFollowsDevice)
{
    CimArchitecture arch = presets::isaacBaseline();
    EXPECT_TRUE(arch.weightsStationary()); // ReRAM
    arch.xbar.cell_type = CellType::kSram;
    EXPECT_FALSE(arch.weightsStationary());
}

TEST(ArchTest, EnumParsersRoundTrip)
{
    EXPECT_EQ(parseComputeMode("wlm").value(), ComputeMode::kWLM);
    EXPECT_EQ(parseComputeMode("XBM").value(), ComputeMode::kXBM);
    EXPECT_FALSE(parseComputeMode("qqq").isOk());
    EXPECT_EQ(parseNocType("mesh").value(), NocType::kMesh);
    EXPECT_EQ(parseNocType("\\").value(), NocType::kIdeal);
    EXPECT_FALSE(parseNocType("torus").isOk());
    EXPECT_EQ(parseCellType("RRAM").value(), CellType::kReram);
    EXPECT_EQ(parseCellType("stt-mram").value(), CellType::kSttMram);
    EXPECT_FALSE(parseCellType("dna").isOk());
}

// ----- presets vs paper tables ------------------------------------------

TEST(PresetTest, IsaacBaselineMatchesTable3)
{
    const CimArchitecture arch = presets::isaacBaseline();
    EXPECT_EQ(arch.chip.coreNumber(), 768);
    EXPECT_EQ(arch.core.xbNumber(), 16);
    EXPECT_EQ(arch.xbar.rows, 128);
    EXPECT_EQ(arch.xbar.cols, 128);
    EXPECT_EQ(arch.xbar.parallel_row, 8);
    EXPECT_EQ(arch.xbar.dac_bits, 1);
    EXPECT_EQ(arch.xbar.adc_bits, 8);
    EXPECT_EQ(arch.xbar.cell_type, CellType::kReram);
    EXPECT_EQ(arch.xbar.cell_bits, 2);
    EXPECT_DOUBLE_EQ(arch.chip.alu_ops_per_cycle, 1024.0);
    EXPECT_DOUBLE_EQ(arch.chip.l0_bandwidth, 384.0);
    EXPECT_DOUBLE_EQ(arch.core.l1_bandwidth, 8192.0);
}

TEST(PresetTest, JiaMatchesFigure17)
{
    const CimArchitecture arch = presets::jiaIsscc21();
    EXPECT_EQ(arch.mode, ComputeMode::kCM);
    EXPECT_EQ(arch.chip.coreNumber(), 16);
    EXPECT_EQ(arch.chip.core_noc, NocType::kDisjointBufferSwitch);
    EXPECT_EQ(arch.core.xbNumber(), 1);
    EXPECT_EQ(arch.xbar.rows, 1152);
    EXPECT_EQ(arch.xbar.cols, 256);
    EXPECT_EQ(arch.xbar.parallel_row, 1152);
    EXPECT_EQ(arch.xbar.cell_type, CellType::kSram);
    EXPECT_EQ(arch.xbar.cell_bits, 1);
}

TEST(PresetTest, PumaMatchesFigure18)
{
    const CimArchitecture arch = presets::puma();
    EXPECT_EQ(arch.mode, ComputeMode::kXBM);
    EXPECT_EQ(arch.chip.coreNumber(), 138);
    EXPECT_EQ(arch.chip.core_noc, NocType::kMesh);
    EXPECT_DOUBLE_EQ(arch.chip.l0_size_kib, 96.0);
    EXPECT_EQ(arch.core.xbNumber(), 2);
    EXPECT_DOUBLE_EQ(arch.core.l1_size_kib, 1.0);
    EXPECT_EQ(arch.xbar.rows, 128);
    EXPECT_EQ(arch.xbar.parallel_row, 128);
    EXPECT_EQ(arch.xbar.cell_type, CellType::kReram);
}

TEST(PresetTest, JainMatchesFigure19)
{
    const CimArchitecture arch = presets::jainJssc21();
    EXPECT_EQ(arch.mode, ComputeMode::kWLM);
    EXPECT_EQ(arch.chip.coreNumber(), 4);
    EXPECT_EQ(arch.core.xbNumber(), 2);
    EXPECT_EQ(arch.xbar.rows, 256);
    EXPECT_EQ(arch.xbar.cols, 64);
    EXPECT_EQ(arch.xbar.parallel_row, 32);
    EXPECT_EQ(arch.xbar.adc_bits, 6);
    EXPECT_EQ(arch.xbar.cell_type, CellType::kSram);
}

TEST(PresetTest, TutorialMatchesTable2)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    EXPECT_EQ(arch.chip.coreNumber(), 2);
    EXPECT_EQ(arch.core.xbNumber(), 2);
    EXPECT_EQ(arch.xbar.rows, 32);
    EXPECT_EQ(arch.xbar.cols, 128);
    EXPECT_EQ(arch.xbar.parallel_row, 16);
    EXPECT_EQ(arch.xbar.cell_bits, 2);
}

TEST(PresetTest, ByNameAliases)
{
    EXPECT_TRUE(presets::byName("isaac").isOk());
    EXPECT_TRUE(presets::byName("PUMA").isOk());
    EXPECT_FALSE(presets::byName("tpu").isOk());
}

// ----- NoC models --------------------------------------------------------

TEST(NocTest, MeshHopsAreManhattan)
{
    NocModel mesh(NocType::kMesh, 4, 4, 32.0);
    EXPECT_EQ(mesh.hopCount(0, 0), 0);
    EXPECT_EQ(mesh.hopCount(0, 3), 3);
    EXPECT_EQ(mesh.hopCount(0, 15), 6);
    EXPECT_EQ(mesh.diameter(), 6);
}

TEST(NocTest, BusIsSingleHop)
{
    NocModel bus(NocType::kSharedBus, 1, 8, 64.0);
    EXPECT_EQ(bus.hopCount(0, 7), 1);
    EXPECT_EQ(bus.diameter(), 1);
}

TEST(NocTest, HTreeHopsGrowLogarithmically)
{
    NocModel tree(NocType::kHTree, 1, 8, 64.0);
    EXPECT_EQ(tree.hopCount(0, 1), 2);
    EXPECT_EQ(tree.hopCount(0, 7), 6);
    EXPECT_EQ(tree.diameter(), 6);
    // One endpoint past a power of two adds a tree level.
    EXPECT_EQ(NocModel(NocType::kHTree, 3, 3, 64.0).diameter(), 8);
    EXPECT_EQ(NocModel(NocType::kHTree, 1, 2, 64.0).diameter(), 2);
    EXPECT_EQ(NocModel(NocType::kHTree, 1, 1, 64.0).diameter(), 0);
}

TEST(NocTest, IdealIsFree)
{
    NocModel ideal(NocType::kIdeal, 2, 2, 0.0);
    EXPECT_DOUBLE_EQ(ideal.transferCycles(0, 3, 1024.0), 0.0);
    EXPECT_EQ(ideal.diameter(), 0);
}

/** The all-pairs walk the closed-form diameter replaces. */
std::int64_t
allPairsDiameter(const NocModel &noc)
{
    std::int64_t best = 0;
    for (std::int64_t src = 0; src < noc.endpointCount(); ++src) {
        for (std::int64_t dst = 0; dst < noc.endpointCount(); ++dst)
            best = std::max(best, noc.hopCount(src, dst));
    }
    return best;
}

TEST(NocTest, ClosedFormDiameterMatchesAllPairsWalk)
{
    std::vector<std::pair<std::int64_t, std::int64_t>> grids;
    for (std::int64_t rows = 1; rows <= 20; ++rows) {
        for (std::int64_t cols = 1; cols <= 20; ++cols)
            grids.emplace_back(rows, cols);
    }
    grids.emplace_back(32, 24); // isaac-baseline's core grid
    for (NocType type :
         {NocType::kIdeal, NocType::kSharedBus, NocType::kMesh,
          NocType::kHTree, NocType::kDisjointBufferSwitch}) {
        for (const auto &[rows, cols] : grids) {
            const NocModel noc(type, rows, cols, 32.0);
            ASSERT_EQ(noc.diameter(), allPairsDiameter(noc))
                << nocTypeName(type) << " " << rows << "x" << cols;
        }
    }
    EXPECT_EQ(NocModel(NocType::kMesh, 32, 24, 32.0).diameter(), 54);
}

TEST(NocTest, TransferSerializationDominates)
{
    NocModel mesh(NocType::kMesh, 2, 2, 32.0);
    const double cycles = mesh.transferCycles(0, 3, 3200.0);
    EXPECT_NEAR(cycles, 3200.0 / 32.0 + 2.0, 1e-9);
}

TEST(NocTest, CostMatrixOverride)
{
    std::vector<double> matrix(4, 0.0);
    matrix[0 * 2 + 1] = 0.5; // src 0 -> dst 1: half a cycle per bit
    NocModel noc(NocType::kMesh, 1, 2, 32.0, matrix);
    EXPECT_DOUBLE_EQ(noc.transferCycles(0, 1, 100.0), 50.0);
}

// ----- device profiles ----------------------------------------------------

TEST(DeviceTest, WriteAsymmetryOrdering)
{
    EXPECT_LT(deviceProfile(CellType::kSram).write_latency_cycles,
              deviceProfile(CellType::kReram).write_latency_cycles);
    EXPECT_LT(deviceProfile(CellType::kReram).write_latency_cycles,
              deviceProfile(CellType::kFlash).write_latency_cycles);
}

TEST(DeviceTest, NvmIsWeightsStationary)
{
    EXPECT_FALSE(deviceProfile(CellType::kSram).weights_stationary);
    EXPECT_TRUE(deviceProfile(CellType::kReram).weights_stationary);
    EXPECT_TRUE(deviceProfile(CellType::kFlash).weights_stationary);
}

TEST(DeviceTest, AdcEnergyScalesExponentially)
{
    EXPECT_NEAR(adcEnergyPj(9) / adcEnergyPj(8), 2.0, 1e-9);
    EXPECT_NEAR(adcEnergyPj(6) / adcEnergyPj(8), 0.25, 1e-9);
}

// ----- serialization -------------------------------------------------------

TEST(SerializeTest, RoundTripPreservesEveryPreset)
{
    for (const std::string &name : presets::availablePresets()) {
        const CimArchitecture original =
            presets::byName(name).value();
        const ConfigValue doc = archToConfig(original);
        auto restored = archFromConfig(doc);
        ASSERT_TRUE(restored.isOk()) << name;
        const CimArchitecture &r = restored.value();
        EXPECT_EQ(r.mode, original.mode) << name;
        EXPECT_EQ(r.chip.coreNumber(), original.chip.coreNumber());
        EXPECT_EQ(r.core.xbNumber(), original.core.xbNumber());
        EXPECT_EQ(r.xbar.rows, original.xbar.rows);
        EXPECT_EQ(r.xbar.cols, original.xbar.cols);
        EXPECT_EQ(r.xbar.parallel_row, original.xbar.parallel_row);
        EXPECT_EQ(r.xbar.cell_type, original.xbar.cell_type);
        EXPECT_EQ(r.xbar.cell_bits, original.xbar.cell_bits);
    }
}

TEST(SerializeTest, ParsesHandWrittenConfig)
{
    auto arch = archFromText(R"({
        "name": "custom",
        "computing_mode": "WLM",
        "chip_tier": {"core_number": 8, "core_noc": "mesh"},
        "core_tier": {"xb_grid": [2, 2]},
        "xb_tier": {
            "xb_size": [64, 64], "parallel_row": 16,
            "dac": 2, "adc": 6, "type": "SRAM", "precision": 1
        }
    })");
    ASSERT_TRUE(arch.isOk()) << arch.status().toString();
    EXPECT_EQ(arch.value().chip.coreNumber(), 8);
    EXPECT_EQ(arch.value().core.xbNumber(), 4);
    EXPECT_EQ(arch.value().xbar.parallel_row, 16);
    EXPECT_EQ(arch.value().xbar.dac_bits, 2);
}

TEST(SerializeTest, RejectsInvalidConfigs)
{
    EXPECT_FALSE(archFromText("[]").isOk());
    EXPECT_FALSE(archFromText(R"({"computing_mode": "ZZZ"})").isOk());
    EXPECT_FALSE(archFromText(R"({
        "xb_tier": {"xb_size": [0, 64]}
    })").isOk());
}

TEST(SerializeTest, GridAndSizeEntriesMustBeIntegers)
{
    const struct {
        const char *tier;
        const char *key;
    } slots[] = {{"chip_tier", "core_grid"},
                 {"core_tier", "xb_grid"},
                 {"xb_tier", "xb_size"}};
    for (const auto &slot : slots) {
        for (const char *bad : {"\"3\"", "3.9", "1e300"}) {
            const std::string text =
                strformat(R"({"%s": {"%s": [%s, 64]}})", slot.tier,
                          slot.key, bad);
            auto arch = archFromText(text);
            ASSERT_FALSE(arch.isOk()) << text;
            EXPECT_EQ(arch.status().code(), StatusCode::kParseError)
                << text;
            EXPECT_NE(arch.status().message().find(slot.key),
                      std::string::npos)
                << arch.status().toString();
        }
    }
}

TEST(SerializeTest, IntegerKeysMustBeIntegers)
{
    const struct {
        const char *tier; // nullptr: a top-level key
        const char *key;
        bool is_int;      // the field is an int, not an int64
    } slots[] = {{nullptr, "weight_bits", true},
                 {nullptr, "activation_bits", true},
                 {"chip_tier", "core_number", false},
                 {"core_tier", "xb_number", false},
                 {"xb_tier", "parallel_row", false},
                 {"xb_tier", "dac", true},
                 {"xb_tier", "adc", true},
                 {"xb_tier", "precision", true}};
    const auto document = [](const auto &slot, const char *value) {
        const std::string member = strformat(R"("%s": %s)", slot.key, value);
        return slot.tier == nullptr
                   ? "{" + member + "}"
                   : strformat(R"({"%s": {%s}})", slot.tier,
                               member.c_str());
    };
    for (const auto &slot : slots) {
        const auto good = archFromText(document(slot, "2"));
        ASSERT_TRUE(good.isOk()) << slot.key << ": "
                                 << good.status().toString();
        std::vector<const char *> bad_values = {"\"2\"", "1.5", "1e300"};
        if (slot.is_int)
            bad_values.push_back("1e10"); // wraps in an int cast
        for (const char *bad : bad_values) {
            const std::string text = document(slot, bad);
            const auto arch = archFromText(text);
            ASSERT_FALSE(arch.isOk()) << text;
            EXPECT_EQ(arch.status().code(), StatusCode::kParseError)
                << text;
            EXPECT_NE(arch.status().message().find(slot.key),
                      std::string::npos)
                << arch.status().toString();
        }
    }
}

/** The text of repository file @p path. */
std::string
repoText(const std::string &path)
{
    std::ifstream in(std::string(CIMMLC_SOURCE_DIR) + "/" + path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** @p text with its one occurrence of @p from replaced by @p to. */
std::string
replaceOnce(std::string text, const std::string &from, const std::string &to)
{
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text
                                   : text.replace(at, from.size(), to);
}

// Each of these documents used to load with the member at its default
// (or narrowed), so lenet5 compiled against another chip with exit 0.
TEST(SerializeTest, MistypedMembersAreErrors)
{
    const std::string weak_alu = repoText("examples/arch_weak_alu.json");
    ASSERT_TRUE(archFromText(weak_alu).isOk());
    auto quoted_alu = archFromText(
        replaceOnce(weak_alu, R"("alu": 0.25)", R"("alu": "0.25")"));
    ASSERT_FALSE(quoted_alu.isOk());
    EXPECT_EQ(quoted_alu.status().code(), StatusCode::kParseError);
    EXPECT_EQ(quoted_alu.status().message(),
              "arch chip_tier key 'alu' must be a number");

    const struct {
        const char *tier; // nullptr: a top-level key
        const char *key;
        const char *value;
        const char *type;
    } slots[] = {
        {nullptr, "name", "7", "a string"},
        {nullptr, "computing_mode", "1", "a string"},
        {"chip_tier", "core_noc", "true", "a string"},
        {"chip_tier", "core_noc_bandwidth", "\"256\"", "a number"},
        {"chip_tier", "l0_size_kib", "null", "a number"},
        {"chip_tier", "l0_bandwidth", "[1]", "a number"},
        {"chip_tier", "core_noc_cost", "[\"1\"]", "a number"},
        {"core_tier", "xb_noc", "{}", "a string"},
        {"core_tier", "xb_noc_bandwidth", "false", "a number"},
        {"core_tier", "alu", "\"0\"", "a number"},
        {"core_tier", "l1_size_kib", "\"64\"", "a number"},
        {"core_tier", "l1_bandwidth", "true", "a number"},
        {"core_tier", "xb_noc_cost", "[null]", "a number"},
        {"xb_tier", "type", "2", "a string"},
    };
    for (const auto &slot : slots) {
        const std::string member =
            strformat(R"("%s": %s)", slot.key, slot.value);
        const std::string text =
            slot.tier == nullptr
                ? "{" + member + "}"
                : strformat(R"({"%s": {%s}})", slot.tier, member.c_str());
        const auto arch = archFromText(text);
        ASSERT_FALSE(arch.isOk()) << text;
        EXPECT_EQ(arch.status().code(), StatusCode::kParseError) << text;
        EXPECT_EQ(arch.status().message(),
                  strformat("arch%s%s key '%s' must be %s",
                            slot.tier == nullptr ? "" : " ",
                            slot.tier == nullptr ? "" : slot.tier, slot.key,
                            slot.type));
    }
    // A tier must be an object, not ignored.
    const auto tier = archFromText(R"({"chip_tier": [3, 3]})");
    ASSERT_FALSE(tier.isOk());
    EXPECT_EQ(tier.status().message(),
              "arch key 'chip_tier' must be an object");
}

TEST(SerializeTest, UnknownKeysAreErrors)
{
    const std::string weak_alu = repoText("examples/arch_weak_alu.json");
    auto misspelled = archFromText(
        replaceOnce(weak_alu, R"("alu": 0.25)", R"("alu_ops": 0.25)"));
    ASSERT_FALSE(misspelled.isOk());
    EXPECT_EQ(misspelled.status().code(), StatusCode::kParseError);
    EXPECT_EQ(misspelled.status().message(),
              "arch chip_tier has unknown key 'alu_ops'");
    EXPECT_EQ(archFromText(R"({"nmae": "x"})").status().message(),
              "arch has unknown key 'nmae'");
    EXPECT_EQ(
        archFromText(R"({"core_tier": {"l0_size_kib": 8}})").status().message(),
        "arch core_tier has unknown key 'l0_size_kib'");
    EXPECT_EQ(archFromText(R"({"xb_tier": {"xb_grid": [2, 2]}})")
                  .status()
                  .message(),
              "arch xb_tier has unknown key 'xb_grid'");
}

// Every Abs-arch document the repository ships, and every preset's
// dump, still loads with the typed reader and unknown-key check.
TEST(SerializeTest, EveryShippedArchDocumentLoads)
{
    for (const std::string &preset : presets::availablePresets()) {
        const CimArchitecture arch = presets::byName(preset).value();
        auto loaded = archFromConfig(archToConfig(arch));
        ASSERT_TRUE(loaded.isOk())
            << preset << ": " << loaded.status().toString();
        EXPECT_EQ(archToConfig(loaded.value()).dump(false),
                  archToConfig(arch).dump(false));
    }
    for (const char *file :
         {"examples/arch_dual_win.json", "examples/arch_weak_alu.json",
          "examples/lint_fault_arch.json"}) {
        auto loaded = archFromText(repoText(file));
        EXPECT_TRUE(loaded.isOk()) << file << ": "
                                   << loaded.status().toString();
    }
}

// A grid whose cell count wraps int64 used to pass validate() and then
// divide by zero in the scheduler (SIGFPE, in cimmlcd too).
TEST(SerializeTest, CellCountsMustFitInt64)
{
    const std::string weak_alu = repoText("examples/arch_weak_alu.json");
    const auto wrapped = archFromText(
        replaceOnce(weak_alu, R"("core_grid": [3, 3])",
                    R"("core_grid": [4294967296, 4294967296])"));
    ASSERT_FALSE(wrapped.isOk());
    EXPECT_NE(wrapped.status().message().find("overflows int64"),
              std::string::npos)
        << wrapped.status().toString();

    CimArchitecture arch = presets::byName("jain").value();
    ASSERT_TRUE(arch.validate().isOk());
    arch.xbar.rows = std::int64_t{1} << 40;
    arch.xbar.parallel_row = arch.xbar.rows;
    arch.xbar.cols = std::int64_t{1} << 23;
    EXPECT_FALSE(arch.validate().isOk()); // 2^63 cells in one crossbar
    arch.xbar.cols = std::int64_t{1} << 10;
    arch.chip.core_rows = std::int64_t{1} << 20;
    EXPECT_FALSE(arch.validate().isOk());
}

// The integer rule is "integral and fits the target type": int64 keys
// admit values up to 2^63 - 1024 (the largest double below 2^63), int
// keys the edges of int. Each document loads or is a Status.
TEST(SerializeTest, IntegerKeysReadToTheEdgesOfTheirType)
{
    const struct {
        const char *tier; // nullptr: a top-level key
        const char *key;
        bool is_int;
        const char *grid_key; // the key holds a [rows, cols] pair
    } slots[] = {{nullptr, "weight_bits", true, nullptr},
                 {nullptr, "activation_bits", true, nullptr},
                 {"chip_tier", "core_number", false, nullptr},
                 {"chip_tier", "core_grid", false, "core_grid"},
                 {"core_tier", "xb_number", false, nullptr},
                 {"core_tier", "xb_grid", false, "xb_grid"},
                 {"xb_tier", "xb_size", false, "xb_size"},
                 {"xb_tier", "parallel_row", false, nullptr},
                 {"xb_tier", "dac", true, nullptr},
                 {"xb_tier", "adc", true, nullptr},
                 {"xb_tier", "precision", true, nullptr}};
    const struct {
        const char *text;
        bool fits_int;
        bool fits_int64;
    } values[] = {{"4611686018427387904", false, true},
                  {"9223372036854774784", false, true},
                  {"9223372036854775808", false, false},
                  {"-9223372036854775808", false, true},
                  {"2147483647", true, true},
                  {"-2147483648", true, true},
                  {"2147483648", false, true},
                  {"-2147483649", false, true}};
    for (const auto &slot : slots) {
        for (const auto &value : values) {
            const std::string member =
                slot.grid_key != nullptr
                    ? strformat(R"("%s": [%s, 1])", slot.key, value.text)
                    : strformat(R"("%s": %s)", slot.key, value.text);
            const std::string text =
                slot.tier == nullptr
                    ? "{" + member + "}"
                    : strformat(R"({"%s": {%s}})", slot.tier,
                                member.c_str());
            const auto arch = archFromText(text);
            const bool fits = slot.is_int ? value.fits_int : value.fits_int64;
            if (!fits) {
                ASSERT_FALSE(arch.isOk()) << text;
                EXPECT_EQ(arch.status().code(), StatusCode::kParseError)
                    << text;
                EXPECT_EQ(arch.status().message(),
                          strformat("arch%s%s key '%s' must be an integer "
                                    "in %s range",
                                    slot.tier == nullptr ? "" : " ",
                                    slot.tier == nullptr ? "" : slot.tier,
                                    slot.key, slot.is_int ? "int" : "int64"));
            } else if (arch.isOk()) {
                EXPECT_TRUE(arch.value().validate().isOk()) << text;
                EXPECT_GT(arch.value().cellsPerWeight(), 0) << text;
                EXPECT_GT(arch.value().dacCyclesPerActivation(), 0) << text;
            } else {
                EXPECT_FALSE(arch.status().message().empty()) << text;
            }
        }
    }
    // An int key holds INT_MAX exactly, and the bit-slice counts do
    // not overflow int on it.
    const auto widest = archFromText(
        R"({"weight_bits": 2147483647, "xb_tier": {"precision": 2}})");
    ASSERT_FALSE(widest.isOk());
    EXPECT_NE(widest.status().message().find("needs 1073741824 cells"),
              std::string::npos)
        << widest.status().toString();
    const auto exact = archFromText(R"({"xb_tier": {"dac": 2147483647}})");
    ASSERT_TRUE(exact.isOk()) << exact.status().toString();
    EXPECT_EQ(exact.value().xbar.dac_bits, INT_MAX);
    EXPECT_EQ(exact.value().dacCyclesPerActivation(), 1);
}

} // namespace
} // namespace cimmlc
