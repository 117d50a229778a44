/**
 * @file
 * Fuzz-style tests for the meta-operator text parser: deterministic
 * byte mutations of printed flows and op lines must parse into a Status
 * error or a valid program, never crash or hang, and whatever parses
 * must print -> parse -> print unchanged. The seeds carry every operand
 * the parser stores out of line (CoreOpParams, DcomParams, src2) and
 * DCOM names it has to intern. Every mutated flow that parses also goes
 * through mopcheck, on both its executable and its compressed subset:
 * findings are fine, a crash, a hang or a sanitizer report is not.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/presets.h"
#include "compiler/session.h"
#include "fuzz_mutate.h"
#include "mop/analyzer.h"
#include "mop/parser.h"
#include "mop/printer.h"

namespace cimmlc {
namespace {

// Op lines with every key their kind reads: both core-op views, every
// DCOM extra, and an unknown function that carries all of them.
const std::vector<std::string> kOpLineSeeds = {
    "cim.readcore(conv, cin=3, h=32, w=32, cout=32, k=3, s=1, p=1, "
    "fin=7, fout=5, wb=2, we=9, coreaddr=4, src=L0[0], dst=L0[3072])",
    "cim.writecore(linear, cin=1, h=2, w=3, cout=4, k=5, s=6, p=7, "
    "fin=128, fout=10, wb=1, we=3, coreaddr=1, weights=[10, 128])",
    "requant(src=L0[0], dst=L0[64], len=64, shift=6)",
    "maxpool(src=L0[0], dst=L0[256], len=256, k=2, s=2, p=1, c=4, h=8, "
    "w=8, host=1)",
    "gap(src=L0[0], dst=L0[256], len=256, k=1, s=1, p=0, c=16, h=4, w=4)",
    "softmax(src=L0[0], dst=L0[64], len=64, w=16, host=1)",
    "add(src1=L0[0], src2=L1c3[64], dst=L0[128], len=64, host=1)",
    "matmul(src1=L0[0], src2=L0[64], dst=L0[128], len=64, shift=3, k=1, "
    "c=8, h=4, w=16)",
    "teleport(src=L1c2[5], src2=L0[9], dst=L0[1], len=3, shift=-2, k=3, "
    "s=2, p=1, c=4, h=5, w=6, host=1)",
};

/** The headerless printed lenet5 flow compiled for @p arch. */
std::string
printedLenet5(const std::string &arch)
{
    CompileRequest request;
    request.model = "lenet5";
    request.arch = arch;
    request.threads = 1;
    request.stop_after = CompileStage::kCodegen;
    CompilerSession session(std::move(request));
    auto result = session.run();
    EXPECT_TRUE(result.isOk()) << arch << ": " << result.status().toString();
    if (!result.isOk() || !result.value().code.has_value())
        return "";
    PrintOptions options;
    options.header = false;
    return printProgram(result.value().code->program, options);
}

TEST(MopFuzzTest, MutatedOpLinesErrorOrRoundTrip)
{
    Rng rng(0x0B11E5ull);
    int parsed = 0;
    for (const std::string &seed : kOpLineSeeds) {
        auto op = parseOpLine(seed);
        ASSERT_TRUE(op.isOk()) << seed << ": " << op.status().toString();
        for (int round = 0; round < 400; ++round) {
            const std::string text = mutate(seed, rng);
            auto first = parseOpLine(text);
            if (!first.isOk()) {
                EXPECT_FALSE(first.status().message().empty())
                    << "case " << round << " of " << seed;
                continue;
            }
            ++parsed;
            const std::string printed = first.value().toString();
            auto second = parseOpLine(printed);
            ASSERT_TRUE(second.isOk())
                << "case " << round << ": " << printed << " -> "
                << second.status().toString();
            EXPECT_EQ(second.value().toString(), printed)
                << "case " << round << " of " << seed;
        }
    }
    EXPECT_GT(parsed, 0); // the mutations also reach the op builders
}

TEST(MopFuzzTest, MutatedFlowsErrorOrRoundTrip)
{
    PrintOptions options;
    options.header = false;
    Rng rng(0xF10Eull);
    int parsed = 0;
    for (const char *arch :
         {"isaac-baseline", "jain-jssc21", "puma", "jia-isscc21"}) {
        auto target = presets::byName(arch);
        ASSERT_TRUE(target.isOk()) << arch;
        const std::string seed = printedLenet5(arch);
        ASSERT_FALSE(seed.empty()) << arch;
        auto program = parseProgram(seed);
        ASSERT_TRUE(program.isOk()) << arch;
        ASSERT_EQ(printProgram(program.value(), options), seed) << arch;
        for (int round = 0; round < 100; ++round) {
            const std::string text = mutate(seed, rng);
            auto first = parseProgram(text);
            if (!first.isOk()) {
                EXPECT_FALSE(first.status().message().empty())
                    << arch << " case " << round;
                continue;
            }
            ++parsed;
            // Findings are fine; the analysis has to return.
            for (const bool executable : {true, false}) {
                AnalyzeOptions lint;
                lint.executable = executable;
                const AnalyzeResult result =
                    analyzeProgram(first.value(), target.value(), lint);
                EXPECT_LE(result.ops, result.statements)
                    << arch << " case " << round;
            }
            const std::string printed = printProgram(first.value(), options);
            auto second = parseProgram(printed);
            ASSERT_TRUE(second.isOk())
                << arch << " case " << round << ": "
                << second.status().toString();
            EXPECT_TRUE(printProgram(second.value(), options) == printed)
                << arch << " case " << round
                << " does not survive print -> parse -> print";
        }
    }
    EXPECT_GT(parsed, 0);
}

} // namespace
} // namespace cimmlc
