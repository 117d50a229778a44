/**
 * @file
 * Property test of a flow's op counts. MopProgram::counts() is kept by
 * the statement builder as the flow is built; here it must equal a
 * reference walk over the finished tree, on every flow the compiler,
 * the parser and the generators make: every bundled model x preset
 * (compressed, and unrolled where the op budget passes at a small
 * limit), the printed flows the golden test parses back, the race and
 * capacity generators' programs, the parsing mutants of the mop fuzz
 * test, repeats of non-positive and huge counts, and compiled flows
 * after MopProgram::edit().
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "arch/presets.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "compiler/session.h"
#include "fuzz_mutate.h"
#include "graph/models.h"
#include "mop/parser.h"
#include "mop/printer.h"
#include "mop_gen.h"
#include "sched/codegen.h"

namespace cimmlc {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/** a + b for a, b >= 0, or kMax where the sum would pass it. */
std::int64_t
sumOrMax(std::int64_t a, std::int64_t b)
{
    return a > kMax - b ? kMax : a + b;
}

/** a * b for a, b > 0, or kMax where the product would pass it. */
std::int64_t
productOrMax(std::int64_t a, std::int64_t b)
{
    return a > kMax / b ? kMax : a * b;
}

/**
 * The reference: adds each op under @p stmt, @p times times, to its
 * kind's count, and each `parallel` to parallel_blocks; a repeat
 * multiplies @p times by its count, and one of count <= 0 adds nothing.
 */
void
referenceWalk(const Stmt &stmt, std::int64_t times, MopCounts *counts)
{
    switch (stmt.kind) {
      case Stmt::Kind::kOp: {
        std::int64_t *n = &counts->mov;
        switch (stmt.op.kind) {
          case MetaOpKind::kReadCore:
          case MetaOpKind::kReadXb:
          case MetaOpKind::kReadRow:
            n = &counts->cim_reads;
            break;
          case MetaOpKind::kWriteCore:
          case MetaOpKind::kWriteXb:
          case MetaOpKind::kWriteRow:
            n = &counts->cim_writes;
            break;
          case MetaOpKind::kDcom:
            n = &counts->dcom;
            break;
          case MetaOpKind::kMov:
            break;
        }
        *n = sumOrMax(*n, times);
        break;
      }
      case Stmt::Kind::kParallel:
        counts->parallel_blocks = sumOrMax(counts->parallel_blocks, times);
        for (const Stmt &child : stmt.body)
            referenceWalk(child, times, counts);
        break;
      case Stmt::Kind::kRepeat:
        if (stmt.repeat <= 0)
            break;
        for (const Stmt &child : stmt.body)
            referenceWalk(child, productOrMax(times, stmt.repeat), counts);
        break;
    }
}

std::string
describe(const MopCounts &c, std::int64_t total)
{
    return strformat("cim_reads %lld cim_writes %lld dcom %lld mov %lld "
                     "parallel_blocks %lld total %lld",
                     static_cast<long long>(c.cim_reads),
                     static_cast<long long>(c.cim_writes),
                     static_cast<long long>(c.dcom),
                     static_cast<long long>(c.mov),
                     static_cast<long long>(c.parallel_blocks),
                     static_cast<long long>(total));
}

/** The reference counts of @p program, rendered. */
std::string
referenceCounts(const MopProgram &program)
{
    MopCounts counts;
    for (const std::vector<Stmt> *section :
         {&program.init(), &program.compute()}) {
        for (const Stmt &stmt : *section)
            referenceWalk(stmt, 1, &counts);
    }
    const std::int64_t total =
        sumOrMax(sumOrMax(sumOrMax(counts.cim_reads, counts.cim_writes),
                          counts.dcom),
                 counts.mov);
    return describe(counts, total);
}

void
expectCounts(const MopProgram &program, const std::string &where)
{
    EXPECT_EQ(describe(program.counts(), program.counts().total()),
              referenceCounts(program))
        << where;
}

/** The headerless print of @p program, parsed back; its counts must
 * match both the reference and the program's. */
void
expectParsedCounts(const MopProgram &program, const std::string &where)
{
    PrintOptions options;
    options.header = false;
    auto parsed = parseProgram(printProgram(program, options));
    ASSERT_TRUE(parsed.isOk()) << where << ": " << parsed.status().toString();
    expectCounts(parsed.value(), "parsed " + where);
    EXPECT_EQ(parsed.value().counts(), program.counts()) << where;
}

/** A codegen-stage session run of @p model on @p arch. */
StatusOr<CompileArtifacts>
compileFlow(const std::string &model, const std::string &arch)
{
    CompileRequest request;
    request.model = model;
    request.arch = arch;
    request.threads = 1;
    request.stop_after = CompileStage::kCodegen;
    CompilerSession session(std::move(request));
    return session.run();
}

// The flows tests/test_mop_golden.cc prints and parses back.
const std::set<std::string> kGoldenCompressedModels = {
    "resnet18", "googlenet", "vgg7", "vit_tiny"};
const std::set<std::string> kGoldenCompressedArchs = {"puma",
                                                      "jia-isscc21"};
const std::set<std::string> kGoldenUnrolledModels = {"mlp", "lenet5",
                                                     "conv_relu_toy"};
const std::set<std::string> kGoldenUnrolledArchs = {
    "isaac-baseline", "jain-jssc21", "puma", "jia-isscc21"};

TEST(MopCountsTest, CompressedFlowsOfEveryModelAndPreset)
{
    for (const std::string &model : models::availableModels()) {
        for (const std::string &arch : presets::availablePresets()) {
            const std::string where =
                strformat("compressed %s x %s", model.c_str(), arch.c_str());
            auto result = compileFlow(model, arch);
            ASSERT_TRUE(result.isOk())
                << where << ": " << result.status().toString();
            ASSERT_TRUE(result.value().code.has_value()) << where;
            const MopProgram &program = result.value().code->program;
            expectCounts(program, where);
            if (kGoldenCompressedModels.count(model) > 0 &&
                kGoldenCompressedArchs.count(arch) > 0)
                expectParsedCounts(program, where);
        }
    }
}

TEST(MopCountsTest, UnrolledFlowsWithinAnOpLimit)
{
    // Unrolled flows reach millions of ops and gigabytes of statements,
    // and installing the weights of a net of 10^8 parameters takes most
    // of a second: the test keeps to flows and weights of unit size.
    CodegenOptions options;
    options.unroll = true;
    options.max_ops = 250'000;
    constexpr std::int64_t kMaxWeights = 8'000'000;
    int unrolled = 0;
    for (const std::string &model : models::availableModels()) {
        Graph graph = models::byName(model);
        if (graph.totalWeights() > kMaxWeights)
            continue;
        Rng rng(1234);
        graph.randomizeWeights(rng);
        for (const std::string &arch : presets::availablePresets()) {
            const std::string where =
                strformat("unrolled %s x %s", model.c_str(), arch.c_str());
            auto target = presets::byName(arch);
            ASSERT_TRUE(target.isOk()) << where;
            CompileRequest request;
            request.graph = &graph;
            request.arch = arch;
            request.threads = 1;
            request.stop_after = CompileStage::kSchedule;
            auto scheduled = CompilerSession(std::move(request)).run();
            ASSERT_TRUE(scheduled.isOk())
                << where << ": " << scheduled.status().toString();
            const Schedule &schedule = *scheduled.value().schedule;
            if (!checkUnrolledOpBudget(graph, target.value(), schedule,
                                       options)
                     .isOk())
                continue;
            auto code =
                generateProgram(graph, target.value(), schedule, options);
            ASSERT_TRUE(code.isOk())
                << where << ": " << code.status().toString();
            expectCounts(code.value().program, where);
            if (kGoldenUnrolledModels.count(model) > 0 &&
                kGoldenUnrolledArchs.count(arch) > 0)
                expectParsedCounts(code.value().program, where);
            ++unrolled;
        }
    }
    EXPECT_GE(unrolled, 25); // at least the five small models x presets
}

TEST(MopCountsTest, GeneratedPrograms)
{
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        BlockGen gen(seed);
        std::vector<Stmt> arms = gen.arms();
        std::vector<MetaOp> lead;
        for (int i = static_cast<int>(gen.rng().uniformInt(0, 2)); i > 0; --i)
            lead.push_back(gen.op());
        const bool in_repeat = gen.rng().uniformInt(0, 3) == 0;
        expectCounts(makeProgram(lead, std::move(arms), in_repeat),
                     "race block, seed " + std::to_string(seed));
    }
    for (const auto &[seed, width] :
         {std::pair{3, 64}, std::pair{5, 128}, std::pair{7, 256}}) {
        BlockGen gen(static_cast<std::uint64_t>(seed), width);
        expectCounts(makeProgram({}, gen.arms(), seed % 2 == 0),
                     strformat("race block, seed %d, %d arms", seed, width));
    }
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        ProgramGen gen(seed);
        expectCounts(gen.program(),
                     "capacity program, seed " + std::to_string(seed));
    }
}

/** The headerless printed flow of @p model on @p arch. */
std::string
printedFlow(const std::string &model, const std::string &arch)
{
    auto result = compileFlow(model, arch);
    EXPECT_TRUE(result.isOk()) << arch << ": " << result.status().toString();
    if (!result.isOk() || !result.value().code.has_value())
        return "";
    PrintOptions options;
    options.header = false;
    return printProgram(result.value().code->program, options);
}

TEST(MopCountsTest, ParsingMutantsOfPrintedFlows)
{
    // tests/test_mop_fuzz.cc's mutants: the same seeds, rounds and Rng.
    Rng rng(0xF10Eull);
    int parsed = 0;
    for (const char *arch :
         {"isaac-baseline", "jain-jssc21", "puma", "jia-isscc21"}) {
        const std::string seed = printedFlow("lenet5", arch);
        ASSERT_FALSE(seed.empty()) << arch;
        for (int round = 0; round < 100; ++round) {
            auto program = parseProgram(mutate(seed, rng));
            if (!program.isOk())
                continue;
            ++parsed;
            expectCounts(program.value(),
                         strformat("%s mutant %d", arch, round));
        }
    }
    EXPECT_GT(parsed, 0);
}

TEST(MopCountsTest, RepeatsOfNonPositiveAndHugeCounts)
{
    const std::vector<std::int64_t> edges = {
        kMax, std::int64_t{1} << 62, std::int64_t{1} << 31, 7, 1, 0, -3,
        std::numeric_limits<std::int64_t>::min()};
    const std::string mov = "mov(src=L0[0], dst=L0[8], len=4)";
    const std::string read =
        "cim.readxb(xbaddr=c0.x0, len=1, rows=4, cols=4, src=L1c0[0], "
        "dst=L0[16])";
    const std::string relu = "relu(src=L0[16], dst=L0[32], len=4)";
    for (const std::int64_t outer : edges) {
        for (const std::int64_t inner : edges) {
            const std::string where = strformat(
                "repeat %lld { repeat %lld }", static_cast<long long>(outer),
                static_cast<long long>(inner));
            // Built by the parser, through the block builder.
            const std::string text = strformat(
                "init:\n%s\ncompute:\nrepeat %lld {\nparallel {\n%s\n"
                "repeat %lld {\n%s\n%s\n}\n}\n%s\n}\n%s\n",
                read.c_str(), static_cast<long long>(outer), mov.c_str(),
                static_cast<long long>(inner), read.c_str(), relu.c_str(),
                mov.c_str(), relu.c_str());
            auto parsed = parseProgram(text);
            ASSERT_TRUE(parsed.isOk())
                << where << ": " << parsed.status().toString();
            expectCounts(parsed.value(), "parsed " + where);

            // The same tree built by hand and appended whole.
            MopProgram program("p", "XBM");
            program.initBuilder().append(parsed.value().init().front());
            program.computeBuilder().append(
                parsed.value().compute().front());
            program.computeBuilder().append(
                parsed.value().compute().back());
            expectCounts(program, "appended " + where);
            EXPECT_EQ(program.counts(), parsed.value().counts()) << where;
        }
    }
}

TEST(MopCountsTest, EditRecountsACompiledFlow)
{
    auto result = compileFlow("lenet5", "isaac-baseline");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    ASSERT_TRUE(result.value().code.has_value());
    MopProgram program = result.value().code->program;
    const MopCounts compiled = program.counts();

    program.edit([](std::vector<Stmt> &, std::vector<Stmt> &) {});
    EXPECT_EQ(program.counts(), compiled);

    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    program.edit([&mov](std::vector<Stmt> &init, std::vector<Stmt> &compute) {
        init.erase(init.begin());
        for (Stmt &stmt : compute) {
            if (stmt.kind == Stmt::Kind::kRepeat) {
                stmt.repeat = 0; // the first repeat now runs no window
                break;
            }
        }
        compute.push_back(Stmt::makeParallel(
            {Stmt::makeOp(mov),
             Stmt::makeRepeat(kMax, {Stmt::makeOp(mov)})}));
    });
    expectCounts(program, "edited lenet5 x isaac-baseline");
    EXPECT_EQ(program.counts().mov, kMax);
    EXPECT_LT(program.counts().cim_writes, compiled.cim_writes);
    EXPECT_LT(program.counts().cim_reads, compiled.cim_reads);
}

} // namespace
} // namespace cimmlc
