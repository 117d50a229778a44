/**
 * @file
 * Byte-for-byte goldens for mopcheck: summary(), every statistic, every
 * diagnostic field and table() of analyzeProgram over compiled flows
 * (compressed large nets, unrolled small nets) and injected faults.
 *
 * The expected renderings live in tests/golden/mopcheck/<case>.txt. On
 * a mismatch the test writes the actual rendering to <case>.actual in
 * its working directory, so a deliberate change can be reviewed with
 * diff and copied over the golden.
 *
 * The same compiles pin the emitted flows themselves: one line per case
 * in tests/golden/flows.txt (materialised statements, total ops, printed
 * length and a digest of the printed text); a mismatch writes the actual
 * line to <case>.flow.actual. Flows small enough to replay quickly must
 * also survive print -> parse -> print unchanged.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/presets.h"
#include "cache/artifact_cache.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "compiler/session.h"
#include "graph/models.h"
#include "mop/analyzer.h"
#include "mop/parser.h"
#include "mop/printer.h"

#ifndef CIMMLC_SOURCE_DIR
#error "CIMMLC_SOURCE_DIR must name the repository root"
#endif

namespace cimmlc {
namespace {

const std::vector<std::string> kPresets = {"isaac-baseline", "jain-jssc21",
                                           "puma", "jia-isscc21"};

std::string
render(const AnalyzeResult &result)
{
    std::string out = result.summary() + "\n";
    out += strformat("statements %lld\nops %lld\nl0_peak_live_elems %lld\n"
                     "l1_peak_live_elems %lld\ncrossbars_programmed %lld\n"
                     "errors %lld\nwarnings %lld\n",
                     static_cast<long long>(result.statements),
                     static_cast<long long>(result.ops),
                     static_cast<long long>(result.l0_peak_live_elems),
                     static_cast<long long>(result.l1_peak_live_elems),
                     static_cast<long long>(result.crossbars_programmed),
                     static_cast<long long>(result.errors()),
                     static_cast<long long>(result.warnings()));
    for (const MopDiagnostic &diag : result.diagnostics)
        out += diag.toString() + " {" + statusCodeName(diag.code) + "}\n";
    out += result.table();
    return out;
}

void
expectGolden(const std::string &name, const AnalyzeResult &result)
{
    const std::string actual = render(result);
    const std::string path =
        std::string(CIMMLC_SOURCE_DIR) + "/tests/golden/mopcheck/" + name +
        ".txt";
    std::ifstream in(path, std::ios::binary);
    std::stringstream expected;
    expected << in.rdbuf();
    if (in && expected.str() == actual)
        return;
    std::ofstream(name + ".actual", std::ios::binary) << actual;
    ADD_FAILURE() << name << " differs from " << path
                  << " (actual rendering written to " << name
                  << ".actual)";
}

/** Materialised statements: every op and every block counts once. */
std::int64_t
countStatements(const std::vector<Stmt> &stmts)
{
    std::int64_t n = 0;
    for (const Stmt &stmt : stmts)
        n += 1 + countStatements(stmt.body);
    return n;
}

/** tests/golden/flows.txt, keyed by the case name that opens each line. */
const std::map<std::string, std::string> &
flowGoldens()
{
    static const std::map<std::string, std::string> lines = [] {
        std::map<std::string, std::string> out;
        std::ifstream in(std::string(CIMMLC_SOURCE_DIR) +
                         "/tests/golden/flows.txt");
        std::string line;
        while (std::getline(in, line))
            out[line.substr(0, line.find(' '))] = line;
        return out;
    }();
    return lines;
}

/** Drops write payloads: the text shows only their shapes, so a parsed
 * flow carries none. */
void
dropPayloads(std::vector<Stmt> &stmts)
{
    for (Stmt &stmt : stmts) {
        stmt.op.payload.reset();
        dropPayloads(stmt.body);
    }
}

/** Pins @p program against its flows.txt line; when @p round_trip, the
 * headerless print (payloads dropped) must also re-parse and print
 * unchanged. */
void
expectFlowGolden(const std::string &name, const MopProgram &program,
                 bool round_trip)
{
    const std::string printed = printProgram(program);
    const std::string actual = strformat(
        "%s statements=%lld ops=%lld chars=%zu digest=%s", name.c_str(),
        static_cast<long long>(countStatements(program.init()) +
                               countStatements(program.compute())),
        static_cast<long long>(program.counts().total()), printed.size(),
        ArtifactHash().mix(printed).digest().c_str());
    const auto it = flowGoldens().find(name);
    if (it == flowGoldens().end() || it->second != actual) {
        std::ofstream(name + ".flow.actual") << actual << "\n";
        ADD_FAILURE() << name << " flow differs from tests/golden/flows.txt"
                      << " (actual line written to " << name
                      << ".flow.actual)";
    }
    if (!round_trip)
        return;
    MopProgram bare = program;
    bare.edit([](std::vector<Stmt> &init, std::vector<Stmt> &compute) {
        dropPayloads(init);
        dropPayloads(compute);
    });
    PrintOptions options;
    options.header = false;
    const std::string text = printProgram(bare, options);
    auto parsed = parseProgram(text);
    ASSERT_TRUE(parsed.isOk()) << name << ": " << parsed.status().toString();
    EXPECT_TRUE(printProgram(parsed.value(), options) == text)
        << name << " does not survive print -> parse -> print";
}

/** A bundled model with seeded random weights: unrolled codegen
 * programs the crossbars with real payloads. */
Graph
weightedModel(const std::string &model)
{
    Graph graph = models::byName(model);
    Rng rng(1234);
    graph.randomizeWeights(rng);
    return graph;
}

/** A lint-stage request; unrolled flows borrow @p graph (with weights),
 * compressed ones name the bundled model. */
CompileRequest
lintRequest(const std::string &model, const std::string &arch,
            const Graph *graph = nullptr)
{
    CompileRequest request;
    if (graph != nullptr)
        request.graph = graph;
    else
        request.model = model;
    request.arch = arch;
    request.threads = 1;
    request.lint = true;
    request.stop_after = CompileStage::kLint;
    request.codegen.unroll = graph != nullptr;
    return request;
}

/** The session lint stage's result for one model x arch flow, and the
 * flow it linted. */
void
expectSessionGolden(const std::string &name, CompileRequest request,
                    bool round_trip = false)
{
    CompilerSession session(std::move(request));
    auto result = session.run();
    ASSERT_TRUE(result.isOk()) << name << ": " << result.status().toString();
    ASSERT_TRUE(result.value().lint.has_value()) << name;
    expectGolden(name, *result.value().lint);
    ASSERT_TRUE(result.value().code.has_value()) << name;
    expectFlowGolden(name, result.value().code->program, round_trip);
}

TEST(MopAnalyzerGoldenTest, CompressedLargeFlows)
{
    for (const char *model : {"resnet18", "googlenet", "vgg7", "vit_tiny"}) {
        for (const std::string &arch : kPresets) {
            // isaac and jain flows take ~0.4 s each to round-trip.
            expectSessionGolden(
                strformat("compressed_%s_%s", model, arch.c_str()),
                lintRequest(model, arch),
                arch == "puma" || arch == "jia-isscc21");
        }
    }
}

TEST(MopAnalyzerGoldenTest, UnrolledSmallFlows)
{
    for (const char *model : {"mlp", "lenet5", "conv_relu_toy"}) {
        const Graph graph = weightedModel(model);
        for (const std::string &arch : kPresets) {
            expectSessionGolden(
                strformat("unrolled_%s_%s", model, arch.c_str()),
                lintRequest(model, arch, &graph), /*round_trip=*/true);
        }
    }
}

TEST(MopAnalyzerGoldenTest, L1OverflowOnFaultArch)
{
    CompileRequest request = lintRequest("mlp", "");
    request.arch_file =
        std::string(CIMMLC_SOURCE_DIR) + "/examples/lint_fault_arch.json";
    expectSessionGolden("fault_l1_overflow", std::move(request));
}

/** Injected faults: a flow is compiled, edited, and re-analyzed with the
 * session lint stage's options. */
class FaultGoldenTest : public testing::Test
{
  protected:
    void
    compile(const std::string &model, const std::string &arch, bool unroll)
    {
        auto resolved = presets::byName(arch);
        ASSERT_TRUE(resolved.isOk());
        arch_ = std::move(resolved.value());
        graph_.emplace(weightedModel(model));
        CompileRequest request =
            lintRequest(model, arch, unroll ? &*graph_ : nullptr);
        request.lint = false;
        request.stop_after = CompileStage::kCodegen;
        CompilerSession session(std::move(request));
        auto result = session.run();
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        ASSERT_TRUE(result.value().code.has_value());
        code_ = std::move(*result.value().code);

        options_ = AnalyzeOptions{};
        options_.executable = code_.executable;
        options_.validate.enforce_l0_capacity = false;
        options_.validate.enforce_write_policy = false;
        for (TensorId input : graph_->inputs()) {
            auto it = code_.tensor_offsets.find(input);
            if (it == code_.tensor_offsets.end())
                continue;
            LiveInRegion region;
            region.begin = it->second;
            region.end = it->second + graph_->tensor(input).numel();
            options_.live_in.push_back(region);
        }
    }

    AnalyzeResult
    analyze() const
    {
        return analyzeProgram(code_.program, arch_, options_);
    }

    static bool
    isCimRead(const Stmt &stmt)
    {
        return stmt.kind == Stmt::Kind::kOp &&
               (stmt.op.kind == MetaOpKind::kReadXb ||
                stmt.op.kind == MetaOpKind::kReadRow);
    }

    /** First `parallel {}` block with a CIM-read arm. */
    static Stmt *
    findCimParallel(std::vector<Stmt> &stmts)
    {
        for (Stmt &stmt : stmts) {
            if (stmt.kind == Stmt::Kind::kParallel) {
                for (const Stmt &arm : stmt.body)
                    if (isCimRead(arm))
                        return &stmt;
            }
            if (stmt.kind != Stmt::Kind::kOp) {
                if (Stmt *found = findCimParallel(stmt.body))
                    return found;
            }
        }
        return nullptr;
    }

    /** Position of the first op of @p kind in a sequential body. */
    static bool
    findSequentialOp(std::vector<Stmt> &stmts, MetaOpKind kind,
                     std::vector<Stmt> **body, std::size_t *pos)
    {
        for (std::size_t i = 0; i < stmts.size(); ++i) {
            Stmt &stmt = stmts[i];
            if (stmt.kind == Stmt::Kind::kOp && stmt.op.kind == kind) {
                *body = &stmts;
                *pos = i;
                return true;
            }
            if (stmt.kind == Stmt::Kind::kRepeat &&
                findSequentialOp(stmt.body, kind, body, pos))
                return true;
        }
        return false;
    }

    static MetaOp
    zeroOp(const BufAddr &dst, std::int64_t len)
    {
        MetaOp op;
        op.kind = MetaOpKind::kDcom;
        op.func = dcomfunc::kZero;
        op.dst = dst;
        op.len = len;
        return op;
    }

    std::optional<Graph> graph_;
    CimArchitecture arch_;
    CodegenResult code_;
    AnalyzeOptions options_;
};

TEST_F(FaultGoldenTest, DroppedWeightLoad)
{
    compile("lenet5", "isaac-baseline", /*unroll=*/false);
    ASSERT_FALSE(code_.program.init().empty());
    code_.program.edit([](std::vector<Stmt> &init, std::vector<Stmt> &) {
        init.erase(init.begin());
    });
    expectGolden("fault_dropped_weight_load", analyze());
}

TEST_F(FaultGoldenTest, RacyArm)
{
    compile("lenet5", "isaac-baseline", /*unroll=*/false);
    code_.program.edit([](std::vector<Stmt> &, std::vector<Stmt> &compute) {
        Stmt *block = findCimParallel(compute);
        ASSERT_NE(block, nullptr);
        for (const Stmt &arm : block->body) {
            if (isCimRead(arm)) {
                const MetaOp victim = arm.op;
                block->body.push_back(
                    Stmt::makeOp(zeroOp(victim.dst, victim.cols)));
                break;
            }
        }
    });
    expectGolden("fault_racy_arm", analyze());
}

TEST_F(FaultGoldenTest, MultiArmRace)
{
    // Sibling arms clobber and read the CIM reads' accumulators, and one
    // another, with different extents: every arm pair has several
    // conflicting accesses, and its report is the lexicographically
    // smallest message.
    compile("lenet5", "isaac-baseline", /*unroll=*/false);
    code_.program.edit([](std::vector<Stmt> &, std::vector<Stmt> &compute) {
        Stmt *block = findCimParallel(compute);
        ASSERT_NE(block, nullptr);
        std::vector<MetaOp> victims;
        for (const Stmt &arm : block->body)
            if (isCimRead(arm))
                victims.push_back(arm.op);
        ASSERT_FALSE(victims.empty());
        for (std::int64_t k = 1; k <= 3; ++k) {
            const MetaOp &victim =
                victims[static_cast<std::size_t>(k - 1) % victims.size()];
            BufAddr dst = victim.dst;
            dst.offset += k - 1;
            block->body.push_back(
                Stmt::makeOp(zeroOp(dst, victim.cols / k)));
            MetaOp relu = zeroOp(victim.dst, victim.cols);
            relu.func = dcomfunc::kRelu;
            relu.src = victim.dst;
            relu.src.offset += k;
            relu.dst.offset += 4096 * k;
            block->body.push_back(Stmt::makeOp(relu));
        }
        // One multi-op arm: its pairings pick among several messages.
        BufAddr tail = victims.front().dst;
        tail.offset += victims.front().cols - 1;
        block->body.push_back(Stmt::makeRepeat(
            1, {Stmt::makeOp(zeroOp(tail, 1)),
                Stmt::makeOp(zeroOp(victims.front().dst, 2))}));
    });
    expectGolden("fault_multi_arm_race", analyze());
}

TEST_F(FaultGoldenTest, OverwrittenCrossbar)
{
    compile("lenet5", "puma", /*unroll=*/true);
    ASSERT_FALSE(code_.program.init().empty());
    code_.program.edit([](std::vector<Stmt> &init, std::vector<Stmt> &) {
        const Stmt first = init.front();
        init.insert(init.begin(), first);
    });
    expectGolden("fault_overwritten_xbar", analyze());
}

TEST_F(FaultGoldenTest, UnusedCrossbarProgramming)
{
    compile("lenet5", "puma", /*unroll=*/true);
    ASSERT_FALSE(code_.program.init().empty());
    code_.program.edit(
        [](std::vector<Stmt> &init, std::vector<Stmt> &compute) {
            compute.push_back(init.front());
        });
    expectGolden("fault_unused_xbar", analyze());
}

TEST_F(FaultGoldenTest, OverwrittenCore)
{
    compile("mlp", "jia-isscc21", /*unroll=*/true);
    code_.program.edit(
        [](std::vector<Stmt> &init, std::vector<Stmt> &compute) {
            std::vector<Stmt> *body = nullptr;
            std::size_t pos = 0;
            ASSERT_TRUE(
                findSequentialOp(init, MetaOpKind::kWriteCore, &body,
                                 &pos) ||
                findSequentialOp(compute, MetaOpKind::kWriteCore, &body,
                                 &pos));
            const Stmt install = (*body)[pos];
            body->insert(body->begin() + static_cast<std::ptrdiff_t>(pos),
                         install);
        });
    expectGolden("fault_overwritten_core", analyze());
}

TEST_F(FaultGoldenTest, DeadStore)
{
    compile("lenet5", "puma", /*unroll=*/true);
    code_.program.edit([](std::vector<Stmt> &, std::vector<Stmt> &compute) {
        std::vector<Stmt> *body = nullptr;
        std::size_t pos = 0;
        ASSERT_TRUE(
            findSequentialOp(compute, MetaOpKind::kDcom, &body, &pos));
        const Stmt store = (*body)[pos];
        body->insert(body->begin() + static_cast<std::ptrdiff_t>(pos),
                     store);
    });
    expectGolden("fault_dead_store", analyze());
}

} // namespace
} // namespace cimmlc
