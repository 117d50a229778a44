/**
 * @file
 * Tests for the meta-operator IR: op construction and printing, value
 * semantics of the out-of-line operands, interned DCOM names, the
 * parser round trip, program statistics, and architecture validation of
 * flows (mode legality, address bounds, device write policy).
 */
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/presets.h"
#include "mop/parser.h"
#include "mop/printer.h"
#include "mop/program.h"
#include "mop/validator.h"

namespace cimmlc {
namespace {

MetaOp
makeReadXb()
{
    MetaOp op;
    op.kind = MetaOpKind::kReadXb;
    op.core = 1;
    op.xb = 2;
    op.len = 1;
    op.rows = 27;
    op.cols = 32;
    op.src = {MemSpace::kL1, 1, 0};
    op.dst = {MemSpace::kL0, 0, 4096};
    return op;
}

TEST(MetaOpTest, KindNamesAndClassification)
{
    EXPECT_STREQ(metaOpKindName(MetaOpKind::kReadCore), "cim.readcore");
    EXPECT_STREQ(metaOpKindName(MetaOpKind::kMov), "mov");
    EXPECT_TRUE(isCimMetaOp(MetaOpKind::kReadRow));
    EXPECT_TRUE(isCimMetaOp(MetaOpKind::kWriteXb));
    EXPECT_FALSE(isCimMetaOp(MetaOpKind::kDcom));
    EXPECT_FALSE(isCimMetaOp(MetaOpKind::kMov));
}

TEST(MetaOpTest, BufAddrRendering)
{
    EXPECT_EQ(bufAddrToString({MemSpace::kL0, 0, 42}), "L0[42]");
    EXPECT_EQ(bufAddrToString({MemSpace::kL1, 3, 7}), "L1c3[7]");
}

TEST(MetaOpTest, ReadXbToString)
{
    EXPECT_EQ(makeReadXb().toString(),
              "cim.readxb(xbaddr=c1.x2, len=1, rows=27, cols=32, "
              "src=L1c1[0], dst=L0[4096])");
}

MetaOp
makeReadCore()
{
    MetaOp op;
    op.kind = MetaOpKind::kReadCore;
    op.core = 3;
    op.src = {MemSpace::kL0, 0, 0};
    op.dst = {MemSpace::kL0, 0, 3072};
    CoreOpParams &p = op.mutableCoreParams();
    p.in_channels = 3;
    p.in_h = 32;
    p.in_w = 32;
    p.out_channels = 32;
    p.kernel = 3;
    p.padding = 1;
    return op;
}

TEST(MetaOpTest, CopiesDeepCopyOutOfLineOperands)
{
    MetaOp original = makeReadCore();
    original.mutableSrc2() = {MemSpace::kL1, 2, 8};
    original.mutableDcomParams().shift = 4;
    const std::string before = original.toString();

    MetaOp copy = original;
    copy.mutableCoreParams().in_channels = 64;
    copy.mutableCoreParams().win_end = 2;
    copy.mutableSrc2().offset = 99;
    copy.mutableDcomParams().shift = 7;
    EXPECT_EQ(original.toString(), before);
    EXPECT_EQ(original.coreParams().in_channels, 3);
    EXPECT_EQ(original.src2().offset, 8);
    EXPECT_EQ(original.dcomParams().shift, 4);
    EXPECT_EQ(copy.coreParams().in_channels, 64);

    MetaOp assigned;
    assigned = original;
    original.mutableCoreParams().kernel = 5;
    EXPECT_EQ(assigned.toString(), before);
    const MetaOp &self = assigned;
    assigned = self; // self-assignment keeps the record
    EXPECT_EQ(assigned.toString(), before);
}

TEST(MetaOpTest, DefaultOperandsPrintLikeUnallocatedOnes)
{
    std::vector<MetaOp> ops;
    for (const FuncName func :
         {dcomfunc::kRequant, dcomfunc::kMaxPool, dcomfunc::kSoftmax,
          dcomfunc::kAdd, dcomfunc::kMatMul, FuncName("teleport")}) {
        MetaOp op;
        op.kind = MetaOpKind::kDcom;
        op.func = func;
        op.len = 16;
        ops.push_back(op);
    }
    for (MetaOpKind kind : {MetaOpKind::kReadCore, MetaOpKind::kWriteCore}) {
        MetaOp op;
        op.kind = kind;
        ops.push_back(op);
    }
    for (const MetaOp &bare : ops) {
        MetaOp explicit_defaults = bare;
        explicit_defaults.mutableCoreParams() = CoreOpParams{};
        explicit_defaults.mutableDcomParams() = DcomParams{};
        explicit_defaults.mutableSrc2() = BufAddr{};
        EXPECT_EQ(explicit_defaults.toString(), bare.toString());
        EXPECT_EQ(bare.coreParams(), CoreOpParams{});
        EXPECT_EQ(bare.dcomParams(), DcomParams{});
        EXPECT_EQ(bare.src2(), BufAddr{});
    }
}

TEST(MetaOpTest, MovedFromOpsDestroyAndReassignSafely)
{
    MetaOp source = makeReadCore();
    const std::string text = source.toString();
    MetaOp moved = std::move(source);
    EXPECT_EQ(moved.toString(), text);
    source = moved; // reassign the moved-from op
    EXPECT_EQ(source.toString(), text);

    std::vector<Stmt> stmts;
    stmts.emplace_back().op = makeReadCore();
    std::vector<Stmt> taken = std::move(stmts);
    stmts.clear();
    stmts.emplace_back().op = std::move(taken.front().op);
    taken.clear(); // destroys the moved-from op
    EXPECT_EQ(stmts.front().op.toString(), text);
}

TEST(FuncNameTest, KnownNamesAreStaticAndEqualByText)
{
    EXPECT_EQ(FuncName("relu"), dcomfunc::kRelu);
    EXPECT_EQ(FuncName(std::string("matmul")), dcomfunc::kMatMul);
    EXPECT_TRUE(dcomfunc::kGlobalAvgPool.isKnown());
    EXPECT_STREQ(dcomfunc::kGlobalAvgPool.c_str(), "gap");
    EXPECT_FALSE(dcomfunc::kRelu == dcomfunc::kGelu);
    EXPECT_EQ(FuncName(""), FuncName());
    EXPECT_STREQ(FuncName().c_str(), "");
    EXPECT_FALSE(FuncName().isKnown());
    EXPECT_FALSE(FuncName("teleport").isKnown());
    EXPECT_EQ(FuncName("teleport").view(), "teleport");
}

TEST(FuncNameTest, ParsingUnknownNamesInternsAcrossThreads)
{
    constexpr int kThreads = 8;
    constexpr int kNames = 64;
    std::vector<std::vector<FuncName>> seen(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t, &seen] {
            for (int i = 0; i < kNames; ++i) {
                // Threads walk the names in different orders, so first
                // insertions race with lookups.
                const int n = (i * 7 + t * 13) % kNames;
                auto op = parseOpLine("fn" + std::to_string(n) +
                                      "(src=L0[0], dst=L0[1], len=1)");
                seen[t].push_back(op.isOk() ? op.value().func : FuncName());
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(seen[t].size(), static_cast<std::size_t>(kNames));
        for (int i = 0; i < kNames; ++i) {
            const int n = (i * 7 + t * 13) % kNames;
            const std::string text = "fn" + std::to_string(n);
            EXPECT_EQ(seen[t][i], FuncName(text)) << text;
            EXPECT_EQ(seen[t][i].view(), text);
            EXPECT_FALSE(seen[t][i] == FuncName("fn" + std::to_string(
                                                   (n + 1) % kNames)));
        }
    }
}

TEST(FuncNameTest, UnknownDcomMessageNamesTheFunction)
{
    auto op = parseOpLine("teleport(src=L0[0], dst=L0[1], len=1)");
    ASSERT_TRUE(op.isOk());
    MopProgram program("p", "WLM");
    program.emit(op.value());
    const auto diags = collectProgramDiagnostics(
        program, presets::tutorialTable2(ComputeMode::kWLM));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "struct-dcom-func");
    EXPECT_EQ(diags[0].message, "unknown DCOM function 'teleport'");
}

// Round-trip property: print -> parse -> print must be a fixed point.
class OpRoundTripTest : public testing::TestWithParam<std::string>
{
};

TEST_P(OpRoundTripTest, PrintParsePrintIsStable)
{
    const std::string line = GetParam();
    auto parsed = parseOpLine(line);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().toString(), line);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, OpRoundTripTest,
    testing::Values(
        "cim.readcore(conv, cin=3, h=32, w=32, cout=32, k=3, s=1, p=1, "
        "coreaddr=0, src=L0[0], dst=L0[3072])",
        "cim.readcore(linear, fin=128, fout=10, wb=0, we=4, coreaddr=1, "
        "src=L0[64], dst=L0[128])",
        "cim.readxb(xbaddr=c1.x2, len=1, rows=27, cols=32, src=L1c1[0], "
        "dst=L0[4096])",
        "cim.readrow(rowaddr=c0.x1.r16, len=16, cols=8, src=L1c0[16], "
        "dst=L0[99])",
        "mov(src=L0[0], dst=L1c0[0], len=27)",
        "mov(src=L0[10], dst=L0[20], len=3, count=4, sstride=32, "
        "dstride=3)",
        "relu(src=L0[0], dst=L0[64], len=64)",
        "requant(src=L0[0], dst=L0[64], len=64, shift=6)",
        "add(src1=L0[0], src2=L0[64], dst=L0[128], len=64)",
        "maxpool(src=L0[0], dst=L0[256], len=256, k=2, s=2, p=0, c=4, "
        "h=8, w=8)",
        "zero(src=L0[0], dst=L0[5], len=27)"));

TEST(ParserTest, ParsesWriteShapes)
{
    auto op = parseOpLine("cim.writexb(xbaddr=c0.x1, mat=[32, 64])");
    ASSERT_TRUE(op.isOk());
    EXPECT_EQ(op.value().kind, MetaOpKind::kWriteXb);
    EXPECT_EQ(op.value().rows, 32);
    EXPECT_EQ(op.value().cols, 64);
    EXPECT_EQ(op.value().payload, nullptr); // data not in surface syntax
}

TEST(ParserTest, RejectsMalformedLines)
{
    EXPECT_FALSE(parseOpLine("not an op").isOk());
    EXPECT_FALSE(parseOpLine("mov(src=L7[0], dst=L0[0], len=1)").isOk());
    EXPECT_FALSE(
        parseOpLine("cim.readxb(xbaddr=banana, len=1)").isOk());
    EXPECT_FALSE(parseOpLine("mov(src=L0[x], dst=L0[0], len=1)").isOk());
}

TEST(ParserTest, ParsesFullProgramStructure)
{
    const std::string text = R"(
// header comment
init:
    cim.writexb(xbaddr=c0.x0, mat=[27, 32])
compute:
    repeat 4 {
        mov(src=L0[0], dst=L1c0[0], len=27)
        parallel {
            cim.readxb(xbaddr=c0.x0, len=1, rows=27, cols=32, src=L1c0[0], dst=L0[64])
        }
    }
    relu(src=L0[64], dst=L0[64], len=32)
)";
    auto program = parseProgram(text);
    ASSERT_TRUE(program.isOk()) << program.status().toString();
    EXPECT_EQ(program.value().init().size(), 1u);
    EXPECT_EQ(program.value().compute().size(), 2u);
    const MopCounts counts = program.value().counts();
    EXPECT_EQ(counts.cim_writes, 1);
    EXPECT_EQ(counts.cim_reads, 4); // repeat expands
    EXPECT_EQ(counts.mov, 4);
    EXPECT_EQ(counts.dcom, 1);
    EXPECT_EQ(counts.parallel_blocks, 4);
}

TEST(ParserTest, RejectsUnterminatedBlock)
{
    EXPECT_FALSE(parseProgram("parallel {\n mov(src=L0[0], dst=L0[1], "
                              "len=1)\n").isOk());
    EXPECT_FALSE(parseProgram("repeat x {\n}\n").isOk());
}

TEST(ProgramTest, CountsAndSummary)
{
    MopProgram program("p", "XBM");
    program.emitInit(makeReadXb()); // counts as read even in init
    program.emit(makeReadXb());
    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    mov.len = 8;
    program.emit(mov);
    EXPECT_EQ(program.counts().cim_reads, 2);
    EXPECT_EQ(program.counts().mov, 1);
    EXPECT_EQ(program.counts().total(), 3);
    EXPECT_NE(program.summary().find("p [XBM]"), std::string::npos);
}

TEST(ProgramTest, NonPositiveRepeatsCountNothing)
{
    // Funcsim and the event engine run such a repeat zero times.
    auto program =
        parseProgram("repeat -3 {\n mov(src=L0[0], dst=L0[8], len=4)\n}\n");
    ASSERT_TRUE(program.isOk()) << program.status().toString();
    EXPECT_EQ(program.value().counts(), MopCounts{});
    EXPECT_NE(program.value().summary().find(": 0 ops ("), std::string::npos)
        << program.value().summary();
}

TEST(ProgramTest, HugeRepeatCountsSaturate)
{
    // 2^62 x 4 movs overflow int64: the count stops at INT64_MAX, and
    // so does an op appended after it.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    auto program = parseProgram(
        "repeat 4611686018427387904 {\n repeat 4 {\n"
        "  mov(src=L0[0], dst=L0[8], len=4)\n }\n}\n"
        "relu(src=L0[0], dst=L0[8], len=4)\n");
    ASSERT_TRUE(program.isOk()) << program.status().toString();
    MopProgram flow = program.value();
    EXPECT_EQ(flow.counts().mov, kMax);
    EXPECT_EQ(flow.counts().dcom, 1);
    EXPECT_EQ(flow.counts().total(), kMax);
    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    flow.emit(mov);
    EXPECT_EQ(flow.counts().mov, kMax);
    EXPECT_NE(flow.summary().find(": 9223372036854775807 ops ("),
              std::string::npos)
        << flow.summary();
}

TEST(ProgramTest, ForEachOpExpandsRepeats)
{
    MopProgram program("p", "XBM");
    program.computeBuilder().append(
        Stmt::makeRepeat(3, {Stmt::makeOp(makeReadXb())}));
    int visits = 0;
    program.forEachOp([&](const MetaOp &) { ++visits; });
    EXPECT_EQ(visits, 3);
}

TEST(PrinterTest, SectionsAndIndentation)
{
    MopProgram program("p", "XBM");
    program.emitInit(makeReadXb());
    program.computeBuilder().append(
        Stmt::makeParallel({Stmt::makeOp(makeReadXb())}));
    const std::string text = printProgram(program);
    EXPECT_NE(text.find("init:\n"), std::string::npos);
    EXPECT_NE(text.find("compute:\n"), std::string::npos);
    EXPECT_NE(text.find("    parallel {\n"), std::string::npos);
    EXPECT_NE(text.find("        cim.readxb"), std::string::npos);
}

TEST(PrinterTest, TruncationMarks)
{
    MopProgram program("p", "XBM");
    for (int i = 0; i < 10; ++i)
        program.emit(makeReadXb());
    PrintOptions options;
    options.max_statements = 3;
    const std::string line = "    " + makeReadXb().toString() + "\n";
    EXPECT_EQ(printStatements(program.compute(), 1, 3),
              line + line + line + "    ... (truncated)\n");
    const std::string text = printProgram(program, options);
    EXPECT_NE(text.find("... (truncated)"), std::string::npos);
}

/** `repeat 4 { mov x5 }`, the shape of a compressed window loop. */
Stmt
repeatOfMovs()
{
    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    std::vector<Stmt> body;
    for (int i = 0; i < 5; ++i) {
        mov.dst.offset = i;
        body.push_back(Stmt::makeOp(mov));
    }
    return Stmt::makeRepeat(4, std::move(body));
}

TEST(PrinterTest, TruncationInsideABlockIsMarkedOnce)
{
    const std::string mov0 = "        mov(src=L0[0], dst=L0[0], len=1)\n";
    const std::string mov1 = "        mov(src=L0[0], dst=L0[1], len=1)\n";
    const std::string cut = "    repeat 4 {\n" + mov0 + mov1 +
                            "        ... (truncated)\n    }\n";
    // The cut block is the last top-level statement.
    const std::vector<Stmt> last = {repeatOfMovs()};
    EXPECT_EQ(printStatements(last, 1, 3), cut);
    // More top-level statements follow: still one marker, at the depth
    // of the first skipped statement.
    const std::vector<Stmt> nested = {repeatOfMovs(),
                                      Stmt::makeOp(makeReadXb())};
    EXPECT_EQ(printStatements(nested, 1, 3), cut);
    // Cut between blocks: the marker sits at the top level.
    EXPECT_EQ(printStatements(nested, 1, 6),
              printStatements(last, 1, 0) + "    ... (truncated)\n");
}

TEST(PrinterTest, SectionThatFitsExactlyHasNoMarker)
{
    const std::vector<Stmt> stmts = {repeatOfMovs()};
    const std::string full = printStatements(stmts, 1, 0);
    EXPECT_EQ(full.find("truncated"), std::string::npos);
    EXPECT_EQ(printStatements(stmts, 1, 6), full);
    EXPECT_EQ(printStatements(stmts, 1, 100), full);
}

// ----- validator ----------------------------------------------------------

class ValidatorTest : public testing::Test
{
  protected:
    CimArchitecture arch_ = presets::tutorialTable2(ComputeMode::kWLM);
};

TEST_F(ValidatorTest, AcceptsWellFormedFlow)
{
    MopProgram program("p", "WLM");
    MetaOp write;
    write.kind = MetaOpKind::kWriteRow;
    write.core = 0;
    write.xb = 0;
    write.row = 0;
    write.len = 16;
    program.emitInit(write);
    MetaOp read;
    read.kind = MetaOpKind::kReadRow;
    read.core = 0;
    read.xb = 0;
    read.row = 0;
    read.len = 16;
    read.cols = 8;
    program.emit(read);
    EXPECT_TRUE(validateProgram(program, arch_).isOk());
}

TEST_F(ValidatorTest, RejectsCoreOutOfRange)
{
    MopProgram program("p", "WLM");
    MetaOp op = {};
    op.kind = MetaOpKind::kReadXb;
    op.core = 99;
    op.len = 1;
    program.emit(op);
    EXPECT_FALSE(validateProgram(program, arch_).isOk());
}

TEST_F(ValidatorTest, RejectsRowGroupBeyondParallelRow)
{
    MopProgram program("p", "WLM");
    MetaOp op = {};
    op.kind = MetaOpKind::kReadRow;
    op.core = 0;
    op.xb = 0;
    op.row = 0;
    op.len = 17; // parallel_row is 16
    program.emit(op);
    const Status status = validateProgram(program, arch_);
    EXPECT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("parallel_row"), std::string::npos);
}

TEST_F(ValidatorTest, RejectsModeMismatch)
{
    const CimArchitecture cm = presets::tutorialTable2(ComputeMode::kCM);
    MopProgram program("p", "CM");
    MetaOp op = {};
    op.kind = MetaOpKind::kReadXb;
    op.len = 1;
    program.emit(op);
    EXPECT_FALSE(validateProgram(program, cm).isOk());
    // But the same op is legal under XBM.
    const CimArchitecture xbm =
        presets::tutorialTable2(ComputeMode::kXBM);
    EXPECT_TRUE(validateProgram(program, xbm).isOk());
}

TEST_F(ValidatorTest, RejectsRuntimeWritesOnReram)
{
    CimArchitecture reram = presets::isaacBaseline();
    MopProgram program("p", "XBM");
    MetaOp op = {};
    op.kind = MetaOpKind::kWriteXb;
    program.emit(op); // compute-section write
    const Status status = validateProgram(program, reram);
    EXPECT_FALSE(status.isOk());
    // The same write in the init section is fine.
    MopProgram ok("p", "XBM");
    ok.emitInit(op);
    EXPECT_TRUE(validateProgram(ok, reram).isOk());
    // And enforcement can be disabled.
    ValidateOptions relaxed;
    relaxed.enforce_write_policy = false;
    EXPECT_TRUE(validateProgram(program, reram, relaxed).isOk());
}

TEST_F(ValidatorTest, RejectsNestedParallel)
{
    MopProgram program("p", "WLM");
    MetaOp mov = {};
    mov.kind = MetaOpKind::kMov;
    mov.len = 1;
    program.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeParallel({Stmt::makeOp(mov)})}));
    EXPECT_FALSE(validateProgram(program, arch_).isOk());
}

TEST_F(ValidatorTest, RejectsUnknownDcomAndBadMov)
{
    MopProgram program("p", "WLM");
    MetaOp op = {};
    op.kind = MetaOpKind::kDcom;
    op.func = "teleport";
    program.emit(op);
    EXPECT_FALSE(validateProgram(program, arch_).isOk());

    MopProgram program2("p", "WLM");
    MetaOp mov = {};
    mov.kind = MetaOpKind::kMov;
    mov.len = 0;
    program2.emit(mov);
    EXPECT_FALSE(validateProgram(program2, arch_).isOk());
}

TEST_F(ValidatorTest, L1CapacityChecked)
{
    CimArchitecture arch = presets::puma(); // L1 = 1 KiB = 256 elements
    MopProgram program("p", "XBM");
    MetaOp mov = {};
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL0, 0, 0};
    mov.dst = {MemSpace::kL1, 0, 200};
    mov.len = 100; // 200 + 100 > 256
    program.emit(mov);
    EXPECT_FALSE(validateProgram(program, arch).isOk());
}

/** The one structural finding of a program holding just @p mov. */
std::vector<MopDiagnostic>
movFindings(const MetaOp &mov, const CimArchitecture &arch)
{
    MopProgram program("p", arch.mode == ComputeMode::kWLM ? "WLM" : "XBM");
    program.emit(mov);
    return collectProgramDiagnostics(program, arch);
}

TEST_F(ValidatorTest, NegativeStrideMovBoundedByItsLowestBlock)
{
    // Block 1 reads L0[-10, 30): below the buffer.
    MetaOp mov = {};
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL0, 0, 20};
    mov.dst = {MemSpace::kL0, 0, 0};
    mov.len = 40;
    mov.count = 2;
    mov.src_stride = -30;
    mov.dst_stride = 40;
    std::vector<MopDiagnostic> diags = movFindings(mov, arch_);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "struct-addr");
    EXPECT_NE(diags[0].message.find("negative buffer address"),
              std::string::npos)
        << diags[0].message;

    // Blocks that run down but stay inside the buffer are fine.
    mov.src_stride = -20;
    EXPECT_TRUE(movFindings(mov, arch_).empty());
}

TEST_F(ValidatorTest, NegativeStrideMovBoundedByItsHighestBlock)
{
    const CimArchitecture arch = presets::puma(); // L1 = 256 elements
    // Block 0 is L1c0[251, 261); block 1 runs down to [241, 251).
    MetaOp mov = {};
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL1, 0, 251};
    mov.dst = {MemSpace::kL0, 0, 0};
    mov.len = 10;
    mov.count = 2;
    mov.src_stride = -10;
    mov.dst_stride = 10;
    std::vector<MopDiagnostic> diags = movFindings(mov, arch);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "struct-addr");
    EXPECT_NE(diags[0].message.find("L1 overflow (261 > 256 elems)"),
              std::string::npos)
        << diags[0].message;

    // As is the same overrun with the stride running up.
    mov.src_stride = 10;
    diags = movFindings(mov, arch);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("L1 overflow (271 > 256 elems)"),
              std::string::npos)
        << diags[0].message;
}

TEST_F(ValidatorTest, MovExtentPastTheElementBoundIsAnAddressFinding)
{
    MetaOp mov = {};
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL0, 0, 0};
    mov.dst = {MemSpace::kL0, 0, 0};
    mov.len = 1;
    mov.count = 3;
    mov.src_stride = std::numeric_limits<std::int64_t>::max() / 2 + 1;
    std::vector<MopDiagnostic> diags = movFindings(mov, arch_);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "struct-addr");
    EXPECT_NE(diags[0].message.find("past 2^59 elements"), std::string::npos)
        << diags[0].message;

    // An in-range hull whose base pushes it past int64 as well, and one
    // that stays in int64 but ends past the element bound.
    mov.src_stride = 1;
    mov.src.offset = std::numeric_limits<std::int64_t>::max() - 1;
    diags = movFindings(mov, arch_);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("past 2^59 elements"), std::string::npos)
        << diags[0].message;
    mov.src.offset = kMaxBufferElements - 2;
    diags = movFindings(mov, arch_);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("past 2^59 elements"), std::string::npos)
        << diags[0].message;
}

TEST_F(ValidatorTest, MovWithNoBlocksHasNoHull)
{
    // count - 1 would overflow int64 for the lowest count.
    constexpr std::int64_t kLowest = std::numeric_limits<std::int64_t>::min();
    EXPECT_FALSE(stridedHull(1, kLowest, 1).has_value());
    EXPECT_FALSE(stridedHull(1, 0, 1).has_value());
    EXPECT_FALSE(stridedHull(kLowest, 2, 1).has_value());

    MetaOp mov = {};
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL0, 0, 0};
    mov.dst = {MemSpace::kL0, 0, 0};
    mov.len = 1;
    mov.count = kLowest;
    mov.src_stride = -1;
    const std::vector<MopDiagnostic> diags = movFindings(mov, arch_);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].check, "struct-mov");
}

TEST_F(ValidatorTest, CrossbarRangeChecksTakeExtremeFields)
{
    // Each bound would overflow int64 if computed as written in the
    // check's message: row + len, and logical cols * len.
    MopProgram program("p", "WLM");
    MetaOp row = {};
    row.kind = MetaOpKind::kReadRow;
    row.row = 1;
    row.len = std::numeric_limits<std::int64_t>::max();
    program.emit(row);
    MetaOp xb = {};
    xb.kind = MetaOpKind::kReadXb;
    xb.len = std::numeric_limits<std::int64_t>::min();
    xb.cols = 1;
    program.emit(xb);
    const std::vector<MopDiagnostic> diags =
        collectProgramDiagnostics(program, arch_);
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_NE(diags[0].message.find("readrow range exceeds crossbar"),
              std::string::npos)
        << diags[0].message;
    EXPECT_NE(diags[1].message.find("readxb cols exceed capacity"),
              std::string::npos)
        << diags[1].message;
}

} // namespace
} // namespace cimmlc
