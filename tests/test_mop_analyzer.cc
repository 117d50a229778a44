/**
 * @file
 * Tests for "mopcheck", the meta-operator dataflow analyzer: per-check
 * fault triggers (use-before-def, races, capacity, dead stores, unused
 * programming), live-range capacity semantics, shuffle invariance of
 * parallel-block findings, repeat-body deduplication (races reported
 * once per block however often its body is replayed), the collect-all
 * structural mode, fault injection into compiled flows, and a
 * clean-on-all-presets golden over fast model/arch pairs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "arch/presets.h"
#include "compiler/session.h"
#include "mop/analyzer.h"
#include "mop/validator.h"

namespace cimmlc {
namespace {

// ----- op builders --------------------------------------------------------

MetaOp
movOp(const BufAddr &src, const BufAddr &dst, std::int64_t len)
{
    MetaOp op;
    op.kind = MetaOpKind::kMov;
    op.src = src;
    op.dst = dst;
    op.len = len;
    return op;
}

MetaOp
zeroOp(const BufAddr &dst, std::int64_t len)
{
    MetaOp op;
    op.kind = MetaOpKind::kDcom;
    op.func = dcomfunc::kZero;
    op.dst = dst;
    op.len = len;
    return op;
}

MetaOp
reluOp(const BufAddr &src, const BufAddr &dst, std::int64_t len)
{
    MetaOp op;
    op.kind = MetaOpKind::kDcom;
    op.func = dcomfunc::kRelu;
    op.src = src;
    op.dst = dst;
    op.len = len;
    return op;
}

MetaOp
writeXbOp(std::int64_t core, std::int64_t xb, std::int64_t rows)
{
    MetaOp op;
    op.kind = MetaOpKind::kWriteXb;
    op.core = core;
    op.xb = xb;
    op.len = rows; // no payload: programmed rows fall back to len
    op.rows = rows;
    op.cols = 32;
    return op;
}

MetaOp
readXbOp(std::int64_t core, std::int64_t xb, std::int64_t rows,
         std::int64_t cols, const BufAddr &src, const BufAddr &dst)
{
    MetaOp op;
    op.kind = MetaOpKind::kReadXb;
    op.core = core;
    op.xb = xb;
    op.len = 1;
    op.rows = rows;
    op.cols = cols;
    op.src = src;
    op.dst = dst;
    return op;
}

LiveInRegion
liveIn(MemSpace space, std::int64_t core, std::int64_t begin,
       std::int64_t end)
{
    LiveInRegion region;
    region.space = space;
    region.core = core;
    region.begin = begin;
    region.end = end;
    return region;
}

/** Dataflow-only options: the structural validator is exercised in its
 * own tests, and keeping it out isolates what each analyzer check
 * contributes. */
AnalyzeOptions
dataflowOnly()
{
    AnalyzeOptions options;
    options.structural = false;
    return options;
}

bool
hasCheck(const AnalyzeResult &result, const std::string &check)
{
    return std::any_of(result.diagnostics.begin(),
                       result.diagnostics.end(),
                       [&](const MopDiagnostic &diag) {
                           return diag.check == check;
                       });
}

// ----- clean flows --------------------------------------------------------

TEST(MopAnalyzerTest, CleanFlowReportsStatsOnly)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.emitInit(writeXbOp(0, 0, 27));
    program.emit(movOp({MemSpace::kL0, 0, 0}, {MemSpace::kL1, 0, 0}, 27));
    program.emit(zeroOp({MemSpace::kL0, 0, 64}, 32));
    program.emit(readXbOp(0, 0, 27, 32, {MemSpace::kL1, 0, 0},
                          {MemSpace::kL0, 0, 64}));
    program.emit(reluOp({MemSpace::kL0, 0, 64}, {MemSpace::kL0, 0, 64},
                        32));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 27));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(result.clean()) << result.table();
    EXPECT_EQ(result.statements, 5);
    EXPECT_EQ(result.ops, 5);
    EXPECT_EQ(result.crossbars_programmed, 1);
    EXPECT_EQ(result.l1_peak_live_elems, 27);
    EXPECT_NE(result.summary().find("mopcheck: clean"),
              std::string::npos);
}

// ----- use-before-def -----------------------------------------------------

TEST(MopAnalyzerTest, UseBeforeDefBuffer)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.emit(movOp({MemSpace::kL0, 0, 0}, {MemSpace::kL1, 0, 0}, 27));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    ASSERT_EQ(result.errors(), 1);
    EXPECT_EQ(result.diagnostics[0].check, "use-before-def-buffer");
    EXPECT_EQ(result.diagnostics[0].code,
              StatusCode::kFailedPrecondition);
    EXPECT_NE(result.diagnostics[0].message.find("never written"),
              std::string::npos);

    // The same read is fine once the region is declared live-in.
    AnalyzeOptions covered = dataflowOnly();
    covered.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 27));
    EXPECT_TRUE(analyzeProgram(program, arch, covered).clean());
}

TEST(MopAnalyzerTest, UseBeforeDefXbarAlsoFiresOnCompressedFlows)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.emit(readXbOp(0, 0, 27, 32, {MemSpace::kL1, 0, 0},
                          {MemSpace::kL0, 0, 64}));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL1, 0, 0, 27));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(result, "use-before-def-xbar"))
        << result.table();

    // Crossbar state is per-instance, so the check stays sound on
    // compressed (non-executable) flows.
    options.executable = false;
    EXPECT_TRUE(hasCheck(analyzeProgram(program, arch, options),
                         "use-before-def-xbar"));
}

TEST(MopAnalyzerTest, UseBeforeDefCore)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    MopProgram program("p", "WLM");
    MetaOp conv;
    conv.kind = MetaOpKind::kReadCore;
    conv.core = 0;
    CoreOpParams &params = conv.mutableCoreParams();
    params.is_conv = true;
    params.in_channels = 1;
    params.in_h = 4;
    params.in_w = 4;
    params.out_channels = 2;
    params.kernel = 3;
    params.stride = 1;
    params.padding = 1;
    conv.src = {MemSpace::kL0, 0, 0};
    conv.dst = {MemSpace::kL0, 0, 64};
    program.emit(conv);

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 16));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(result, "use-before-def-core"))
        << result.table();
}

TEST(MopAnalyzerTest, LowestCountsLeaveNoFootprint)
{
    // A parsed mov count or conv channel count at the int64 minimum
    // has no blocks; only the structural check reports it.
    constexpr std::int64_t kLowest = std::numeric_limits<std::int64_t>::min();
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    MopProgram program("p", "WLM");
    MetaOp mov = movOp({MemSpace::kL0, 0, 0}, {MemSpace::kL0, 0, 64}, 4);
    mov.count = kLowest;
    mov.src_stride = -1;
    mov.dst_stride = -1;
    program.emit(mov);
    MetaOp conv;
    conv.kind = MetaOpKind::kReadCore;
    conv.core = 0;
    CoreOpParams &params = conv.mutableCoreParams();
    params.is_conv = true;
    params.in_channels = 1;
    params.in_h = 4;
    params.in_w = 4;
    params.out_channels = kLowest;
    params.kernel = 3;
    params.stride = 1;
    params.padding = 1;
    conv.src = {MemSpace::kL0, 0, 0};
    conv.dst = {MemSpace::kL0, 0, 64};
    program.emit(conv);

    for (const bool executable : {true, false}) {
        AnalyzeOptions options = dataflowOnly();
        options.executable = executable;
        options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 16));
        const AnalyzeResult dataflow = analyzeProgram(program, arch, options);
        EXPECT_FALSE(hasCheck(dataflow, "use-before-def-buffer"))
            << dataflow.table();
        EXPECT_EQ(dataflow.l0_peak_live_elems, 16) << dataflow.table();

        options.structural = true;
        const AnalyzeResult full = analyzeProgram(program, arch, options);
        EXPECT_TRUE(hasCheck(full, "struct-mov")) << full.table();
    }
}

// ----- races in parallel blocks -------------------------------------------

TEST(MopAnalyzerTest, RaceWriteWriteAndShuffleInvariance)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16)),
         Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 8}, 16))}));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    ASSERT_TRUE(hasCheck(result, "race-write-write")) << result.table();

    // Permuting the arms must reproduce the identical report.
    MopProgram shuffled("p", "XBM");
    shuffled.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 8}, 16)),
         Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16))}));
    const AnalyzeResult again =
        analyzeProgram(shuffled, arch, dataflowOnly());
    ASSERT_EQ(result.diagnostics.size(), again.diagnostics.size());
    for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
        EXPECT_EQ(result.diagnostics[i].check, again.diagnostics[i].check);
        EXPECT_EQ(result.diagnostics[i].message,
                  again.diagnostics[i].message);
        EXPECT_EQ(result.diagnostics[i].stmt_index,
                  again.diagnostics[i].stmt_index);
    }
}

TEST(MopAnalyzerTest, RaceReadWrite)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16)),
         Stmt::makeOp(reluOp({MemSpace::kL0, 0, 8},
                             {MemSpace::kL0, 0, 100}, 16))}));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 32));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(result, "race-read-write")) << result.table();
}

TEST(MopAnalyzerTest, OverlappingAccumulatesAreLegal)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.emitInit(writeXbOp(0, 0, 27));
    program.emitInit(writeXbOp(0, 1, 27));
    program.emit(zeroOp({MemSpace::kL0, 0, 64}, 32));
    // CIM reads accumulate commutatively, so two arms adding into the
    // same destination region do not race.
    program.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeOp(readXbOp(0, 0, 27, 32, {MemSpace::kL1, 0, 0},
                               {MemSpace::kL0, 0, 64})),
         Stmt::makeOp(readXbOp(0, 1, 27, 32, {MemSpace::kL1, 0, 0},
                               {MemSpace::kL0, 0, 64}))}));
    program.emit(reluOp({MemSpace::kL0, 0, 64}, {MemSpace::kL0, 0, 64},
                        32));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL1, 0, 0, 27));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(result.clean()) << result.table();
}

TEST(MopAnalyzerTest, RaceXbarOnConflictingProgramming)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeOp(writeXbOp(0, 0, 27)),
         Stmt::makeOp(writeXbOp(0, 0, 27))}));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_TRUE(hasCheck(result, "race-xbar")) << result.table();
}

TEST(MopAnalyzerTest, RaceCoreOnInstallVsUse)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kCM);
    MetaOp install;
    install.kind = MetaOpKind::kWriteCore;
    install.core = 0;
    MetaOp use;
    use.kind = MetaOpKind::kReadCore;
    use.core = 0;
    CoreOpParams &params = use.mutableCoreParams();
    params.is_conv = false;
    params.in_features = 8;
    params.out_features = 4;
    use.src = {MemSpace::kL0, 0, 0};
    use.dst = {MemSpace::kL0, 0, 32};

    MopProgram program("p", "CM");
    program.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeOp(install), Stmt::makeOp(use)}));

    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 8));
    const AnalyzeResult result = analyzeProgram(program, arch, options);
    EXPECT_TRUE(hasCheck(result, "race-core")) << result.table();
}

// ----- dead stores and unused programming ---------------------------------

TEST(MopAnalyzerTest, DeadStoreWarnsOnlyWithoutInterveningRead)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram dead("p", "XBM");
    dead.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    dead.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    dead.emit(reluOp({MemSpace::kL0, 0, 0}, {MemSpace::kL0, 0, 64}, 16));

    const AnalyzeResult result =
        analyzeProgram(dead, arch, dataflowOnly());
    EXPECT_EQ(result.errors(), 0) << result.table();
    ASSERT_EQ(result.warnings(), 1);
    EXPECT_EQ(result.diagnostics[0].check, "dead-store");
    EXPECT_EQ(result.diagnostics[0].severity, DiagSeverity::kWarning);
    EXPECT_FALSE(result.clean());

    // A read between the two stores acquits the first one.
    MopProgram read("p", "XBM");
    read.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    read.emit(reluOp({MemSpace::kL0, 0, 0}, {MemSpace::kL0, 0, 64}, 16));
    read.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    EXPECT_EQ(analyzeProgram(read, arch, dataflowOnly()).warnings(), 0);
}

TEST(MopAnalyzerTest, UnusedAndOverwrittenXbarProgramming)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram unused("p", "XBM");
    unused.emitInit(writeXbOp(0, 0, 27));

    const AnalyzeResult warned =
        analyzeProgram(unused, arch, dataflowOnly());
    EXPECT_TRUE(hasCheck(warned, "xbar-unused-write")) << warned.table();
    EXPECT_EQ(warned.errors(), 0);

    // Reprogramming rows whose weights were never activated loses them.
    MopProgram clobbered("p", "XBM");
    clobbered.emitInit(writeXbOp(0, 0, 27));
    clobbered.emitInit(writeXbOp(0, 0, 27));
    const AnalyzeResult overwrote =
        analyzeProgram(clobbered, arch, dataflowOnly());
    EXPECT_TRUE(hasCheck(overwrote, "xbar-overwrite"))
        << overwrote.table();

    // Compressed flows only activate the representative replica's
    // crossbars, so neither conclusion is provable there.
    AnalyzeOptions compressed = dataflowOnly();
    compressed.executable = false;
    EXPECT_TRUE(analyzeProgram(unused, arch, compressed).clean());
    EXPECT_FALSE(hasCheck(analyzeProgram(clobbered, arch, compressed),
                          "xbar-overwrite"));
}

// ----- capacity -----------------------------------------------------------

TEST(MopAnalyzerTest, CapacityL1OverflowOnSimultaneousLiveRanges)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    arch.core.l1_size_kib = 1.0; // 256 elements
    MopProgram program("p", "XBM");
    program.emit(zeroOp({MemSpace::kL1, 0, 0}, 200));
    program.emit(zeroOp({MemSpace::kL1, 0, 200}, 200));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_EQ(result.l1_peak_live_elems, 400);
    ASSERT_TRUE(hasCheck(result, "capacity-l1")) << result.table();
    const auto it = std::find_if(result.diagnostics.begin(),
                                 result.diagnostics.end(),
                                 [](const MopDiagnostic &d) {
                                     return d.check == "capacity-l1";
                                 });
    EXPECT_EQ(it->code, StatusCode::kResourceExhausted);
}

TEST(MopAnalyzerTest, CapacityLiveRangesEndAtLastUse)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    arch.core.l1_size_kib = 1.0; // 256 elements
    // The first buffer dies (redefined) before the second is born, so
    // the peak is 200 elements, not 400.
    MopProgram program("p", "XBM");
    program.emit(zeroOp({MemSpace::kL1, 0, 0}, 200));
    program.emit(movOp({MemSpace::kL1, 0, 0}, {MemSpace::kL0, 0, 0},
                       200));
    program.emit(zeroOp({MemSpace::kL1, 0, 0}, 200));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_TRUE(result.clean()) << result.table();
    EXPECT_EQ(result.l1_peak_live_elems, 200);
}

TEST(MopAnalyzerTest, CapacityFindingAnchorsAtTheFirstPeak)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    arch.core.l1_size_kib = 0.0625; // 16 elements
    // Bank 1 peaks at 20 elements twice: at statement 0, whose value is
    // never read, and again at the last statement. Between them run
    // `gap` L0 ops, so bank 1 sees few live-range changes over few
    // (gap 1) or many (gap 100) timestamps.
    for (const int gap : {1, 100}) {
        MopProgram program("p", "XBM");
        program.emit(zeroOp({MemSpace::kL1, 1, 0}, 20));
        for (int i = 0; i < gap; ++i)
            program.emit(zeroOp({MemSpace::kL0, 0, 0}, 4));
        program.emit(zeroOp({MemSpace::kL1, 1, 0}, 20));

        const AnalyzeResult result =
            analyzeProgram(program, arch, dataflowOnly());
        EXPECT_EQ(result.l1_peak_live_elems, 20);
        const auto it = std::find_if(result.diagnostics.begin(),
                                     result.diagnostics.end(),
                                     [](const MopDiagnostic &d) {
                                         return d.check == "capacity-l1";
                                     });
        ASSERT_NE(it, result.diagnostics.end()) << result.table();
        EXPECT_EQ(it->stmt_index, 0) << "gap " << gap;
    }
}

TEST(MopAnalyzerTest, CapacityL0FollowsEnforcementKnob)
{
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    arch.chip.l0_size_kib = 1.0; // 256 elements
    MopProgram program("p", "XBM");
    program.emit(zeroOp({MemSpace::kL0, 0, 0}, 400));

    AnalyzeOptions options = dataflowOnly();
    EXPECT_TRUE(hasCheck(analyzeProgram(program, arch, options),
                         "capacity-l0"));

    // Emitted flows address a virtual L0 space: the finding is gated,
    // the statistic is not.
    options.validate.enforce_l0_capacity = false;
    const AnalyzeResult relaxed = analyzeProgram(program, arch, options);
    EXPECT_FALSE(hasCheck(relaxed, "capacity-l0")) << relaxed.table();
    EXPECT_EQ(relaxed.l0_peak_live_elems, 400);
}

// ----- repeat blocks ------------------------------------------------------

TEST(MopAnalyzerTest, RepeatFindingsDeduplicate)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    MopProgram program("p", "XBM");
    program.computeBuilder().append(Stmt::makeRepeat(
        3, {Stmt::makeOp(reluOp({MemSpace::kL0, 0, 0},
                                {MemSpace::kL0, 0, 64}, 16))}));

    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_EQ(result.errors(), 1) << result.table();
    EXPECT_EQ(result.diagnostics[0].check, "use-before-def-buffer");
}

TEST(MopAnalyzerTest, RepeatLoopCarriedDefUseIsClean)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    // Each iteration reads the previous iteration's store before
    // replacing it, so no iteration kills an unread value.
    MopProgram program("p", "XBM");
    program.emit(zeroOp({MemSpace::kL0, 0, 0}, 16));
    program.computeBuilder().append(Stmt::makeRepeat(
        4, {Stmt::makeOp(reluOp({MemSpace::kL0, 0, 0},
                                {MemSpace::kL0, 0, 0}, 16))}));
    const AnalyzeResult result =
        analyzeProgram(program, arch, dataflowOnly());
    EXPECT_TRUE(result.clean()) << result.table();

    // Whereas a body whose output is clobbered by the next iteration
    // without a read is a loop-carried dead store.
    MopProgram clobber("p", "XBM");
    clobber.computeBuilder().append(Stmt::makeRepeat(
        4, {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16)),
            Stmt::makeOp(reluOp({MemSpace::kL0, 0, 0},
                                {MemSpace::kL0, 0, 64}, 16))}));
    EXPECT_TRUE(hasCheck(analyzeProgram(clobber, arch, dataflowOnly()),
                         "dead-store"));
}

/** A parallel block with overlapping writes (arms 0 and 1), a write vs
 * read overlap (arms 1 and 2) and a clean arm 3, arms in @p order. */
Stmt
racyBlock(const std::vector<int> &order)
{
    const std::vector<Stmt> arms = {
        Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 0}, 16)),
        Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 8}, 16)),
        Stmt::makeOp(reluOp({MemSpace::kL0, 0, 20},
                            {MemSpace::kL0, 0, 100}, 8)),
        Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 200}, 8))};
    std::vector<Stmt> body;
    body.reserve(order.size());
    for (int arm : order)
        body.push_back(arms[static_cast<std::size_t>(arm)]);
    return Stmt::makeParallel(std::move(body));
}

/** "check|section|index|message" of each race finding, in order. */
std::vector<std::string>
raceFindings(const AnalyzeResult &result)
{
    std::vector<std::string> out;
    for (const MopDiagnostic &diag : result.diagnostics) {
        if (diag.check.rfind("race-", 0) == 0) {
            out.push_back(diag.check + "|" + diag.section + "|" +
                          std::to_string(diag.stmt_index) + "|" +
                          diag.message);
        }
    }
    return out;
}

TEST(MopAnalyzerTest, RepeatedRacyBlockReportsItsRacesOnce)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 300));
    auto lint = [&](std::int64_t count, const std::vector<int> &order) {
        MopProgram program("p", "XBM");
        program.emit(zeroOp({MemSpace::kL0, 0, 300}, 4));
        program.computeBuilder().append(
            Stmt::makeRepeat(count, {racyBlock(order)}));
        return raceFindings(analyzeProgram(program, arch, options));
    };

    const std::vector<std::string> once = lint(1, {0, 1, 2, 3});
    ASSERT_EQ(once.size(), 2u);
    EXPECT_EQ(once[0].rfind("race-read-write|compute|2|", 0), 0u)
        << once[0];
    EXPECT_EQ(once[1].rfind("race-write-write|compute|2|", 0), 0u)
        << once[1];
    for (const std::vector<int> &order :
         {std::vector<int>{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1},
          {1, 3, 0, 2}}) {
        EXPECT_EQ(lint(1, order), once);
        EXPECT_EQ(lint(4, order), once);
    }
}

TEST(MopAnalyzerTest, NestedRepeatInReplayedBodyReportsItsRacesOnce)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    AnalyzeOptions options = dataflowOnly();
    options.live_in.push_back(liveIn(MemSpace::kL0, 0, 0, 300));

    // Statement 0 is the outer repeat, 1 a zero, 2 the inner repeat and
    // 3 the racy block; the outer body is walked twice, the inner body
    // twice per outer pass.
    MopProgram program("p", "XBM");
    program.computeBuilder().append(Stmt::makeRepeat(
        3, {Stmt::makeOp(zeroOp({MemSpace::kL0, 0, 300}, 4)),
            Stmt::makeRepeat(2, {racyBlock({2, 0, 3, 1})})}));
    const AnalyzeResult result = analyzeProgram(program, arch, options);

    // The same block at the same statement index, walked once.
    MopProgram flat("p", "XBM");
    for (int i = 0; i < 3; ++i)
        flat.emit(zeroOp({MemSpace::kL0, 0, 300}, 4));
    flat.computeBuilder().append(racyBlock({0, 1, 2, 3}));
    EXPECT_EQ(raceFindings(result),
              raceFindings(analyzeProgram(flat, arch, options)))
        << result.table();
    EXPECT_EQ(raceFindings(result).size(), 2u) << result.table();
}

// ----- structural pass integration ----------------------------------------

TEST(MopAnalyzerTest, StructuralFindingsCollectAll)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    MopProgram program("p", "WLM");
    MetaOp bad_core;
    bad_core.kind = MetaOpKind::kReadXb;
    bad_core.core = 99;
    bad_core.len = 1;
    program.emit(bad_core);
    MetaOp bad_mov;
    bad_mov.kind = MetaOpKind::kMov;
    bad_mov.len = 0;
    program.emit(bad_mov);

    // Collect-all mode reports both violations in traversal order...
    const std::vector<MopDiagnostic> diags =
        collectProgramDiagnostics(program, arch);
    ASSERT_GE(diags.size(), 2u);
    EXPECT_EQ(diags[0].check, "struct-core-range");
    EXPECT_EQ(diags[1].check, "struct-mov");

    // ...while validateProgram keeps the first-error Status contract.
    const Status first = validateProgram(program, arch);
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.code(), diags[0].code);
    EXPECT_NE(first.message().find("core"), std::string::npos);

    // The full analyzer folds the same findings in ahead of dataflow.
    const AnalyzeResult result = analyzeProgram(program, arch);
    EXPECT_TRUE(hasCheck(result, "struct-core-range"));
    EXPECT_TRUE(hasCheck(result, "struct-mov"));
}

// ----- fault injection into compiled flows --------------------------------

class CompiledFlowFaultTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto arch = presets::byName("isaac-baseline");
        ASSERT_TRUE(arch.isOk());
        arch_ = std::move(arch.value());

        CompileRequest request;
        request.model = "lenet5";
        request.arch = "isaac-baseline";
        request.threads = 1;
        CompilerSession session(std::move(request));
        auto result = session.run();
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        artifacts_ = std::move(result.value());
        ASSERT_TRUE(artifacts_.code.has_value());
    }

    /** Analyzer options matching the session lint stage, minus the
     * live-in plumbing the faults below do not need. */
    AnalyzeOptions
    lintLikeOptions() const
    {
        AnalyzeOptions options;
        options.structural = false;
        options.executable = false; // sound subset: no live-in needed
        return options;
    }

    /** First `parallel {}` block with a CIM-read arm, searching through
     * repeat bodies. */
    static Stmt *
    findCimParallel(std::vector<Stmt> &stmts)
    {
        for (Stmt &stmt : stmts) {
            if (stmt.kind == Stmt::Kind::kParallel) {
                for (const Stmt &arm : stmt.body) {
                    if (arm.kind == Stmt::Kind::kOp &&
                        (arm.op.kind == MetaOpKind::kReadXb ||
                         arm.op.kind == MetaOpKind::kReadRow))
                        return &stmt;
                }
            }
            if (stmt.kind != Stmt::Kind::kOp) {
                if (Stmt *found = findCimParallel(stmt.body))
                    return found;
            }
        }
        return nullptr;
    }

    CimArchitecture arch_;
    CompileArtifacts artifacts_;
};

TEST_F(CompiledFlowFaultTest, DroppedWeightLoadIsCaught)
{
    MopProgram faulty = artifacts_.code->program;
    ASSERT_FALSE(faulty.init().empty());
    ASSERT_EQ(faulty.init().front().kind, Stmt::Kind::kOp);
    faulty.edit([](std::vector<Stmt> &init, std::vector<Stmt> &) {
        init.erase(init.begin());
    });

    const AnalyzeResult result =
        analyzeProgram(faulty, arch_, lintLikeOptions());
    EXPECT_TRUE(hasCheck(result, "use-before-def-xbar"))
        << result.summary();
    EXPECT_GT(result.errors(), 0);
}

TEST_F(CompiledFlowFaultTest, ParallelArmsSharingDstBufferRace)
{
    MopProgram faulty = artifacts_.code->program;
    faulty.edit([](std::vector<Stmt> &, std::vector<Stmt> &compute) {
        Stmt *block = findCimParallel(compute);
        ASSERT_NE(block, nullptr);
        const MetaOp *victim = nullptr;
        for (const Stmt &arm : block->body) {
            if (arm.kind == Stmt::Kind::kOp &&
                (arm.op.kind == MetaOpKind::kReadXb ||
                 arm.op.kind == MetaOpKind::kReadRow)) {
                victim = &arm.op;
                break;
            }
        }
        ASSERT_NE(victim, nullptr);
        // A sibling arm plain-writing the victim's accumulation target
        // is order-dependent: the block is no longer commutative.
        block->body.push_back(
            Stmt::makeOp(zeroOp(victim->dst, victim->cols)));
    });

    const AnalyzeResult result =
        analyzeProgram(faulty, arch_, lintLikeOptions());
    EXPECT_TRUE(hasCheck(result, "race-write-write"))
        << result.summary();
}

// ----- clean-on-all-presets golden ----------------------------------------

/** Every fast bundled model must lint clean on every bundled arch; the
 * full model set is pinned by the batch/CLI sweeps (large models are
 * too slow for a unit test on one core). */
TEST(MopAnalyzerGoldenTest, FastPresetPairsLintClean)
{
    const std::vector<std::string> fast_models = {
        "mlp", "lenet5", "conv_relu_toy", "macro_cnn", "inception_toy"};
    for (const std::string &model : fast_models) {
        for (const std::string &arch : presets::availablePresets()) {
            CompileRequest request;
            request.model = model;
            request.arch = arch;
            request.threads = 1;
            request.lint = true;
            request.lint_strict = true;
            CompilerSession session(std::move(request));
            auto result = session.run();
            ASSERT_TRUE(result.isOk())
                << model << " x " << arch << ": "
                << result.status().toString();
            ASSERT_TRUE(result.value().lint.has_value());
            EXPECT_TRUE(result.value().lint->clean())
                << model << " x " << arch << ":\n"
                << result.value().lint->table();
        }
    }
}

} // namespace
} // namespace cimmlc
