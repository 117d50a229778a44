/**
 * @file
 * Functional-simulator tests: bit-exact equivalence between compiled
 * meta-operator flows and the reference executor (the paper's
 * PyTorch-check methodology, Section 4.1), across models, computing
 * modes, and architectures, plus direct unit tests of the executor.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "arch/presets.h"
#include "cache/artifact_cache.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "funcsim/simulator.h"
#include "funcsim/verify.h"
#include "graph/models.h"
#include "graph/reference.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"

namespace cimmlc {
namespace {

std::map<TensorId, Int8Tensor>
randomInputs(const Graph &g, std::uint64_t seed)
{
    Rng rng(seed);
    std::map<TensorId, Int8Tensor> inputs;
    for (TensorId in : g.inputs()) {
        Int8Tensor t(TensorShape(g.tensor(in).dims));
        t.fillRandom(rng, -16, 16);
        inputs.emplace(in, std::move(t));
    }
    return inputs;
}

// ----- end-to-end bit-exact verification -----------------------------------

class VerifyMatrixTest
    : public testing::TestWithParam<std::tuple<std::string, ComputeMode>>
{
};

TEST_P(VerifyMatrixTest, CompiledFlowMatchesReferenceBitExactly)
{
    const auto [model_name, mode] = GetParam();
    Graph g = models::byName(model_name);
    Rng rng(42);
    g.randomizeWeights(rng);
    CimArchitecture arch = presets::tutorialTable2(mode);
    // Give the tutorial chip enough cores for the larger test nets.
    arch.chip.core_rows = 8;
    arch.xbar.rows = 64;
    arch.xbar.parallel_row = 16;

    auto report = verifyCompiledFlow(g, arch, ScheduleOptions::full(),
                                     randomInputs(g, 7));
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_TRUE(report.value().match) << report.value().first_mismatch;
    EXPECT_GT(report.value().elements_checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, VerifyMatrixTest,
    testing::Combine(testing::Values("conv_relu_toy", "lenet5", "mlp",
                                     "macro_cnn"),
                     testing::Values(ComputeMode::kCM, ComputeMode::kXBM,
                                     ComputeMode::kWLM)));

TEST(VerifyTest, AblationLevelsAllStayBitExact)
{
    Graph g = models::lenet5();
    Rng rng(9);
    g.randomizeWeights(rng);
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kWLM);
    arch.chip.core_rows = 8;
    arch.xbar.rows = 64;
    arch.xbar.parallel_row = 16;
    const auto inputs = randomInputs(g, 1);
    for (const ScheduleOptions &options :
         {ScheduleOptions::none(), ScheduleOptions::cgOnly(),
          ScheduleOptions::cgMvm(), ScheduleOptions::full()}) {
        auto report = verifyCompiledFlow(g, arch, options, inputs);
        ASSERT_TRUE(report.isOk()) << report.status().toString();
        EXPECT_TRUE(report.value().match)
            << options.toString() << ": "
            << report.value().first_mismatch;
    }
}

TEST(VerifyTest, ResidualAddNetworkVerifies)
{
    // Exercises kAdd with a skip connection around a conv.
    Graph g("residual");
    TensorId in = g.addInput("in", {1, 4, 8, 8});
    TensorId a = g.conv2d(in, 4, 3, 1, 1, "conv");
    TensorId sum = g.add(a, in, "skip");
    g.markOutput(g.relu(sum));
    Rng rng(13);
    g.randomizeWeights(rng);
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    auto report = verifyCompiledFlow(g, arch, ScheduleOptions::full(),
                                     randomInputs(g, 3));
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_TRUE(report.value().match) << report.value().first_mismatch;
}

TEST(VerifyTest, AvgPoolNetworkVerifies)
{
    Graph g("pooled");
    TensorId in = g.addInput("in", {1, 3, 8, 8});
    TensorId c = g.conv2d(in, 8, 3, 1, 1);
    TensorId p = g.avgPool2d(c, 2, 2);
    g.markOutput(g.globalAvgPool(p));
    Rng rng(17);
    g.randomizeWeights(rng);
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    auto report = verifyCompiledFlow(g, arch, ScheduleOptions::full(),
                                     randomInputs(g, 5));
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_TRUE(report.value().match) << report.value().first_mismatch;
}

TEST(VerifyTest, DifferentSeedsStillMatch)
{
    Graph g = models::convReluToy();
    Rng rng(100);
    g.randomizeWeights(rng);
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        auto report = verifyCompiledFlow(
            g, arch, ScheduleOptions::full(), randomInputs(g, seed));
        ASSERT_TRUE(report.isOk());
        EXPECT_TRUE(report.value().match) << "seed " << seed;
    }
}

TEST(VerifyTest, OverBudgetFlowFailsBeforeTheReferenceRun)
{
    // resnet18 unrolled on isaac-baseline is ~1.3e8 ops. The graph has
    // no weights, so the reference run would fail with another code:
    // RESOURCE_EXHAUSTED shows the budget is checked before it.
    const Graph g = models::byName("resnet18");
    auto report = verifyCompiledFlow(g, presets::isaacBaseline(),
                                     ScheduleOptions::full(), {});
    ASSERT_FALSE(report.isOk());
    EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted)
        << report.status().toString();
}

// ----- replay goldens across presets -----------------------------------------

/**
 * Replays @p model on @p preset the way the session's verify stage does
 * (verifyWithRandomStimulus: seed 1234, weights then inputs from one
 * stream, full opt) and renders the simulator's counters, the flow's op
 * count and a digest of every marked output.
 */
StatusOr<std::string>
replayLine(const std::string &model, const std::string &preset)
{
    Graph g = models::byName(model);
    Rng rng(1234);
    g.randomizeWeights(rng);
    std::map<TensorId, Int8Tensor> inputs;
    for (TensorId in : g.inputs()) {
        Int8Tensor t(TensorShape(g.tensor(in).dims));
        t.fillRandom(rng, -16, 16);
        inputs.emplace(in, std::move(t));
    }
    CIMMLC_ASSIGN_OR_RETURN(const CimArchitecture arch,
                            presets::byName(preset));
    CIMMLC_ASSIGN_OR_RETURN(ReferenceResult reference,
                            runReference(g, inputs));
    CIMMLC_ASSIGN_OR_RETURN(
        Schedule schedule, scheduleGraph(g, arch, ScheduleOptions::full()));
    CodegenOptions options;
    options.shifts = reference.shifts;
    CIMMLC_ASSIGN_OR_RETURN(CodegenResult code,
                            generateProgram(g, arch, schedule, options));
    FunctionalSimulator sim(arch, code);
    for (const auto &[tensor, value] : inputs)
        CIMMLC_RETURN_IF_ERROR(sim.loadInput(g, tensor, value));
    CIMMLC_RETURN_IF_ERROR(sim.run());
    ArtifactHash outputs;
    for (TensorId out : g.outputs()) {
        CIMMLC_ASSIGN_OR_RETURN(const Int8Tensor value,
                                sim.readTensor(g, out));
        std::string bytes;
        for (std::int64_t i = 0; i < value.numel(); ++i)
            bytes.push_back(static_cast<char>(value[i]));
        outputs.mix(bytes);
    }
    const FuncSimStats &s = sim.stats();
    return strformat(
        "%s %s ops=%lld cim_reads=%lld cim_writes=%lld macs=%lld "
        "buffer_reads=%lld buffer_writes=%lld flow_ops=%lld outputs=%s",
        model.c_str(), preset.c_str(),
        static_cast<long long>(s.ops_executed),
        static_cast<long long>(s.cim_reads),
        static_cast<long long>(s.cim_writes),
        static_cast<long long>(s.macs),
        static_cast<long long>(s.buffer_reads),
        static_cast<long long>(s.buffer_writes),
        static_cast<long long>(code.program.counts().total()),
        outputs.digest().c_str());
}

// The 25 model x preset pairs the service-mixed benchmark verifies. The
// lines in tests/golden/funcsim_stats.txt were recorded with a simulator
// that zero-filled every crossbar and L1 bank up front, so a match shows
// that allocating state on first write moves no counter and no output.
// On a mismatch the replayed lines are written to
// funcsim_stats.txt.actual.
TEST(FuncsimGoldenTest, ReplayMatchesRecordedStatsOnEveryPreset)
{
    std::ifstream in(std::string(CIMMLC_SOURCE_DIR) +
                     "/tests/golden/funcsim_stats.txt");
    std::stringstream expected;
    expected << in.rdbuf();
    std::string actual;
    for (const char *model : {"mlp", "lenet5", "conv_relu_toy",
                              "macro_cnn", "inception_toy"}) {
        for (const std::string &preset : presets::availablePresets()) {
            auto line = replayLine(model, preset);
            ASSERT_TRUE(line.isOk())
                << model << " x " << preset << ": "
                << line.status().toString();
            actual += line.value() + "\n";
        }
    }
    if (expected.str() != actual) {
        std::ofstream("funcsim_stats.txt.actual") << actual;
        ADD_FAILURE() << "replay differs from tests/golden/funcsim_stats.txt"
                      << " (actual lines written to "
                         "funcsim_stats.txt.actual)";
    }
}

// ----- simulator unit behaviour ----------------------------------------------

class FuncsimFixture : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        graph_ = models::convReluToy();
        Rng rng(3);
        graph_.randomizeWeights(rng);
        arch_ = presets::tutorialTable2(ComputeMode::kXBM);
        auto schedule =
            scheduleGraph(graph_, arch_, ScheduleOptions::full());
        ASSERT_TRUE(schedule.isOk());
        auto code = generateProgram(graph_, arch_, schedule.value());
        ASSERT_TRUE(code.isOk());
        code_ = std::make_unique<CodegenResult>(
            std::move(code).value());
    }

    Graph graph_{"unset"};
    CimArchitecture arch_;
    std::unique_ptr<CodegenResult> code_;
};

TEST_F(FuncsimFixture, RunWithoutInputYieldsZeroActivity)
{
    FunctionalSimulator sim(arch_, *code_);
    ASSERT_TRUE(sim.run().isOk());
    // All-zero input with zero requant -> all-zero output.
    auto out = sim.readTensor(graph_, graph_.outputs()[0]);
    ASSERT_TRUE(out.isOk());
    for (std::int64_t i = 0; i < out.value().numel(); ++i)
        EXPECT_EQ(out.value()[i], 0);
}

TEST_F(FuncsimFixture, StatsAccumulate)
{
    FunctionalSimulator sim(arch_, *code_);
    ASSERT_TRUE(sim.run().isOk());
    EXPECT_GT(sim.stats().ops_executed, 0);
    EXPECT_EQ(sim.stats().cim_reads, 1024);
    EXPECT_EQ(sim.stats().cim_writes, 4);
    EXPECT_GT(sim.stats().macs, 0);
}

TEST_F(FuncsimFixture, LoadInputValidatesShape)
{
    FunctionalSimulator sim(arch_, *code_);
    Int8Tensor wrong(TensorShape({1, 3, 16, 16}));
    EXPECT_FALSE(
        sim.loadInput(graph_, graph_.inputs()[0], wrong).isOk());
    EXPECT_FALSE(sim.loadInput(graph_, 9999, wrong).isOk());
}

TEST_F(FuncsimFixture, CompressedProgramRefused)
{
    CodegenOptions options;
    options.unroll = false;
    auto schedule =
        scheduleGraph(graph_, arch_, ScheduleOptions::full());
    auto compressed =
        generateProgram(graph_, arch_, schedule.value(), options);
    ASSERT_TRUE(compressed.isOk());
    FunctionalSimulator sim(arch_, compressed.value());
    EXPECT_FALSE(sim.run().isOk());
}

TEST(FuncsimUnitTest, ReadRowRespectsParallelRowLimit)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kWLM);
    CodegenResult code;
    code.l0_elements = 64;
    code.l1_elements = 64;
    code.executable = true;
    MetaOp read;
    read.kind = MetaOpKind::kReadRow;
    read.core = 0;
    read.xb = 0;
    read.row = 0;
    read.len = 17; // > parallel_row 16
    read.cols = 4;
    read.src = {MemSpace::kL1, 0, 0};
    read.dst = {MemSpace::kL0, 0, 0};
    code.program.emit(read);
    FunctionalSimulator sim(arch, code);
    EXPECT_FALSE(sim.run().isOk());
}

/**
 * A hand-built flow on tutorialTable2's 32 x 32 logical arrays. L0
 * holds two graph inputs, 32 activations at [0, 32) and 4 accumulators
 * at [32, 36), and has room for a 33-column read into the latter.
 */
class HandFlowTest : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        acts_ = graph_.addInput("acts", {1, 32});
        acc_ = graph_.addInput("acc", {1, 4});
        code_.l0_elements = 128;
        code_.l1_elements = 64;
        code_.executable = true;
        code_.tensor_offsets = {{acts_, 0}, {acc_, 32}};
    }

    /** writerow of @p rows rows at @p row on core 0 / xb 0; row r of
     * the payload holds weight r + 1 in every column. */
    void
    writeRows(std::int64_t row, std::int64_t rows)
    {
        auto payload = std::make_shared<Int8Tensor>(TensorShape({rows, 4}));
        for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t c = 0; c < 4; ++c)
                payload->at2(r, c) = static_cast<std::int8_t>(r + 1);
        }
        MetaOp op;
        op.kind = MetaOpKind::kWriteRow;
        op.row = row;
        op.payload = payload;
        code_.program.emit(op);
    }

    /** readxb of all 32 rows x 4 cols of core 0 / @p xb into acc. */
    void
    readAll(std::int64_t xb)
    {
        MetaOp op;
        op.kind = MetaOpKind::kReadXb;
        op.xb = xb;
        op.rows = 32;
        op.cols = 4;
        op.src = {MemSpace::kL0, 0, 0};
        op.dst = {MemSpace::kL0, 0, 32};
        code_.program.emit(op);
    }

    /** Runs the flow with activation i + 1 on row i and @p acc in every
     * accumulator. */
    FunctionalSimulator
    runWith(std::int8_t acc)
    {
        Int8Tensor acts(TensorShape({1, 32}));
        for (std::int64_t i = 0; i < 32; ++i)
            acts[i] = static_cast<std::int8_t>(i + 1);
        Int8Tensor accs(TensorShape({1, 4}));
        accs.fill(acc);
        FunctionalSimulator sim(arch_, code_);
        EXPECT_TRUE(sim.loadInput(graph_, acts_, acts).isOk());
        EXPECT_TRUE(sim.loadInput(graph_, acc_, accs).isOk());
        EXPECT_TRUE(sim.run().isOk());
        return sim;
    }

    const CimArchitecture arch_ =
        presets::tutorialTable2(ComputeMode::kWLM);
    Graph graph_{"hand"};
    TensorId acts_ = kInvalidTensor;
    TensorId acc_ = kInvalidTensor;
    CodegenResult code_;
};

TEST_F(HandFlowTest, ReadOverAllRowsReadsExactlyTheWrittenRows)
{
    writeRows(20, 4);
    readAll(0);
    FunctionalSimulator sim = runWith(0);
    // Rows 20..23 hold weights 1..4 and activations 21..24.
    for (std::int64_t j = 0; j < 4; ++j)
        EXPECT_EQ(sim.l0At(32 + j), 21 * 1 + 22 * 2 + 23 * 3 + 24 * 4);
    EXPECT_EQ(sim.stats().macs, 32 * 4);
    EXPECT_EQ(sim.stats().buffer_reads, 32);
    EXPECT_EQ(sim.stats().buffer_writes, 4);
}

TEST_F(HandFlowTest, LowerRowWriteKeepsHigherRows)
{
    writeRows(20, 4);
    writeRows(2, 1);
    readAll(0);
    FunctionalSimulator sim = runWith(0);
    for (std::int64_t j = 0; j < 4; ++j)
        EXPECT_EQ(sim.l0At(32 + j),
                  3 * 1 + 21 * 1 + 22 * 2 + 23 * 3 + 24 * 4);
}

TEST_F(HandFlowTest, ReadOfUnwrittenArrayLeavesDstButCountsMacs)
{
    writeRows(20, 4);
    readAll(1);
    FunctionalSimulator sim = runWith(5);
    for (std::int64_t j = 0; j < 4; ++j)
        EXPECT_EQ(sim.l0At(32 + j), 5);
    EXPECT_EQ(sim.stats().macs, 32 * 4);
}

TEST_F(HandFlowTest, MovFromUntouchedBankCopiesZeros)
{
    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL1, 1, 8};
    mov.dst = {MemSpace::kL0, 0, 32};
    mov.len = 4;
    code_.program.emit(mov);
    FunctionalSimulator sim = runWith(7);
    for (std::int64_t j = 0; j < 4; ++j)
        EXPECT_EQ(sim.l0At(32 + j), 0);
    EXPECT_EQ(sim.stats().buffer_reads, 4);
}

TEST_F(HandFlowTest, AddIntoUntouchedBankReadsItsOwnWrites)
{
    // dst = src + 1 element on one fresh bank: each element reads the
    // one the op wrote before it, as when every bank is allocated up
    // front.
    MetaOp add;
    add.kind = MetaOpKind::kDcom;
    add.func = dcomfunc::kAdd;
    add.src = {MemSpace::kL1, 0, 0};
    add.mutableSrc2() = {MemSpace::kL0, 0, 0};
    add.dst = {MemSpace::kL1, 0, 1};
    add.len = 4;
    code_.program.emit(add);
    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL1, 0, 1};
    mov.dst = {MemSpace::kL0, 0, 32};
    mov.len = 4;
    code_.program.emit(mov);
    FunctionalSimulator sim = runWith(0);
    // Activations are 1, 2, 3, 4: running sums of the bank's own writes.
    EXPECT_EQ(sim.l0At(32), 1);
    EXPECT_EQ(sim.l0At(33), 3);
    EXPECT_EQ(sim.l0At(34), 6);
    EXPECT_EQ(sim.l0At(35), 10);
}

TEST_F(HandFlowTest, CrossbarAccessOutsideTheArrayIsOutOfRange)
{
    const auto outcome = [this](const MetaOp &op) {
        code_.program = MopProgram(graph_.name(), "WLM");
        code_.program.emit(op);
        FunctionalSimulator sim(arch_, code_);
        return sim.run().code();
    };
    MetaOp write;
    write.kind = MetaOpKind::kWriteRow;
    write.row = -4;
    write.payload = std::make_shared<Int8Tensor>(TensorShape({4, 4}));
    EXPECT_EQ(outcome(write), StatusCode::kOutOfRange);

    MetaOp read;
    read.kind = MetaOpKind::kReadRow;
    read.row = 24;
    read.len = 16; // rows 24..39 of 32
    read.cols = 4;
    read.src = {MemSpace::kL0, 0, 0};
    read.dst = {MemSpace::kL0, 0, 32};
    EXPECT_EQ(outcome(read), StatusCode::kOutOfRange);
    read.row = -1;
    read.len = 4;
    EXPECT_EQ(outcome(read), StatusCode::kOutOfRange);
    read.row = 0;
    read.cols = 33; // 32 logical columns
    EXPECT_EQ(outcome(read), StatusCode::kOutOfRange);
    read.kind = MetaOpKind::kReadXb;
    read.rows = 33;
    read.cols = 4;
    EXPECT_EQ(outcome(read), StatusCode::kOutOfRange);
    read.rows = 32;
    EXPECT_EQ(outcome(read), StatusCode::kOk);
}

TEST(FuncsimUnitTest, BufferOverrunCaught)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    CodegenResult code;
    code.l0_elements = 16;
    code.l1_elements = 16;
    code.executable = true;
    MetaOp mov;
    mov.kind = MetaOpKind::kMov;
    mov.src = {MemSpace::kL0, 0, 0};
    mov.dst = {MemSpace::kL0, 0, 10};
    mov.len = 10; // 10 + 10 > 16
    code.program.emit(mov);
    FunctionalSimulator sim(arch, code);
    EXPECT_FALSE(sim.run().isOk());
}

TEST(FuncsimUnitTest, ReadCoreWithoutWeightsFails)
{
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kCM);
    CodegenResult code;
    code.l0_elements = 4096;
    code.l1_elements = 16;
    code.executable = true;
    MetaOp read;
    read.kind = MetaOpKind::kReadCore;
    read.core = 0;
    CoreOpParams &params = read.mutableCoreParams();
    params.is_conv = false;
    params.in_features = 4;
    params.out_features = 2;
    params.win_end = 1;
    code.program.emit(read);
    FunctionalSimulator sim(arch, code);
    EXPECT_FALSE(sim.run().isOk());
}

// ----- reference executor sanity ---------------------------------------------

TEST(ReferenceShiftsTest, CalibratedShiftsAreReused)
{
    Graph g = models::convReluToy();
    Rng rng(8);
    g.randomizeWeights(rng);
    const auto inputs = randomInputs(g, 21);
    auto first = runReference(g, inputs);
    ASSERT_TRUE(first.isOk());
    auto second = runReference(g, inputs, first.value().shifts);
    ASSERT_TRUE(second.isOk());
    EXPECT_EQ(first.value().output(g), second.value().output(g));
}

} // namespace
} // namespace cimmlc
