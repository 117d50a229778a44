/**
 * @file
 * Tests for meta-operator code generation: structure of the emitted
 * flows per mode, validator compliance, memory layout, compressed vs
 * unrolled emission, and the op-budget guard.
 */
#include <gtest/gtest.h>

#include "arch/presets.h"
#include "common/rng.h"
#include "graph/models.h"
#include "mop/validator.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"

namespace cimmlc {
namespace {

Graph
weightedToy()
{
    Graph g = models::convReluToy();
    Rng rng(3);
    g.randomizeWeights(rng);
    return g;
}

CodegenResult
generateFor(const Graph &g, ComputeMode mode, bool unroll = true)
{
    const CimArchitecture arch = presets::tutorialTable2(mode);
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    CIMMLC_CHECK(schedule.isOk());
    CodegenOptions options;
    options.unroll = unroll;
    auto code = generateProgram(g, arch, schedule.value(), options);
    CIMMLC_CHECK(code.isOk()) << code.status().toString();
    return std::move(code).value();
}

TEST(CodegenTest, CmFlowStructure)
{
    const Graph g = weightedToy();
    const CodegenResult code = generateFor(g, ComputeMode::kCM);
    const MopCounts counts = code.program.counts();
    EXPECT_EQ(counts.cim_writes, 2); // one writecore per replica
    EXPECT_EQ(counts.cim_reads, 2);  // parallel readcore pair
    EXPECT_GE(counts.dcom, 2);       // requant + relu
    EXPECT_TRUE(code.executable);
}

TEST(CodegenTest, XbmFlowUsesWritexbAndReadxb)
{
    const Graph g = weightedToy();
    const CodegenResult code = generateFor(g, ComputeMode::kXBM);
    bool saw_writexb = false, saw_readxb = false, saw_readrow = false;
    code.program.forEachOp([&](const MetaOp &op) {
        saw_writexb |= op.kind == MetaOpKind::kWriteXb;
        saw_readxb |= op.kind == MetaOpKind::kReadXb;
        saw_readrow |= op.kind == MetaOpKind::kReadRow;
    });
    EXPECT_TRUE(saw_writexb);
    EXPECT_TRUE(saw_readxb);
    EXPECT_FALSE(saw_readrow);
    // One CIM read per window per tile: 1024 windows x 1 tile.
    EXPECT_EQ(code.program.counts().cim_reads, 1024);
}

TEST(CodegenTest, WlmFlowUsesRowOps)
{
    const Graph g = weightedToy();
    const CodegenResult code = generateFor(g, ComputeMode::kWLM);
    bool saw_writerow = false, saw_readrow = false, saw_readxb = false;
    std::int64_t max_readrow_len = 0;
    code.program.forEachOp([&](const MetaOp &op) {
        saw_writerow |= op.kind == MetaOpKind::kWriteRow;
        saw_readxb |= op.kind == MetaOpKind::kReadXb;
        if (op.kind == MetaOpKind::kReadRow) {
            saw_readrow = true;
            max_readrow_len = std::max(max_readrow_len, op.len);
        }
    });
    EXPECT_TRUE(saw_writerow);
    EXPECT_TRUE(saw_readrow);
    EXPECT_FALSE(saw_readxb);
    EXPECT_LE(max_readrow_len, 16); // Table 2 parallel_row
}

class CodegenValidationTest : public testing::TestWithParam<ComputeMode>
{
};

TEST_P(CodegenValidationTest, GeneratedFlowsValidate)
{
    const Graph g = weightedToy();
    const CimArchitecture arch = presets::tutorialTable2(GetParam());
    const CodegenResult code = generateFor(g, GetParam());
    EXPECT_TRUE(validateProgram(code.program, arch).isOk());
}

INSTANTIATE_TEST_SUITE_P(Modes, CodegenValidationTest,
                         testing::Values(ComputeMode::kCM,
                                         ComputeMode::kXBM,
                                         ComputeMode::kWLM));

TEST(CodegenTest, TensorOffsetsCoverAllTensors)
{
    const Graph g = weightedToy();
    const CodegenResult code = generateFor(g, ComputeMode::kXBM);
    for (const ValueInfo &t : g.tensors())
        EXPECT_TRUE(code.tensor_offsets.count(t.id)) << t.name;
    EXPECT_GT(code.l0_elements, 0);
    EXPECT_GT(code.l1_elements, 0);
}

TEST(CodegenTest, ShapeOnlyNodesAliasRegions)
{
    Graph g("t");
    TensorId in = g.addInput("in", {1, 4, 4, 4});
    TensorId flat = g.flatten(in);
    TensorId out = g.linear(flat, 8);
    g.markOutput(out);
    Rng rng(2);
    g.randomizeWeights(rng);
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    auto code = generateProgram(g, arch, schedule.value());
    ASSERT_TRUE(code.isOk());
    EXPECT_EQ(code.value().tensor_offsets.at(in),
              code.value().tensor_offsets.at(flat));
}

TEST(CodegenTest, CompressedEmissionUsesRepeat)
{
    const Graph g = weightedToy();
    const CodegenResult code =
        generateFor(g, ComputeMode::kXBM, /*unroll=*/false);
    EXPECT_FALSE(code.executable);
    bool saw_big_repeat = false;
    for (const Stmt &stmt : code.program.compute())
        saw_big_repeat |= stmt.kind == Stmt::Kind::kRepeat &&
                          stmt.repeat == 1024;
    EXPECT_TRUE(saw_big_repeat);
    // Compressed flow is tiny compared with the unrolled one.
    const CodegenResult unrolled = generateFor(g, ComputeMode::kXBM);
    EXPECT_LT(code.program.compute().size(),
              unrolled.program.compute().size());
}

TEST(CodegenTest, OpBudgetGuardTrips)
{
    Graph g = models::vgg7();
    Rng rng(5);
    g.randomizeWeights(rng);
    const CimArchitecture arch = presets::isaacBaseline();
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    ASSERT_TRUE(schedule.isOk());
    CodegenOptions options;
    options.unroll = true;
    options.max_ops = 1000; // far too small for VGG7
    auto code = generateProgram(g, arch, schedule.value(), options);
    EXPECT_FALSE(code.isOk());
    EXPECT_EQ(code.status().code(), StatusCode::kResourceExhausted);
}

TEST(CodegenTest, UnrolledNeedsWeights)
{
    Graph g = models::convReluToy(); // no weights installed
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    ASSERT_TRUE(schedule.isOk());
    auto code = generateProgram(g, arch, schedule.value());
    EXPECT_FALSE(code.isOk());
    EXPECT_EQ(code.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CodegenTest, CompressedWorksWithoutWeights)
{
    Graph g = models::convReluToy();
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    ASSERT_TRUE(schedule.isOk());
    CodegenOptions options;
    options.unroll = false;
    EXPECT_TRUE(
        generateProgram(g, arch, schedule.value(), options).isOk());
}

TEST(CodegenTest, RequantShiftsPropagate)
{
    const Graph g = weightedToy();
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    CodegenOptions options;
    options.shifts[1] = RequantParams{5};
    auto code = generateProgram(g, arch, schedule.value(), options);
    ASSERT_TRUE(code.isOk());
    bool found = false;
    code.value().program.forEachOp([&](const MetaOp &op) {
        if (op.kind == MetaOpKind::kDcom &&
            op.func == dcomfunc::kRequant) {
            EXPECT_EQ(op.dcomParams().shift, 5);
            found = true;
        }
    });
    EXPECT_TRUE(found);
}

TEST(CodegenTest, OriginAnnotationsPointAtGraphNodes)
{
    const Graph g = weightedToy();
    const CodegenResult code = generateFor(g, ComputeMode::kXBM);
    code.program.forEachOp([&](const MetaOp &op) {
        if (op.kind == MetaOpKind::kReadXb) {
            EXPECT_EQ(op.origin, 1); // the conv node
        }
    });
}

} // namespace
} // namespace cimmlc
