/**
 * @file
 * Tests for the performance simulator: energy model, analytic schedule
 * evaluation, the event-driven trace engine, and cross-checks between
 * the two.
 */
#include <gtest/gtest.h>

#include "arch/presets.h"
#include "common/rng.h"
#include "graph/models.h"
#include "perfsim/energy.h"
#include "perfsim/perf_model.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"
#include "trace_engine.h"

namespace cimmlc {
namespace {

TEST(EnergyModelTest, PositiveComponents)
{
    const EnergyModel model(presets::isaacBaseline());
    EXPECT_GT(model.xbarActivationPj(), 0.0);
    EXPECT_GT(model.conversionPj(), 0.0);
    EXPECT_GT(model.activeCrossbarPowerMw(), 0.0);
    EXPECT_GT(model.movementPj(1024.0), 0.0);
    EXPECT_GT(model.aluPj(100.0), 0.0);
    EXPECT_GT(model.writePj(10.0), 0.0);
}

TEST(EnergyModelTest, ParallelRowScalesActivationEnergy)
{
    CimArchitecture narrow = presets::isaacBaseline(); // 8 rows
    CimArchitecture wide = presets::isaacBaseline();
    wide.xbar.parallel_row = 128;
    EXPECT_LT(EnergyModel(narrow).xbarActivationPj(),
              EnergyModel(wide).xbarActivationPj());
}

TEST(EnergyModelTest, IdealNocMovesFreeOfHops)
{
    CimArchitecture arch = presets::isaacBaseline();
    arch.chip.core_noc = NocType::kIdeal;
    const EnergyModel ideal(arch);
    const EnergyModel mesh(presets::isaacBaseline());
    EXPECT_LT(ideal.movementPj(1000.0), mesh.movementPj(1000.0));
}

TEST(PerfModelTest, ReportFieldsPopulated)
{
    const Graph g = models::resnet18();
    const CimArchitecture arch = presets::isaacBaseline();
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    ASSERT_TRUE(schedule.isOk());
    auto report = evaluateSchedule(g, arch, schedule.value());
    ASSERT_TRUE(report.isOk());
    const PerfReport &r = report.value();
    EXPECT_GT(r.latency_cycles, 0.0);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.energy.xbar_pj, 0.0);
    EXPECT_GT(r.energy.adc_dac_pj, 0.0);
    EXPECT_GT(r.energy.movement_pj, 0.0);
    EXPECT_GT(r.peak_power_mw, 0.0);
    EXPECT_GT(r.avg_power_mw, 0.0);
    EXPECT_GT(r.crossbars_mapped, 0);
    EXPECT_GT(r.crossbar_utilization, 0.0);
    EXPECT_LE(r.crossbar_utilization, 1.0);
    EXPECT_NE(r.toString().find("latency"), std::string::npos);
}

TEST(PerfModelTest, EnergyIndependentOfScheduleLevel)
{
    // Scheduling changes time, not the work performed: total crossbar
    // energy stays within a few percent across levels (movement and
    // reload differences aside, identical here because no segmentation).
    const Graph g = models::resnet18();
    const CimArchitecture arch = presets::isaacBaseline();
    auto none = scheduleGraph(g, arch, ScheduleOptions::none());
    auto full = scheduleGraph(g, arch, ScheduleOptions::full());
    auto r0 = evaluateSchedule(g, arch, none.value());
    auto r1 = evaluateSchedule(g, arch, full.value());
    ASSERT_TRUE(r0.isOk() && r1.isOk());
    EXPECT_NEAR(r0.value().energy.xbar_pj, r1.value().energy.xbar_pj,
                r0.value().energy.xbar_pj * 0.01);
}

TEST(PerfModelTest, XbarEnergyDominatesOnReram)
{
    // PUMA's full-row activation makes the analog array the dominant
    // consumer (Figure 20(b)'s 83% share); narrow-parallel-row designs
    // shift the balance toward the ADC.
    const Graph g = models::resnet18();
    const CimArchitecture arch = presets::puma();
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    auto report = evaluateSchedule(g, arch, schedule.value());
    ASSERT_TRUE(report.isOk());
    const EnergyBreakdown &e = report.value().energy;
    EXPECT_GT(e.xbar_pj, e.adc_dac_pj);
    EXPECT_GT(e.xbar_pj, e.movement_pj);
}

TEST(PerfModelTest, SegmentedModelPaysWriteEnergy)
{
    const CimArchitecture arch = presets::isaacBaseline();
    auto small = scheduleGraph(models::resnet18(), arch,
                               ScheduleOptions::full());
    auto large =
        scheduleGraph(models::vgg16(), arch, ScheduleOptions::full());
    auto r_small =
        evaluateSchedule(models::resnet18(), arch, small.value());
    auto r_large =
        evaluateSchedule(models::vgg16(), arch, large.value());
    ASSERT_TRUE(r_small.isOk() && r_large.isOk());
    EXPECT_DOUBLE_EQ(r_small.value().energy.write_pj, 0.0);
    EXPECT_GT(r_large.value().energy.write_pj, 0.0);
}

// ----- trace engine -----------------------------------------------------------

TEST(TraceDurationTest, ReadXbBitSerialCycles)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MetaOp op;
    op.kind = MetaOpKind::kReadXb;
    op.len = 1;
    op.rows = 128;
    // 8 DAC phases x 16 row groups x 1-cycle ReRAM read.
    EXPECT_DOUBLE_EQ(metaOpDurationCycles(op, arch), 128.0);
}

TEST(TraceDurationTest, ReadRowSinglePhase)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MetaOp op;
    op.kind = MetaOpKind::kReadRow;
    op.len = 8;
    EXPECT_DOUBLE_EQ(metaOpDurationCycles(op, arch), 8.0);
}

TEST(TraceDurationTest, WriteScalesWithRowsAndDevice)
{
    const CimArchitecture arch = presets::isaacBaseline(); // ReRAM: 50
    MetaOp op;
    op.kind = MetaOpKind::kWriteRow;
    op.len = 4;
    EXPECT_DOUBLE_EQ(metaOpDurationCycles(op, arch), 200.0);
}

TEST(TraceDurationTest, MovLimitedByBandwidth)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MetaOp op;
    op.kind = MetaOpKind::kMov;
    op.len = 384;
    op.count = 1;
    // 384 elements x 8 bits / 384 b-per-cycle = 8 cycles.
    EXPECT_DOUBLE_EQ(metaOpDurationCycles(op, arch), 8.0);
}

TEST(TraceEngineTest, ParallelBlockTakesMaxMemberTime)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MopProgram program("p", "XBM");
    MetaOp fast;
    fast.kind = MetaOpKind::kReadRow;
    fast.len = 8;
    fast.cols = 4;
    MetaOp slow;
    slow.kind = MetaOpKind::kReadXb;
    slow.len = 1;
    slow.rows = 128;
    slow.cols = 4;
    program.computeBuilder().append(Stmt::makeParallel(
        {Stmt::makeOp(fast), Stmt::makeOp(slow)}));
    auto report = traceProgram(program, arch);
    ASSERT_TRUE(report.isOk());
    EXPECT_DOUBLE_EQ(report.value().cycles, 128.0);
    EXPECT_EQ(report.value().peak_active_xbs, 2);
}

TEST(TraceEngineTest, RepeatScalesTimeAndEnergy)
{
    const CimArchitecture arch = presets::isaacBaseline();
    MetaOp read;
    read.kind = MetaOpKind::kReadRow;
    read.len = 8;
    read.cols = 4;

    MopProgram once("p", "WLM");
    once.emit(read);
    MopProgram repeated("p", "WLM");
    repeated.computeBuilder().append(
        Stmt::makeRepeat(10, {Stmt::makeOp(read)}));

    auto r1 = traceProgram(once, arch);
    auto r10 = traceProgram(repeated, arch);
    ASSERT_TRUE(r1.isOk() && r10.isOk());
    EXPECT_NEAR(r10.value().cycles, 10.0 * r1.value().cycles, 1e-9);
    EXPECT_NEAR(r10.value().energy.total(),
                10.0 * r1.value().energy.total(), 1e-6);
    // Peak concurrency does not grow with sequential repetition.
    EXPECT_EQ(r10.value().peak_active_xbs,
              r1.value().peak_active_xbs);
}

TEST(TraceEngineTest, CompiledToyFlowTraces)
{
    Graph g = models::convReluToy();
    Rng rng(3);
    g.randomizeWeights(rng);
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    auto code = generateProgram(g, arch, schedule.value());
    ASSERT_TRUE(code.isOk());
    auto report = traceProgram(code.value().program, arch);
    ASSERT_TRUE(report.isOk());
    EXPECT_GT(report.value().cycles, 0.0);
    EXPECT_GT(report.value().energy.total(), 0.0);
    // At most the whole chip can be active.
    EXPECT_LE(report.value().peak_active_xbs, arch.totalCrossbars());
    EXPECT_NE(report.value().toString().find("trace:"),
              std::string::npos);
}

TEST(TraceEngineTest, TraceAndAnalyticAgreeOnOrderOfMagnitude)
{
    Graph g = models::convReluToy();
    Rng rng(3);
    g.randomizeWeights(rng);
    const CimArchitecture arch =
        presets::tutorialTable2(ComputeMode::kXBM);
    auto schedule = scheduleGraph(g, arch, ScheduleOptions::full());
    auto code = generateProgram(g, arch, schedule.value());
    auto trace = traceProgram(code.value().program, arch);
    auto analytic = evaluateSchedule(g, arch, schedule.value());
    ASSERT_TRUE(trace.isOk() && analytic.isOk());
    // The trace serializes movs the analytic model hides behind compute,
    // so agreement within ~10x is the expectation; the crossbar energy
    // matches much more tightly.
    const double ratio = trace.value().cycles /
                         analytic.value().latency_cycles;
    EXPECT_GT(ratio, 0.1);
    EXPECT_LT(ratio, 30.0);
    EXPECT_NEAR(trace.value().energy.xbar_pj,
                analytic.value().energy.xbar_pj,
                analytic.value().energy.xbar_pj * 0.5);
}

} // namespace
} // namespace cimmlc
