/**
 * @file
 * Tests for the analytic cost model: per-node costs, the pipeline
 * latency formula, streaming floors, and bandwidth bounds.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "arch/presets.h"
#include "graph/models.h"
#include "sched/cost_model.h"

namespace cimmlc {
namespace {

Graph
toyGraph()
{
    return models::convReluToy();
}

TEST(NodeCostTest, ConvOnIsaacBaseline)
{
    const Graph g = toyGraph();
    const CimArchitecture arch = presets::isaacBaseline();
    const NodeCost cost = computeNodeCost(g, 1, arch);
    EXPECT_TRUE(cost.is_cim);
    EXPECT_EQ(cost.windows, 1024);
    // 8 DAC cycles x ceil(27 / 8 parallel rows) = 8 * 4 = 32.
    EXPECT_DOUBLE_EQ(cost.cycles_per_window, 32.0);
    EXPECT_DOUBLE_EQ(cost.base_latency, 1024.0 * 32.0);
    EXPECT_EQ(cost.cores_per_replica, 1);
    EXPECT_EQ(cost.chip_splits, 1);
    EXPECT_EQ(cost.halo_reuse, 3);
    // Fresh column: 3 channels x 3 rows x stride 1 x 8 bits.
    EXPECT_DOUBLE_EQ(cost.transfer_bits_per_window, 72.0);
}

TEST(NodeCostTest, VvmRemapBalancesRowGroups)
{
    const Graph g = toyGraph();
    CimArchitecture arch = presets::isaacBaseline();
    // Naive: ceil(27/8) = 4 groups; balanced over 1 tile x spread 2:
    // ceil(4/2) = 2 groups.
    const NodeCost naive = computeNodeCost(g, 1, arch, 0);
    const NodeCost remapped = computeNodeCost(g, 1, arch, 2);
    EXPECT_DOUBLE_EQ(naive.cycles_per_window, 8.0 * 4.0);
    EXPECT_DOUBLE_EQ(remapped.cycles_per_window, 8.0 * 2.0);
}

TEST(NodeCostTest, VvmBalancingHelpsUnevenTiles)
{
    // 147 rows on 128-row arrays: naive fullest crossbar serializes 16
    // groups; balanced across the 2 vertical tiles: ceil(19/2)=10.
    Graph g("t");
    TensorId in = g.addInput("in", {1, 3, 112, 112});
    g.markOutput(g.conv2d(in, 64, 7, 2, 3));
    const CimArchitecture arch = presets::isaacBaseline();
    const NodeCost naive = computeNodeCost(g, 1, arch, 0);
    const NodeCost balanced = computeNodeCost(g, 1, arch, 1);
    EXPECT_DOUBLE_EQ(naive.cycles_per_window, 8.0 * 16.0);
    EXPECT_DOUBLE_EQ(balanced.cycles_per_window, 8.0 * 10.0);
}

TEST(NodeCostTest, DigitalNodeUsesAggregateAlu)
{
    const Graph g = toyGraph();
    CimArchitecture arch = presets::isaacBaseline();
    const NodeCost relu = computeNodeCost(g, 2, arch);
    EXPECT_FALSE(relu.is_cim);
    EXPECT_TRUE(relu.is_stage);
    // 32768 elements over (1024 chip + 1024 x 768 core) ops/cycle.
    const double rate = 1024.0 + 1024.0 * 768.0;
    EXPECT_NEAR(relu.alu_cycles, 32768.0 / rate, 1e-9);
}

TEST(NodeCostTest, IdealAluIsFree)
{
    const Graph g = toyGraph();
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    const NodeCost relu = computeNodeCost(g, 2, arch);
    EXPECT_DOUBLE_EQ(relu.alu_cycles, 0.0);
    EXPECT_FALSE(relu.is_stage);
}

TEST(NodeCostTest, ChipSplitsWhenOperatorExceedsChip)
{
    Graph g("t");
    TensorId in = g.addInput("in", {1, 25088});
    g.markOutput(g.linear(in, 4096)); // VGG16 fc0: ~100M weights
    CimArchitecture arch = presets::puma(); // 276 crossbars total
    const NodeCost cost = computeNodeCost(g, 1, arch);
    EXPECT_GT(cost.chip_splits, 1);
    EXPECT_EQ(cost.cores_per_replica, arch.chip.coreNumber());
}

TEST(NodeCostTest, LinearFillIsFull)
{
    Graph g("t");
    TensorId in = g.addInput("in", {1, 64});
    g.markOutput(g.linear(in, 10));
    const CimArchitecture arch = presets::isaacBaseline();
    EXPECT_DOUBLE_EQ(computeNodeCost(g, 1, arch).fill_fraction, 1.0);
}

TEST(NodeCostTest, ConvFillIsKernelOverHeight)
{
    const Graph g = toyGraph();
    const CimArchitecture arch = presets::isaacBaseline();
    EXPECT_NEAR(computeNodeCost(g, 1, arch).fill_fraction, 3.0 / 32.0,
                1e-12);
}

// ----- segment latency -----------------------------------------------------

TEST(SegmentLatencyTest, SerialIsSum)
{
    const SegmentLatency out = segmentLatency(
        {{0, 100.0, 0.1, 0.0}, {1, 50.0, 0.1, 0.0}});
    EXPECT_DOUBLE_EQ(out.serial, 150.0);
    EXPECT_DOUBLE_EQ(out.bottleneck, 100.0);
}

TEST(SegmentLatencyTest, PipelinedIsBottleneckPlusFills)
{
    const SegmentLatency out = segmentLatency(
        {{0, 100.0, 0.1, 0.0}, {1, 50.0, 0.2, 0.0}});
    EXPECT_DOUBLE_EQ(out.pipelined, 100.0 + 50.0 * 0.2);
}

TEST(SegmentLatencyTest, FullFillSerializes)
{
    const SegmentLatency out = segmentLatency(
        {{0, 100.0, 1.0, 0.0}, {1, 80.0, 1.0, 0.0}});
    EXPECT_DOUBLE_EQ(out.pipelined, 180.0); // == serial
}

TEST(SegmentLatencyTest, OnlyOneTieSkipsFill)
{
    const SegmentLatency out = segmentLatency(
        {{0, 100.0, 0.5, 0.0}, {1, 100.0, 0.5, 0.0}});
    // One bottleneck excluded, the tied stage pays its fill.
    EXPECT_DOUBLE_EQ(out.pipelined, 150.0);
}

TEST(SegmentLatencyTest, StageFloorBindsLatency)
{
    const SegmentLatency out =
        segmentLatency({{0, 10.0, 0.0, 40.0}});
    EXPECT_DOUBLE_EQ(out.bottleneck, 40.0);
    EXPECT_DOUBLE_EQ(out.pipelined, 40.0);
}

TEST(SegmentLatencyTest, PipelinedNeverExceedsSerial)
{
    const SegmentLatency out = segmentLatency(
        {{0, 10.0, 1.0, 0.0}, {1, 10.0, 1.0, 0.0}, {2, 10.0, 1.0, 0.0}});
    EXPECT_LE(out.pipelined, out.serial);
}

// ----- bandwidth helpers ----------------------------------------------------

TEST(BandwidthTest, ChipLimitPicksNarrowest)
{
    CimArchitecture arch = presets::isaacBaseline();
    EXPECT_DOUBLE_EQ(chipBandwidthLimit(arch), 384.0);
    arch.chip.core_noc_bandwidth = 128.0;
    EXPECT_DOUBLE_EQ(chipBandwidthLimit(arch), 128.0);
    arch.chip.l0_bandwidth = 0.0;
    EXPECT_DOUBLE_EQ(chipBandwidthLimit(arch), 128.0);
}

TEST(BandwidthTest, BoundedCyclesPerWindow)
{
    Graph g("t");
    TensorId in = g.addInput("in", {1, 25088});
    g.markOutput(g.linear(in, 10));
    const CimArchitecture arch = presets::isaacBaseline();
    const NodeCost cost = computeNodeCost(g, 1, arch);
    // Streaming 25088 activations through 384 b/cycle exceeds the
    // compute time.
    const double bounded = bandwidthBoundCyclesPerWindow(cost, arch);
    EXPECT_GT(bounded, cost.cycles_per_window);
    EXPECT_NEAR(bounded, 25088.0 * 8.0 / 384.0, 1.0);
}

TEST(BandwidthTest, StageFloorZeroWhenIdeal)
{
    const Graph g = toyGraph();
    CimArchitecture arch = presets::tutorialTable2(ComputeMode::kXBM);
    const NodeCost cost = computeNodeCost(g, 1, arch);
    EXPECT_DOUBLE_EQ(stageFloorCycles(cost, arch), 0.0);
}

TEST(BandwidthTest, StageFloorCountsWindows)
{
    const Graph g = toyGraph();
    const CimArchitecture arch = presets::isaacBaseline();
    const NodeCost cost = computeNodeCost(g, 1, arch);
    EXPECT_NEAR(stageFloorCycles(cost, arch),
                1024.0 * 72.0 / 384.0, 1e-9);
}

TEST(BandwidthTest, BoundUsesTheSharedChipLimit)
{
    // bandwidthBoundCyclesPerWindow must agree with chipBandwidthLimit
    // for every L0/NoC combination (it used to re-implement the min
    // logic and could silently diverge).
    const Graph g = toyGraph();
    const struct {
        double l0;
        double noc;
    } cases[] = {{0.0, 0.0}, {384.0, 0.0}, {0.0, 256.0}, {384.0, 256.0},
                 {128.0, 512.0}};
    for (const auto &c : cases) {
        CimArchitecture arch = presets::isaacBaseline();
        arch.chip.l0_bandwidth = c.l0;
        arch.chip.core_noc_bandwidth = c.noc;
        const NodeCost cost = computeNodeCost(g, 1, arch);
        const double limit = chipBandwidthLimit(arch);
        const double expected =
            limit <= 0.0 ? cost.cycles_per_window
                         : std::max(cost.cycles_per_window,
                                    cost.transfer_bits_per_window
                                        / limit);
        EXPECT_DOUBLE_EQ(bandwidthBoundCyclesPerWindow(cost, arch),
                         expected)
            << "l0=" << c.l0 << " noc=" << c.noc;
    }
}

} // namespace
} // namespace cimmlc
