/**
 * @file
 * Property tests for the src/search/ primitives of the budgeted search
 * engine: strict-partial-order laws for Pareto dominance and the
 * enabled-knob subset order, order-independence of the dominance
 * pruner, halving-ladder shape invariants (monotone non-increasing
 * rung sizes), survivor-selection guarantees, and the SearchBudget /
 * SearchFidelity parsing and tagging contracts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "search/dominance.h"
#include "search/halving.h"
#include "search/search_budget.h"
#include "sched/autotune.h"

namespace cimmlc {
namespace {

std::vector<MetricPoint>
randomPoints(std::size_t count, std::uint64_t seed)
{
    // A coarse value grid on purpose: collisions and per-component ties
    // must occur so the order laws are exercised on equal coordinates,
    // not just on points in general position.
    Rng rng(seed);
    std::vector<MetricPoint> points;
    points.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        points.push_back(
            MetricPoint{static_cast<double>(rng.uniformInt(0, 7)),
                        static_cast<double>(rng.uniformInt(0, 7))});
    return points;
}

// ----- Pareto dominance is a strict partial order ------------------------

TEST(DominanceOrderTest, Irreflexive)
{
    for (const MetricPoint &p : randomPoints(64, 1))
        EXPECT_FALSE(strictlyDominates(p, p));
}

TEST(DominanceOrderTest, AntisymmetricOnDistinctPoints)
{
    const std::vector<MetricPoint> points = randomPoints(48, 2);
    for (const MetricPoint &a : points) {
        for (const MetricPoint &b : points) {
            if (strictlyDominates(a, b))
                EXPECT_FALSE(strictlyDominates(b, a));
        }
    }
}

TEST(DominanceOrderTest, Transitive)
{
    const std::vector<MetricPoint> points = randomPoints(32, 3);
    for (const MetricPoint &a : points)
        for (const MetricPoint &b : points)
            for (const MetricPoint &c : points)
                if (strictlyDominates(a, b) && strictlyDominates(b, c))
                    EXPECT_TRUE(strictlyDominates(a, c));
}

TEST(DominanceOrderTest, TiesNeverDominate)
{
    const MetricPoint a{3.0, 5.0};
    EXPECT_FALSE(strictlyDominates(a, a));
    EXPECT_TRUE(strictlyDominates(MetricPoint{3.0, 4.0}, a));
    EXPECT_TRUE(strictlyDominates(MetricPoint{2.0, 5.0}, a));
    EXPECT_FALSE(strictlyDominates(MetricPoint{2.0, 6.0}, a));
}

// ----- the enabled-knob subset order is a strict partial order -----------

TEST(KnobSubsetOrderTest, StrictPartialOrderOnTunerEncodings)
{
    const KnobSubsetOrder order(kTuneKnobMask, kTuneContextMask);
    for (std::uint32_t a = 0; a < 256; ++a) {
        EXPECT_FALSE(order.below(a, a)); // irreflexive
        for (std::uint32_t b = 0; b < 256; ++b) {
            if (order.below(a, b))
                EXPECT_FALSE(order.below(b, a)); // antisymmetric
        }
    }
    // Transitivity over the full 256-point encoding space.
    for (std::uint32_t a = 0; a < 256; ++a)
        for (std::uint32_t b = 0; b < 256; ++b) {
            if (!order.below(a, b))
                continue;
            for (std::uint32_t c = 0; c < 256; ++c)
                if (order.below(b, c))
                    EXPECT_TRUE(order.below(a, c));
        }
}

TEST(KnobSubsetOrderTest, ContextBitsMustAgree)
{
    const KnobSubsetOrder order(kTuneKnobMask, kTuneContextMask);
    // Same knobs, different binding bit: incomparable.
    EXPECT_FALSE(order.below(0x01, 0x21));
    EXPECT_FALSE(order.below(0x21, 0x01));
    // Same context, proper knob subset: ordered.
    EXPECT_TRUE(order.below(0x21, 0x23));
    // Different segment-cap field: incomparable.
    EXPECT_FALSE(order.below(0x01, 0x43));
}

// ----- dominance pruner --------------------------------------------------

TEST(DominancePrunerTest, CondemnsOnSubsetDominationOnly)
{
    DominancePruner pruner(
        KnobSubsetOrder(kTuneKnobMask, kTuneContextMask));
    // {} scores (10, 10); {bit0} regresses latency without an energy
    // win -> condemned; every superset of {bit0} is prunable.
    pruner.record(0x00, MetricPoint{10.0, 10.0}, true);
    pruner.record(0x01, MetricPoint{12.0, 10.0}, true);
    EXPECT_TRUE(pruner.shouldPrune(0x03).has_value());
    EXPECT_EQ(pruner.shouldPrune(0x03).value(), 0x01u);
    // {bit1} improved latency -> not condemned, supersets of it alone
    // stay evaluable.
    pruner.record(0x02, MetricPoint{8.0, 10.0}, true);
    EXPECT_FALSE(pruner.shouldPrune(0x06).has_value());
    // A trade (better latency, worse energy) is not domination.
    pruner.record(0x04, MetricPoint{9.0, 11.0}, true);
    EXPECT_FALSE(pruner.shouldPrune(0x0C).has_value());
}

TEST(DominancePrunerTest, TiesAndInfeasiblesCarryNoEvidence)
{
    DominancePruner pruner(
        KnobSubsetOrder(kTuneKnobMask, kTuneContextMask));
    pruner.record(0x00, MetricPoint{10.0, 10.0}, true);
    // A metric-identical knob is a no-op, not a regression.
    pruner.record(0x01, MetricPoint{10.0, 10.0}, true);
    EXPECT_FALSE(pruner.shouldPrune(0x03).has_value());
    // Infeasible points never condemn anything.
    pruner.record(0x02, MetricPoint{0.0, 0.0}, false);
    EXPECT_FALSE(pruner.shouldPrune(0x06).has_value());
}

TEST(DominancePrunerTest, VerdictIndependentOfRecordingOrder)
{
    // Any permutation of the same evaluation set must yield identical
    // prune verdicts for every encoding.
    struct Sample {
        std::uint32_t encoding;
        MetricPoint metrics;
        bool feasible;
    };
    Rng rng(7);
    std::vector<Sample> samples;
    for (std::uint32_t e = 0; e < 32; ++e)
        samples.push_back(
            Sample{e,
                   MetricPoint{
                       static_cast<double>(rng.uniformInt(1, 6)),
                       static_cast<double>(rng.uniformInt(1, 6))},
                   rng.uniformInt(0, 9) != 0});

    auto verdicts = [&samples](const std::vector<std::size_t> &order) {
        DominancePruner pruner(
            KnobSubsetOrder(kTuneKnobMask, kTuneContextMask));
        for (std::size_t i : order)
            pruner.record(samples[i].encoding, samples[i].metrics,
                          samples[i].feasible);
        std::vector<std::uint32_t> out;
        for (std::uint32_t e = 0; e < 256; ++e)
            out.push_back(pruner.shouldPrune(e).value_or(0xFFFFFFFFu));
        return out;
    };

    std::vector<std::size_t> order(samples.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const std::vector<std::uint32_t> reference = verdicts(order);
    for (int round = 0; round < 5; ++round) {
        // Fisher-Yates on the deterministic Rng.
        for (std::size_t i = order.size(); i-- > 1;)
            std::swap(order[i],
                      order[static_cast<std::size_t>(
                          rng.uniformInt(0, static_cast<std::int64_t>(i)))]);
        EXPECT_EQ(verdicts(order), reference);
    }
}

// ----- halving schedules -------------------------------------------------

TEST(HalvingScheduleTest, RungSizesMonotonicallyNonIncreasing)
{
    for (std::int64_t total : {0, 1, 2, 5, 9, 18, 100, 1000}) {
        for (std::int64_t budget : {0, 1, 2, 5, 9, 17, 18, 64, 5000}) {
            auto schedule = makeHalvingSchedule(total, budget);
            ASSERT_TRUE(schedule.isOk());
            const std::vector<std::int64_t> &rungs =
                schedule.value().rungs;
            ASSERT_FALSE(rungs.empty());
            EXPECT_EQ(rungs.front(), total);
            for (std::size_t i = 1; i < rungs.size(); ++i)
                EXPECT_LE(rungs[i], rungs[i - 1]);
            if (budget <= 0 || budget >= total) {
                EXPECT_EQ(rungs.size(), 1u); // exhaustive
            } else {
                EXPECT_EQ(rungs.back(), budget);
            }
            // Full-fidelity work never exceeds the exhaustive count.
            EXPECT_LE(schedule.value().fullEvalCount(), total);
        }
    }
    EXPECT_FALSE(makeHalvingSchedule(-1, 4).isOk());
}

TEST(HalvingScheduleTest, LaddersHalveDownToTheBudget)
{
    auto schedule = makeHalvingSchedule(18, 9);
    ASSERT_TRUE(schedule.isOk());
    EXPECT_EQ(schedule.value().rungs,
              (std::vector<std::int64_t>{18, 9}));
    EXPECT_EQ(schedule.value().proxyRungCount(), 1u);

    schedule = makeHalvingSchedule(100, 10);
    ASSERT_TRUE(schedule.isOk());
    EXPECT_EQ(schedule.value().rungs,
              (std::vector<std::int64_t>{100, 50, 25, 13, 10}));
    EXPECT_EQ(schedule.value().proxyRungCount(), 4u);
}

TEST(HalvingScheduleTest, ProxyFidelityLadderIsMonotone)
{
    SearchBudget budget;
    budget.max_full_evals = 4;
    budget.proxy_prefix_fraction = 0.25;
    budget.proxy_opt_none = true;
    std::int64_t previous = 0;
    for (std::size_t rung = 0; rung < 4; ++rung) {
        const SearchFidelity fidelity =
            proxyFidelity(budget, 40, rung, 4);
        EXPECT_TRUE(fidelity.forced_opt_none);
        EXPECT_GE(fidelity.prefix_nodes, 1);
        EXPECT_LE(fidelity.prefix_nodes, 40);
        EXPECT_GE(fidelity.prefix_nodes, previous);
        previous = fidelity.prefix_nodes;
    }
    // No prefix configured: proxies price the whole graph.
    budget.proxy_prefix_fraction = 0.0;
    EXPECT_EQ(proxyFidelity(budget, 40, 0, 2).prefix_nodes, 0);
}

// ----- survivor selection ------------------------------------------------

std::vector<SearchPoint>
randomSearchPoints(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<SearchPoint> points;
    for (std::size_t i = 0; i < count; ++i) {
        SearchPoint point;
        point.id = i;
        point.metrics =
            MetricPoint{static_cast<double>(rng.uniformInt(1, 9)),
                        static_cast<double>(rng.uniformInt(1, 9))};
        point.objective = point.metrics.latency_cycles;
        point.feasible = rng.uniformInt(0, 9) != 0;
        points.push_back(point);
    }
    return points;
}

TEST(SelectSurvivorsTest, RespectsKeepAndFeasibility)
{
    const std::vector<SearchPoint> points = randomSearchPoints(40, 11);
    std::set<std::size_t> feasible;
    for (const SearchPoint &point : points)
        if (point.feasible)
            feasible.insert(point.id);
    for (std::int64_t keep : {0, 1, 5, 20, 100}) {
        const std::vector<std::size_t> survivors =
            selectSurvivors(points, keep);
        EXPECT_LE(survivors.size(),
                  static_cast<std::size_t>(std::max<std::int64_t>(keep, 0)));
        EXPECT_LE(survivors.size(), feasible.size());
        for (std::size_t id : survivors)
            EXPECT_TRUE(feasible.count(id)) << "selected infeasible " << id;
        EXPECT_TRUE(std::is_sorted(survivors.begin(), survivors.end()));
    }
}

TEST(SelectSurvivorsTest, ParetoFrontSurvivesWheneverItFits)
{
    const std::vector<SearchPoint> points = randomSearchPoints(30, 13);
    const std::vector<std::size_t> ranks = paretoRanks(points);
    std::set<std::size_t> front_ids;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].feasible && ranks[i] == 0)
            front_ids.insert(points[i].id);
    const std::vector<std::size_t> survivors = selectSurvivors(
        points, static_cast<std::int64_t>(front_ids.size()));
    // With keep == |front|, the survivors are exactly the rank-0 set:
    // rank sorts before everything else.
    EXPECT_EQ(std::set<std::size_t>(survivors.begin(), survivors.end()),
              front_ids);
}

TEST(SelectSurvivorsTest, InvariantUnderInputPermutation)
{
    std::vector<SearchPoint> points = randomSearchPoints(25, 17);
    const std::vector<std::size_t> reference =
        selectSurvivors(points, 8);
    Rng rng(19);
    for (int round = 0; round < 5; ++round) {
        for (std::size_t i = points.size(); i-- > 1;)
            std::swap(points[i],
                      points[static_cast<std::size_t>(
                          rng.uniformInt(0, static_cast<std::int64_t>(i)))]);
        EXPECT_EQ(selectSurvivors(points, 8), reference);
    }
}

// ----- budget parsing and fidelity tags ----------------------------------

StatusOr<SearchBudget>
budgetFromJson(const std::string &text)
{
    auto doc = parseConfig(text);
    if (!doc.isOk())
        return doc.status();
    return searchBudgetFromConfig(doc.value());
}

TEST(SearchBudgetTest, ParsesNumberAndObjectForms)
{
    auto bare = budgetFromJson("9");
    ASSERT_TRUE(bare.isOk()) << bare.status().toString();
    EXPECT_EQ(bare.value().max_full_evals, 9);
    EXPECT_TRUE(bare.value().enabled());

    auto object = budgetFromJson(R"({
        "evals": 4,
        "proxy_opt_none": true,
        "proxy_prefix_fraction": 0.25
    })");
    ASSERT_TRUE(object.isOk()) << object.status().toString();
    EXPECT_EQ(object.value().max_full_evals, 4);
    EXPECT_TRUE(object.value().proxy_opt_none);
    EXPECT_DOUBLE_EQ(object.value().proxy_prefix_fraction, 0.25);

    auto disabled = budgetFromJson("0");
    ASSERT_TRUE(disabled.isOk());
    EXPECT_FALSE(disabled.value().enabled());
}

TEST(SearchBudgetTest, RejectsMalformedDocuments)
{
    EXPECT_FALSE(budgetFromJson("-3").isOk());
    EXPECT_FALSE(budgetFromJson("2.5").isOk());
    EXPECT_FALSE(budgetFromJson("\"nine\"").isOk());
    EXPECT_FALSE(budgetFromJson("[9]").isOk());
    EXPECT_FALSE(budgetFromJson(R"({"proxy_opt_none": true})").isOk());
    EXPECT_FALSE(budgetFromJson(R"({"evals": 9, "typo": 1})").isOk());
    EXPECT_FALSE(
        budgetFromJson(R"({"evals": 9, "proxy_opt_none": 1})").isOk());
    EXPECT_FALSE(
        budgetFromJson(R"({"evals": 9, "proxy_prefix_fraction": 1.5})")
            .isOk());
    // Out-of-int64-range counts must error, not hit undefined casts.
    EXPECT_FALSE(budgetFromJson("1e300").isOk());
    EXPECT_FALSE(budgetFromJson(R"({"evals": 1e300})").isOk());
}

TEST(SearchBudgetTest, DegenerateProxyOnlyFailsTheHalvingCheck)
{
    // A proxy identical to full fidelity is fine for the tuner (which
    // never runs proxies) but cannot drive halving.
    auto budget = budgetFromJson(R"({
        "evals": 9,
        "proxy_opt_none": false,
        "proxy_prefix_fraction": 0
    })");
    ASSERT_TRUE(budget.isOk()) << budget.status().toString();
    EXPECT_TRUE(budget.value().validate().isOk());
    EXPECT_FALSE(budget.value().validateForHalving().isOk());
    // Disabled budgets pass both: no rung would ever run.
    EXPECT_TRUE(SearchBudget{}.validateForHalving().isOk());
}

} // namespace
} // namespace cimmlc
