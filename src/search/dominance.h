/**
 * @file
 * Dominance primitives of the budgeted search engine: Pareto dominance
 * on (latency, energy) metric points, the enabled-knob subset order on
 * schedule-option encodings, the tuner's dominance pruner, and the
 * rank-based survivor selection successive halving promotes with.
 *
 * Everything here is deterministic and order-free: decisions depend
 * only on the recorded values, never on evaluation timing, which is
 * what lets the engines keep their byte-identical-across-thread-counts
 * contract while pruning.
 */
#ifndef CIMMLC_SEARCH_DOMINANCE_H
#define CIMMLC_SEARCH_DOMINANCE_H

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace cimmlc {

/** One evaluated point in objective space (both minimized). */
struct MetricPoint {
    double latency_cycles = 0.0;
    double energy_pj = 0.0;

    bool operator==(const MetricPoint &) const = default;
};

/** Strict Pareto dominance: <= in both components, < in at least one.
 * A strict partial order — irreflexive, transitive, antisymmetric.
 * Doubles as the pruner's evidence bar (see DominancePruner). */
bool strictlyDominates(const MetricPoint &a, const MetricPoint &b);

/**
 * The enabled-knob subset order on option encodings: `a` is below `b`
 * iff both agree on every context bit (knobs that are a choice, not a
 * toggle — e.g. the dimension binding and the segmentation-cap field)
 * and a's toggle bits are a proper subset of b's. A strict partial
 * order on encodings, used both by the pruner and the property tests.
 */
class KnobSubsetOrder
{
  public:
    KnobSubsetOrder(std::uint32_t knob_mask, std::uint32_t context_mask)
        : knob_mask_(knob_mask), context_mask_(context_mask)
    {
    }

    std::uint32_t knobMask() const { return knob_mask_; }
    std::uint32_t contextMask() const { return context_mask_; }

    /** True iff @p a is strictly below @p b in the subset order. */
    bool
    below(std::uint32_t a, std::uint32_t b) const
    {
        if ((a & context_mask_) != (b & context_mask_))
            return false;
        const std::uint32_t ka = a & knob_mask_;
        const std::uint32_t kb = b & knob_mask_;
        return ka != kb && (ka & kb) == ka;
    }

  private:
    std::uint32_t knob_mask_;
    std::uint32_t context_mask_;
};

/**
 * Dominance pruning for lattice searches (the AutoTuner).
 *
 * A recorded configuration A is *condemned* when another recorded
 * configuration C strictly below it (C ⊂ A in the knob order)
 * strictly Pareto-dominates it — no worse on any objective component
 * and strictly better on at least one, so the knobs A adds over C
 * demonstrably hurt (metric-identical no-op knobs never condemn). A
 * candidate B is pruned when any condemned A sits strictly below it:
 * B re-enables a knob set that already proved harmful, plus more.
 *
 * Pruning is sound bookkeeping, not an oracle: it can in principle
 * skip an interaction where further knobs redeem a harmful subset, so
 * the differential suite (tests/test_search_differential.cc) pins that
 * the selected best is unchanged on every preset workload x arch pair.
 * It can never *add* evaluations: the evaluated set under pruning is
 * always a subset of the exhaustive one.
 *
 * Not thread-safe; the engines record whole waves between decisions.
 */
class DominancePruner
{
  public:
    explicit DominancePruner(KnobSubsetOrder order) : order_(order) {}

    const KnobSubsetOrder &order() const { return order_; }

    /** Records one evaluation outcome. Infeasible points carry no
     * pruning evidence (more knobs may change feasibility). */
    void record(std::uint32_t encoding, const MetricPoint &metrics,
                bool feasible);

    /**
     * Returns the condemned configuration that proves @p encoding
     * skippable, or nullopt when it must be evaluated. Never condemns
     * on ties — only strict across-the-board regressions prune.
     */
    std::optional<std::uint32_t>
    shouldPrune(std::uint32_t encoding) const;

  private:
    KnobSubsetOrder order_;
    std::map<std::uint32_t, MetricPoint> evaluated_; //!< feasible only
    std::set<std::uint32_t> condemned_;
};

/** One candidate offered to survivor selection. */
struct SearchPoint {
    std::size_t id = 0; //!< caller-stable identity (e.g. sweep index)
    MetricPoint metrics;
    double objective = 0.0; //!< scalar ranking objective (minimized)
    bool feasible = true;
};

/**
 * Non-dominated sorting: rank 0 holds the Pareto-optimal feasible
 * points, rank 1 the front of the remainder, and so on (peeling).
 * Infeasible points get rank SIZE_MAX. Indices parallel @p points.
 */
std::vector<std::size_t>
paretoRanks(const std::vector<SearchPoint> &points);

/**
 * The @p keep points a halving rung promotes, ordered and chosen by
 * (Pareto rank, objective, EDP, id) ascending — multi-objective-aware
 * so a front spread across the latency/energy trade-off survives, with
 * the scalar objective breaking ties inside a rank. Infeasible points
 * are never selected. Returns ids, ascending by id.
 */
std::vector<std::size_t>
selectSurvivors(const std::vector<SearchPoint> &points,
                std::int64_t keep);

} // namespace cimmlc

#endif // CIMMLC_SEARCH_DOMINANCE_H
