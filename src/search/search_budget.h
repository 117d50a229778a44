/**
 * @file
 * Search budgets and evaluation fidelities — the shared vocabulary of
 * the budgeted search engine (search/halving.h, search/dominance.h)
 * that both the schedule AutoTuner and the architecture ArchExplorer
 * drive.
 *
 * A SearchBudget bounds how many *full-fidelity* evaluations a search
 * may spend; the engines stretch it with cheap proxies: the tuner
 * prunes lattice points whose enabled-knob subsets already proved
 * harmful (dominance pruning), the explorer runs successive halving —
 * every candidate is priced on a proxy stage first (forced `opt=none`
 * and/or a topological prefix of the workload) and only the surviving
 * fraction per rung is promoted to full evaluation.
 *
 * A SearchFidelity names how an evaluation was cheapened. It is part of
 * every TuneCache key (evaluationKey), so a warm cache entry produced by
 * a halving rung can never alias a full evaluation of the same
 * (graph, arch, options) point.
 */
#ifndef CIMMLC_SEARCH_SEARCH_BUDGET_H
#define CIMMLC_SEARCH_SEARCH_BUDGET_H

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/status.h"

namespace cimmlc {

/**
 * How one evaluation was cheapened relative to full fidelity. The
 * default-constructed value means "full fidelity".
 */
struct SearchFidelity {
    //! schedule/price only the first N compute nodes of the workload
    //! (0 = the whole graph)
    std::int64_t prefix_nodes = 0;
    //! the evaluation forced ScheduleOptions::none() regardless of the
    //! configuration under search
    bool forced_opt_none = false;

    bool operator==(const SearchFidelity &) const = default;
};

/**
 * Evaluation budget for one search run.
 *
 * `max_full_evals == 0` disables budgeting — both engines fall back to
 * their exhaustive paths, byte-identical to the pre-budget behaviour.
 * When enabled, the tuner treats it as a cap on candidate evaluations
 * (dominance pruning active) and the explorer as the number of sweep
 * points promoted to full fidelity (successive halving active).
 */
struct SearchBudget {
    //! maximum full-fidelity evaluations (0 = unlimited / exhaustive)
    std::int64_t max_full_evals = 0;

    //! proxy rungs evaluate a topological prefix of roughly this
    //! fraction of the workload's compute nodes (0 = the whole graph).
    //! The default half-workload prefix at the *same* opt level is the
    //! safer proxy: it preserves relative architecture ranking, where
    //! forcing opt=none misranks designs whose advantage only shows
    //! with the optimizations on (see the README fidelity caveats).
    double proxy_prefix_fraction = 0.5;

    //! proxy rungs force `opt=none` (cheapest schedule space point);
    //! off by default — combine with or substitute for the prefix only
    //! when the sweep's ranking is insensitive to the opt level
    bool proxy_opt_none = false;

    bool enabled() const { return max_full_evals > 0; }

    /** Range validation shared by every engine. The tuner only reads
     * max_full_evals, so the proxy fields are not constrained here —
     * halving callers add validateForHalving(). */
    Status validate() const;

    /**
     * The additional invariant of the successive-halving path: when
     * the budget is enabled, the proxy stage must actually be cheaper
     * than full fidelity (a prefix and/or forced opt=none), or every
     * "proxy" rung would silently run — and cache-key — full
     * evaluations. The ArchExplorer enforces this whenever a rung
     * ladder would run proxies, including budgets enabled late by the
     * `--search-budget` CLI override.
     */
    Status validateForHalving() const;

    /** "evals<=N proxy=none" style render for summaries and tables. */
    std::string toString() const;

    bool operator==(const SearchBudget &) const = default;
};

/**
 * Parses a `"budget"` kvjson value: either a bare number (the full-eval
 * cap, proxy defaults applied) or an object
 * @code
 *   {
 *     "evals": 9,                   # max full-fidelity evaluations
 *     "proxy_opt_none": true,       # proxy forces opt=none
 *     "proxy_prefix_fraction": 0.5  # proxy workload prefix (0 = whole)
 *   }
 * @endcode
 * Malformed documents return a Status error; they never abort.
 */
StatusOr<SearchBudget> searchBudgetFromConfig(const ConfigValue &doc);

/** Serializes @p budget for reports (inverse of the object form). */
ConfigValue searchBudgetToConfig(const SearchBudget &budget);

} // namespace cimmlc

#endif // CIMMLC_SEARCH_SEARCH_BUDGET_H
