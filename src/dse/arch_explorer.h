/**
 * @file
 * Architecture design-space exploration: the AutoTuner inverted.
 *
 * The auto-tuner (sched/autotune.h) searches schedule options for a
 * fixed Abs-arch; the ArchExplorer fixes the workload and sweeps the
 * Abs-arch parameters themselves — crossbar geometry, crossbar/core
 * grids, NoC topology and bandwidth, buffer bandwidths, computing
 * mode — the knobs the paper's Figures 5-8 abstraction exposes exactly
 * so one workload can be retargeted across CM/XBM/WLM chips.
 *
 * Candidates are enumerated deterministically from a kvjson sweep spec
 * (arch/serialize.h), each is priced through a staged CompilerSession
 * (optionally with per-candidate schedule auto-tuning sharing one
 * TuneCache), evaluation fans out over a thread pool (FanOut, one task
 * per candidate) with pre-assigned result slots, and the
 * latency/energy Pareto front is computed with deterministic dominance
 * filtering — the report is byte-identical for any thread count, the
 * same discipline the AutoTuner and batch sweeps follow.
 */
#ifndef CIMMLC_DSE_ARCH_EXPLORER_H
#define CIMMLC_DSE_ARCH_EXPLORER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch.h"
#include "arch/serialize.h"
#include "common/config.h"
#include "common/status.h"
#include "compiler/knobs.h"
#include "perfsim/perf_model.h"
#include "search/search_budget.h"

namespace cimmlc {

/**
 * A parsed `--arch-dse` spec: one workload, a base architecture, and
 * the sweep axes mutated on top of it.
 *
 * @code
 *   {
 *     "model": "lenet5",            # string, or model_file / model_text
 *     "arch": "jain",               # string, or arch_file / arch_text
 *     "sweep": { ... },             # object, see sweepSpecFromConfig
 *     "threads": 0,                 # int; 0 = hardware concurrency
 *     "budget": 9,                  # number or object: halving budget
 *     "opt": "full",                # string: fixed options when untuned
 *     "dual_mode": false,           # bool: resident dual-mode arrays
 *     "host_offload": false,        # bool: host/CIM hybrid offload
 *     "tune": false,                # bool: auto-tune each candidate
 *     "objective": "latency",       # string: ranking (and tuning)
 *     "lint": false,                # bool: gate candidates on mopcheck
 *     "lint_strict": false,         # bool: the same as lint here
 *     "perf_engine": "closed_form"  # string: closed_form | event
 *   }
 * @endcode
 *
 * The knob keys (from "opt" on) are read by readFileKnobs(), as a
 * compile frame reads them. A key of another kvjson type, or any other
 * key, is an error naming it.
 */
struct DseSpec {
    // Workload (exactly one source).
    std::string model;      //!< models::byName preset key
    std::string model_file; //!< kvjson graph file path
    std::string model_text; //!< inline kvjson graph

    CimArchitecture base_arch;   //!< resolved base design
    ArchSweepSpec sweep;         //!< axes mutated on top of it

    /**
     * The knobs every full evaluation compiles with; search_budget is
     * not read, budget is. The objective ranks candidates, tuned or
     * not. Lint (or lint_strict) gates them: any error finding in a
     * candidate's flow marks it infeasible. Halving proxy rungs run the
     * fixed options closed-form, untuned and unlinted.
     */
    RpcCompileRequest knobs;
    int threads = 0; //!< 0 = hardware concurrency, 1 = serial

    /**
     * Full-fidelity evaluation budget (`"budget"` key / CLI
     * `--search-budget N`). When enabled, explore() runs successive
     * halving (search/halving.h): every candidate is priced on a cheap
     * proxy stage first and only the surviving fraction per rung is
     * promoted to full evaluation; the Pareto front is computed over
     * fully evaluated candidates only.
     */
    SearchBudget budget;
};

/**
 * Whether @p spec may legally be sharded across processes. Sharding
 * needs every candidate's evaluation to be decidable from the spec
 * alone; adaptive searches are not, and the returned error names the
 * specific adaptive mechanism (halving promotion, shared tuner memo)
 * so a spec author knows which key to drop. Checked by
 * ArchExplorer::restrictToShard and mergeDseShards (compiler/shard.h).
 */
Status validateSpecForSharding(const DseSpec &spec);

/** Parses a DSE spec document / text / file. */
StatusOr<DseSpec> dseSpecFromConfig(const ConfigValue &doc);
StatusOr<DseSpec> dseSpecFromText(const std::string &text);
StatusOr<DseSpec> dseSpecFromFile(const std::string &path);

/** One evaluated point of the architecture design space. */
struct DseCandidate {
    //! stable identity: position in the row-major sweep enumeration;
    //! doubles as the deterministic tie-break key
    std::size_t index = 0;
    CimArchitecture arch;
    //! swept (param name, value) pairs, in canonical axis order
    std::vector<std::pair<std::string, std::string>> params;
    std::string label; //!< "xb_size=128x128 core_grid=2x2"

    //! outcome of the last evaluation this candidate received (full
    //! fidelity when full_eval, otherwise its final proxy rung)
    Status status;
    //! full-fidelity metrics; valid iff full_eval && status OK
    double latency_cycles = 0.0;
    double energy_pj = 0.0;
    double edp = 0.0;
    bool tuned = false;
    std::string config; //!< ScheduleOptions the candidate compiled with
    bool on_front = false;

    // ----- budgeted-search provenance -----------------------------------
    //! last rung this candidate was evaluated in (proxy rungs first;
    //! the final ladder rung is full fidelity). 0 for exhaustive runs.
    std::int64_t rung = 0;
    //! received a full-fidelity evaluation — the precondition for
    //! Pareto-front membership
    bool full_eval = true;
    bool proxied = false; //!< proxy metrics below are valid
    double proxy_latency_cycles = 0.0;
    double proxy_energy_pj = 0.0;

    double objectiveValue(TuneObjective objective) const;
};

/**
 * Indices of the non-dominated feasible candidates under (latency,
 * energy) minimization, sorted by ascending latency, then energy, then
 * index. Dominance is the strict Pareto order: a dominates b iff a is
 * <= in both objectives and < in at least one, so duplicate points are
 * both kept. Membership depends only on the metric values, never on
 * evaluation order or timing. Only fully evaluated candidates
 * (full_eval) participate: a budgeted run's front is guaranteed to be
 * a subset of the candidates that received full-fidelity evaluation —
 * proxy metrics can steer promotion but never claim front membership.
 */
std::vector<std::size_t>
paretoFrontIndices(const std::vector<DseCandidate> &candidates);

/** Outcome of one exploration. */
struct DseResult {
    TuneObjective objective = TuneObjective::kLatency;
    std::string workload;
    std::int64_t nodes = 0;
    std::int64_t weights = 0;
    std::string base_arch;
    bool tuned = false;
    bool lint = false; //!< full evaluations were gated on mopcheck
    //! engine full evaluations were priced with
    PerfEngineKind perf_engine = PerfEngineKind::kClosedForm;
    //! candidates in ascending index order (thread-count independent)
    std::vector<DseCandidate> candidates;
    //! Pareto front, sorted by (latency, energy, index)
    std::vector<std::size_t> front;
    std::int64_t cache_hits = 0;    //!< memoized evaluations this run
    std::int64_t cache_entries = 0; //!< cache size after the run

    // ----- budgeted-search provenance -----------------------------------
    SearchBudget budget; //!< the budget this exploration ran under
    //! the halving ladder actually run (rung sizes over the unique
    //! evaluations; a single rung means exhaustive full fidelity)
    std::vector<std::int64_t> rung_sizes;
    //! unique full-fidelity evaluations requested (memo hits included)
    std::int64_t full_evals = 0;
    //! unique proxy-stage session runs across all halving rungs
    std::int64_t proxy_evals = 0;

    /** Fully evaluated candidates whose evaluation succeeded. */
    std::int64_t feasibleCount() const;

    /** Sets front (and on_front) from the candidates. An empty front
     * is an error, after @p context, that carries the first infeasible
     * candidate's status. */
    Status markFront(const std::string &context);

    /** Front point minimizing the ranking objective (ties: EDP, then
     * index). @pre front is non-empty (explore() guarantees it). */
    const DseCandidate &bestByObjective() const;

    /** Ranked per-candidate table: feasible points by ascending
     * objective (ties: EDP, then index), front rows marked, infeasible
     * points last. */
    std::string table() const;

    /** One-line verdict for CLI output. */
    std::string summary() const;

    /** Serializes the full evaluated set + front membership as kvjson
     * (schema "cimmlc.dse.v1"). */
    ConfigValue toConfig() const;
};

/**
 * Architecture design-space explorer.
 *
 * @code
 *   auto spec = dseSpecFromFile("examples/dse_lenet5.json");
 *   TuneCache cache;
 *   ArchExplorer explorer(spec.value());
 *   auto result = explorer.explore(&cache);
 *   std::cout << result.value().table();
 * @endcode
 */
class ArchExplorer
{
  public:
    explicit ArchExplorer(DseSpec spec) : spec_(std::move(spec)) {}

    const DseSpec &spec() const { return spec_; }

    /**
     * Restricts explore() to the candidates whose enumeration index
     * satisfies `index % count == shard` — one slice of a cross-process
     * sweep (compiler/shard.h). Requires an exhaustive, untuned spec:
     * halving promotion and the shared tuner memo are globally
     * adaptive, so their slices could not merge deterministically.
     * A sharded result's candidates outside the slice are left
     * unevaluated (full_eval == false) and its Pareto front may be
     * empty; mergeDseShards() reassembles the full result.
     */
    Status restrictToShard(int shard, int count);

    /**
     * The candidate architectures, in deterministic row-major sweep
     * order (first axis slowest). Candidates whose mutated geometry
     * fails CimArchitecture::validate() carry that status so the sweep
     * reports them instead of aborting.
     */
    std::vector<DseCandidate> enumerate() const;

    /** Loads the spec's workload. */
    StatusOr<Graph> loadWorkload() const;

    /** The result explore() fills for @p graph, the spec's workload:
     * the spec's facts and enumerate()'s unevaluated candidates. */
    StatusOr<DseResult> blankResult(const Graph &graph) const;

    /**
     * Evaluates every candidate and computes the Pareto front. @p cache
     * memoizes evaluations across candidates and calls — with per-
     * candidate tuning it is the tuner's shared memo, without it each
     * candidate's single (graph, arch, options) evaluation is memoized
     * under the tuner's evaluationKey, so a persisted cache warms both
     * modes. Fails only when the workload cannot be loaded or no
     * candidate is feasible.
     */
    StatusOr<DseResult> explore(TuneCache *cache = nullptr) const;

  private:
    DseSpec spec_;
    int shard_index_ = 0;
    int shard_count_ = 1; //!< 1 = unsharded
};

} // namespace cimmlc

#endif // CIMMLC_DSE_ARCH_EXPLORER_H
