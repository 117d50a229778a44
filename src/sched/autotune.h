/**
 * @file
 * Cost-model-guided schedule auto-tuning: the design-space exploration
 * the paper performs by hand in Sections 5-6 (CG duplication/pipelining,
 * MVM duplication/pipelining, VVM remap, dimension binding), automated.
 *
 * The tuner enumerates every legal `ScheduleOptions x DimensionBinding`
 * point for an architecture — clamped by its ComputeMode exactly as
 * `scheduleGraph` clamps, so a CM chip never wastes candidates on
 * MVM/VVM knobs — prices each point, and returns the best configuration
 * under a selectable objective.
 *
 * Pricing gives each candidate the status text and metrics a
 * CompilerSession run of its options (schedule + closed-form perf)
 * would give it, through the functions those stages call; the graph,
 * arch and host model are validated once per tune. Candidates that
 * agree on the six options runCgOptimization reads (CG duplication and
 * pipelining, binding, segment cap, dual mode, host offload) form a
 * group: 128 groups on every mode, with 8 members on WLM, 4 on XBM and
 * 1 on CM. One FanOut index per group computes the CG plan on the
 * group's first TuneCache miss, prices each member through
 * scheduleFromCg and the closed-form PerfEngine, and frees the plan when
 * the group is done. Results are independent of thread count because
 * every candidate owns a pre-assigned slot and ties break on the stable
 * option encoding.
 */
#ifndef CIMMLC_SCHED_AUTOTUNE_H
#define CIMMLC_SCHED_AUTOTUNE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/config.h"
#include "common/status.h"
#include "graph/graph.h"
#include "perfsim/perf_model.h"
#include "search/search_budget.h"
#include "sched/host_model.h"
#include "sched/options.h"

namespace cimmlc {

//! Candidate-encoding bits that are on/off optimization toggles (the
//! CG/MVM/VVM knobs) — the "enabled-knob set" dominance pruning orders
//! candidates by (search/dominance.h).
constexpr std::uint32_t kTuneKnobMask = 0x1Fu;
//! Encoding bits that are a choice, not a toggle (dimension binding,
//! the segmentation-cap field, dual-mode arrays, and host offload):
//! pruning only compares candidates that agree on them.
constexpr std::uint32_t kTuneContextMask = 0x3E0u;

/** What the tuner minimizes. */
enum class TuneObjective {
    kLatency, //!< total latency cycles (incl. reload)
    kEnergy,  //!< total energy, pJ
    kEdp,     //!< energy-delay product (cycles x pJ)
};

const char *tuneObjectiveName(TuneObjective objective);
StatusOr<TuneObjective> parseTuneObjective(const std::string &text);

/** One evaluated point of the schedule-option design space. */
struct TuneCandidate {
    //! stable identity: bit-packed option flags (see encodeOptions)
    std::uint32_t encoding = 0;
    ScheduleOptions options;
    Status status; //!< evaluation outcome; metrics valid iff OK
    double latency_cycles = 0.0;
    double energy_pj = 0.0;
    double edp = 0.0; //!< latency_cycles * energy_pj
    //! skipped by the budgeted search (dominance pruning or budget
    //! exhaustion); status carries the reason, metrics are invalid
    bool pruned = false;

    double objectiveValue(TuneObjective objective) const;
};

/** Outcome of one tuning run. */
struct TuneResult {
    TuneObjective objective = TuneObjective::kLatency;
    //! candidates in ascending encoding order (thread-count independent)
    std::vector<TuneCandidate> candidates;
    std::size_t best_index = 0;
    std::size_t default_index = 0; //!< ScheduleOptions{} defaults
    std::int64_t cache_hits = 0;   //!< memoized evaluations this run
    //! candidates actually evaluated (== candidates.size() when not
    //! budgeted; pruning can only ever shrink it)
    std::int64_t evaluated_count = 0;
    std::int64_t pruned_count = 0; //!< candidates skipped by the budget
    SearchBudget budget;           //!< the budget this run searched under

    const TuneCandidate &best() const { return candidates[best_index]; }
    const TuneCandidate &defaults() const
    {
        return candidates[default_index];
    }

    /** Objective improvement of best over the defaults (>= 1.0). */
    double speedupOverDefault() const;

    /** Per-candidate DSE report table (the paper's Figure-20d style). */
    std::string table() const;

    /** One-line verdict for CLI output. */
    std::string summary() const;
};

/**
 * Thread-safe memo of evaluated (graph, arch, options) points, so batch
 * sweeps that share a model x arch pair never re-evaluate a candidate.
 * Values are bit-identical to a fresh evaluation, which keeps cached and
 * uncached runs byte-identical.
 */
class TuneCache
{
  public:
    struct Entry {
        Status status;
        double latency_cycles = 0.0;
        double energy_pj = 0.0;
        double edp = 0.0;
    };

    std::optional<Entry> lookup(const std::string &key) const;
    void insert(const std::string &key, const Entry &entry);

    std::int64_t hits() const;
    std::size_t size() const;

    /**
     * Serializes the memo as a kvjson document (schema
     * "cimmlc.tunecache.v2"), keyed by evaluationKey(), so a sweep can
     * persist across processes (`cimmlc --tune-cache`).
     */
    ConfigValue toConfig() const;

    /**
     * Replaces the memo with @p doc's entries. A malformed document
     * (wrong schema, such as a v1 file, truncated entry, bad status
     * code) returns an error and leaves the cache EMPTY — callers
     * degrade to a cold cache with a diagnostic instead of aborting the
     * run.
     */
    Status loadFromConfig(const ConfigValue &doc);

    /** Atomically writes toConfig() as pretty kvjson to @p path
     * (temp file + rename, so a concurrent loadFromFile never sees a
     * torn document — the daemon snapshots a live cache). */
    Status saveToFile(const std::string &path) const;

    /** loadFromConfig over a kvjson file (same cold-cache-on-error
     * contract; a missing file is an error too). */
    Status loadFromFile(const std::string &path);

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
    mutable std::int64_t hits_ = 0;
};

/**
 * Identity of one (workload, Abs-arch) pair, the root of every memo key
 * (evaluationKey) and of a CompilerSession's stage-cache keys. The graph
 * side covers its name, node count, total weights and MACs, and each
 * topo-ordered node's kind, arity and output dims; the arch side is the
 * canonical archToConfig() dump, so a cache shared across architecture
 * candidates (the DSE explorer sweeps them) can never alias two arch
 * points that differ in any Abs-arch field.
 */
std::string evaluationDigest(const Graph &graph,
                             const CimArchitecture &arch);

/**
 * TuneCache key of one evaluation of the pair @p digest names: the
 * candidate encoding, the fidelity (a halving rung's proxy never aliases
 * a full evaluation), the host model (only when the encoding offloads
 * host regions, the one case that reads it), mopcheck gating and the
 * perf engine. Tuner candidates and fixed-options DSE points that agree
 * on all of them share an entry.
 */
std::string evaluationKey(const std::string &digest, std::uint32_t encoding,
                          const SearchFidelity &fidelity = {},
                          const HostModel &host = {}, bool lint = false,
                          PerfEngineKind engine = PerfEngineKind::kClosedForm);

/** Tuner configuration. */
struct AutoTuneConfig {
    TuneObjective objective = TuneObjective::kLatency;
    int threads = 0;          //!< 0 = hardware concurrency, 1 = serial
    TuneCache *cache = nullptr; //!< optional shared memo (not owned)
    /**
     * Evaluation budget. When enabled, candidates are evaluated in
     * deterministic waves (ascending enabled-knob count, then
     * encoding) with dominance pruning between waves — a candidate is
     * skipped when an evaluated configuration using a subset of its
     * knobs already regressed every objective component against its
     * own sub-configurations — and max_full_evals is a hard ceiling on
     * the total evaluations. One slot inside the cap stays reserved
     * for the default configuration, which is always evaluated so
     * speedup reporting keeps its baseline. The proxy-fidelity fields
     * of the budget are explorer-only; the tuner ignores them. Wave
     * decisions depend only on completed waves, so results stay
     * byte-identical across thread counts.
     */
    SearchBudget budget;
    //! host-CPU cost model used by candidates that enable host offload
    HostModel host_model;
};

/**
 * Exhaustive schedule auto-tuner.
 *
 * @code
 *   AutoTuner tuner({TuneObjective::kEdp});
 *   auto result = tuner.tune(graph, arch);
 *   CompileRequest request;
 *   request.graph = &graph;
 *   request.arch_ref = &arch;
 *   request.options = result.value().best().options;
 *   auto artifacts = CompilerSession(std::move(request)).run();
 * @endcode
 */
class AutoTuner
{
  public:
    explicit AutoTuner(AutoTuneConfig config = {}) : config_(config) {}

    const AutoTuneConfig &config() const { return config_; }

    /**
     * Evaluates every legal candidate and selects the objective minimum.
     * Per-candidate failures (infeasible mapping) are recorded in the
     * candidate entry; the call fails only when the graph is invalid or
     * no candidate is feasible.
     */
    StatusOr<TuneResult> tune(const Graph &graph,
                              const CimArchitecture &arch) const;

    /**
     * The legal candidate set for @p mode, ascending by encoding. CM
     * chips only expose the CG knobs and the binding; XBM adds the MVM
     * knobs; WLM adds the VVM remap.
     */
    static std::vector<ScheduleOptions>
    enumerateCandidates(ComputeMode mode);

    /** Bit-packs the option flags into the stable candidate identity. */
    static std::uint32_t encodeOptions(const ScheduleOptions &options);

    /** Inverse of encodeOptions. */
    static ScheduleOptions decodeOptions(std::uint32_t encoding);

  private:
    AutoTuneConfig config_;
};

} // namespace cimmlc

#endif // CIMMLC_SCHED_AUTOTUNE_H
