/**
 * @file
 * The staged compilation-session API: one request/artifact pipeline
 * behind every entry point of the stack (CLI, batch sweeps, the
 * auto-tuner's candidate evaluation, and functional verification).
 *
 * A CompileRequest declaratively captures everything one compilation
 * needs — the workload (preset name, kvjson file/text, or a borrowed
 * Graph), the Abs-arch (preset name, kvjson file/text, or a borrowed
 * CimArchitecture), the optimization level or explicit ScheduleOptions,
 * auto-tuning, the thread budget, and which artifacts to materialize.
 * CompilerSession runs the paper's Figure 3 flow as named stages
 *
 *   load -> validate -> tune? -> schedule -> codegen -> lint? -> perf
 *        -> verify?
 *
 * through a small stage runner that records per-stage wall time and a
 * structured diagnostic line into CompileArtifacts, supports stopping
 * after any stage, and exposes an observer hook so callers can stream
 * progress (the CLI prints its header from it) without private copies
 * of the pipeline.
 *
 * @code
 *   CompileRequest request;
 *   request.model = "resnet18";
 *   request.arch = "isaac-baseline";
 *   CompilerSession session(std::move(request));
 *   auto artifacts = session.run();
 *   std::cout << artifacts.value().perf->toString() << "\n";
 *   std::cout << artifacts.value().toConfig().dump(true) << "\n";
 * @endcode
 */
#ifndef CIMMLC_COMPILER_SESSION_H
#define CIMMLC_COMPILER_SESSION_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "cache/artifact_cache.h"
#include "common/config.h"
#include "common/status.h"
#include "graph/graph.h"
#include "mop/analyzer.h"
#include "perfsim/perf_model.h"
#include "funcsim/verify.h"
#include "search/search_budget.h"
#include "sched/autotune.h"
#include "sched/codegen.h"
#include "sched/options.h"
#include "sched/schedule.h"

namespace cimmlc {

/** Pipeline stages, in execution order. */
enum class CompileStage {
    kLoad,     //!< resolve workload and architecture from their sources
    kValidate, //!< structural graph and Abs-arch preconditions
    kTune,     //!< optional schedule auto-tuning (request.tune)
    kSchedule, //!< multi-level scheduling
    kCodegen,  //!< meta-operator flow generation (outputs.flow)
    kLint,     //!< mopcheck dataflow analysis of the flow (request.lint)
    kPerf,     //!< performance evaluation (request.perf_engine)
    kVerify,   //!< bit-exact functional verification (outputs.verify)
};

/** Stable stage name ("load", "validate", ...). */
const char *compileStageName(CompileStage stage);

/** Maps an --opt level name (none|cg|cg+mvm|full) to ScheduleOptions. */
StatusOr<ScheduleOptions> scheduleOptionsByName(const std::string &level);

/** Compressed (repeat-block) codegen: compact and costed, the default
 * for reporting pipelines; unroll for executable flows. */
inline CodegenOptions
compressedCodegenOptions()
{
    CodegenOptions options;
    options.unroll = false;
    return options;
}

/** Which artifacts the session materializes beyond the schedule. */
struct CompileOutputs {
    bool schedule_report = false; //!< render Schedule::summary text
    bool flow = true;             //!< run codegen (meta-operator flow)
    bool flow_text = false;       //!< render the flow as printable text
    std::int64_t flow_limit = 40; //!< statement cap for flow_text (0 = all)
    bool verify = false;          //!< run bit-exact functional verification
};

/**
 * Everything one compilation needs, declaratively.
 *
 * Workload: exactly one of {model, model_file, model_text, graph}.
 * Architecture: at most one of {arch, arch_file, arch_text, arch_ref};
 * all empty selects the "isaac-baseline" preset. Borrowed pointers are
 * not owned — the caller keeps them alive for the session's lifetime.
 */
struct CompileRequest {
    // ----- workload (exactly one source) --------------------------------
    std::string model;              //!< models::byName preset key
    std::string model_file;         //!< kvjson graph file path
    std::string model_text;         //!< inline kvjson graph
    const Graph *graph = nullptr;   //!< borrowed pre-built graph

    // ----- architecture (at most one source) ----------------------------
    std::string arch;                        //!< presets::byName key
    std::string arch_file;                   //!< kvjson Abs-arch file path
    std::string arch_text;                   //!< inline kvjson Abs-arch
    const CimArchitecture *arch_ref = nullptr; //!< borrowed architecture

    // ----- scheduling configuration -------------------------------------
    std::string opt = "full"; //!< none | cg | cg+mvm | full
    //! explicit options; set by programmatic callers, wins over opt
    std::optional<ScheduleOptions> options;

    //! host-CPU cost model for hybrid offload: prices digital regions
    //! whenever the effective options (or a tuned candidate) enable
    //! host_offload. It is part of every stage-cache key.
    HostModel host_model;

    /**
     * Compile only the topological prefix holding the first N non-input
     * operators of the workload (0 = the whole graph) — the cheap proxy
     * fidelity the budgeted search engines price halving rungs with
     * (graph/analysis.h topoPrefix). The prefix is built by the load
     * stage, so every downstream stage (tune, schedule, perf) sees the
     * truncated workload; reports carry the "#prefixN" name marker.
     */
    std::int64_t workload_prefix_nodes = 0;

    // ----- auto-tuning ---------------------------------------------------
    bool tune = false;
    TuneObjective objective = TuneObjective::kLatency;
    TuneCache *tune_cache = nullptr; //!< optional shared memo (not owned)

    /**
     * Optional stage-level artifact cache (not owned). When set, every
     * stage after load derives a fingerprint key from its own inputs
     * (graph + arch digest, effective schedule options, codegen
     * parameters, upstream-stage keys) and replays a prior successful
     * result on a hit instead of recomputing — so a request that
     * changes one stage input re-runs only the invalidated suffix.
     * Replayed stages are tagged `cached` in their StageTrace and
     * report their replay wall time, not the original compute time.
     */
    ArtifactCache *artifact_cache = nullptr;
    //! evaluation budget for the tune stage: enables dominance pruning
    //! and caps candidate evaluations (see search/search_budget.h)
    SearchBudget search_budget;

    //! worker threads for the tune stage (0 = hardware concurrency)
    int threads = 0;

    // ----- static analysis (mopcheck) ------------------------------------
    //! run the mopcheck lint stage over the emitted flow (needs
    //! outputs.flow); findings land in CompileArtifacts::lint
    bool lint = false;
    //! fail the lint stage (nonzero session status) when mopcheck
    //! reports any error-severity finding; implies nothing extra when
    //! the flow is clean
    bool lint_strict = false;

    // ----- performance evaluation ----------------------------------------
    //! which engine the perf stage prices the workload with. kEvent
    //! needs the emitted flow, so codegen is auto-enabled for it even
    //! when outputs.flow is off.
    PerfEngineKind perf_engine = PerfEngineKind::kClosedForm;

    //! last stage to run (kSchedule = schedule only, no codegen or perf)
    CompileStage stop_after = CompileStage::kVerify;

    std::uint64_t verify_seed = 1234; //!< stimulus seed for the verify stage
    CodegenOptions codegen = compressedCodegenOptions();
    CompileOutputs outputs;

    /** Structural validation (conflicting sources, bad opt name, ...). */
    Status validate() const;
};

/** One completed (or failed) stage of a session run. */
struct StageTrace {
    CompileStage stage = CompileStage::kLoad;
    Status status;
    double wall_ms = 0.0;  //!< wall-clock time the stage took; for a
                           //!< cached replay, the replay time itself
    std::string detail;    //!< one-line structured diagnostic
    bool cached = false;   //!< replayed from the stage artifact cache
};

/**
 * Everything a session run produces. Heavyweight artifacts are optional
 * and present iff their stage ran; `stages` records what ran, in order,
 * with per-stage wall time. toConfig() serializes the whole record as
 * kvjson — the CLI's `--report json` wire format.
 */
struct CompileArtifacts {
    // Workload / architecture identity (from the load stage).
    std::string workload;
    std::int64_t nodes = 0;
    std::int64_t weights = 0;
    std::string arch_name;
    std::string arch_mode;  //!< computing mode name (CM | XBM | WLM)
    std::string arch_text;  //!< CimArchitecture::toString render

    ScheduleOptions options; //!< configuration actually compiled with
    bool tuned = false;      //!< options came from the tune stage
    std::optional<TuneResult> tune;

    std::optional<Schedule> schedule;
    std::optional<CodegenResult> code;
    std::optional<AnalyzeResult> lint;
    std::optional<PerfReport> perf;
    std::optional<VerifyReport> verify;

    std::string schedule_report; //!< iff outputs.schedule_report
    std::string flow_text;       //!< iff outputs.flow_text

    std::vector<StageTrace> stages;

    /** Emitted meta-operator count (0 before codegen). */
    std::int64_t flowStatements() const;

    /** Serializes the report as a kvjson document (schema
     * "cimmlc.report.v1"): workload/arch identity, the chosen schedule
     * config, perf numbers, flow counts, verify outcome, and per-stage
     * wall times. */
    ConfigValue toConfig() const;
};

/**
 * Runs one CompileRequest through the staged pipeline.
 *
 * @code
 *   CompileRequest request;
 *   request.model = "lenet5";
 *   request.tune = true;
 *   CompilerSession session(std::move(request));
 *   session.setObserver([](const StageTrace &t, const CompileArtifacts &) {
 *       std::fprintf(stderr, "[%s] %.2f ms\n",
 *                    compileStageName(t.stage), t.wall_ms);
 *   });
 *   auto artifacts = session.run();
 * @endcode
 */
class CompilerSession
{
  public:
    //! called after every stage (including a failing one) with the trace
    //! just recorded and the artifacts built so far
    using StageObserver =
        std::function<void(const StageTrace &, const CompileArtifacts &)>;

    explicit CompilerSession(CompileRequest request)
        : request_(std::move(request))
    {
    }

    //! polled between stages; returning true aborts the run
    using CancelCheck = std::function<bool()>;

    const CompileRequest &request() const { return request_; }
    void setObserver(StageObserver observer)
    {
        observer_ = std::move(observer);
    }

    /**
     * Installs a cancellation poll. run() consults it before every
     * stage and aborts with kFailedPrecondition ("canceled") when it
     * returns true — the compile daemon uses this to stop a session
     * whose client disconnected mid-compile. Stages themselves are not
     * interrupted; cancellation lands at the next stage boundary.
     */
    void setCancelCheck(CancelCheck check)
    {
        cancel_check_ = std::move(check);
    }

    /**
     * Runs the enabled stages in order up to request.stop_after. A stage
     * failure aborts the run and returns that stage's Status with the
     * stage name as context; per-stage traces still reach the observer.
     */
    StatusOr<CompileArtifacts> run();

    /** Resolved workload/arch; valid once the load stage completed
     * (i.e. inside observer callbacks after kLoad, or after a
     * successful run()). */
    const Graph &graph() const { return *graph_; }
    const CimArchitecture &arch() const { return *arch_; }

    /** Stages with cached == true in the final trace (0 on a cold
     * run). The load stage always executes — it resolves the workload
     * and architecture the cache keys are derived from. */
    static std::size_t cachedStageCount(const CompileArtifacts &artifacts);

  private:
    bool stageEnabled(CompileStage stage) const;
    Status runStage(CompileStage stage, CompileArtifacts &artifacts);
    /** Cache key for @p stage from its own inputs; "" = not cacheable. */
    std::string stageKey(CompileStage stage,
                         const CompileArtifacts &artifacts) const;
    /** Copies a cached stage artifact back into @p artifacts. */
    void replayStage(CompileStage stage, const ArtifactCache::Entry &entry,
                     CompileArtifacts &artifacts);
    /** Derives what a stage's artifact implies, after a run and a
     * replay alike: the tuned options, the schedule report, the flow
     * text, and the lint-strict verdict, which is this call's status. */
    Status deriveOutputs(CompileStage stage,
                         CompileArtifacts &artifacts) const;
    /** Stores a successful stage result under @p key. */
    void storeStage(CompileStage stage, const std::string &key,
                    double compute_ms, const CompileArtifacts &artifacts,
                    const std::string &detail);
    Status stageLoad(CompileArtifacts &artifacts, std::string &detail);
    Status stageValidate(std::string &detail);
    Status stageTune(CompileArtifacts &artifacts, std::string &detail);
    Status stageSchedule(CompileArtifacts &artifacts, std::string &detail);
    Status stageCodegen(CompileArtifacts &artifacts, std::string &detail);
    Status stageLint(CompileArtifacts &artifacts, std::string &detail);
    Status stagePerf(CompileArtifacts &artifacts, std::string &detail);
    Status stageVerify(CompileArtifacts &artifacts, std::string &detail);

    CompileRequest request_;
    StageObserver observer_;
    CancelCheck cancel_check_;
    std::optional<Graph> owned_graph_;
    std::optional<CimArchitecture> owned_arch_;
    const Graph *graph_ = nullptr;
    const CimArchitecture *arch_ = nullptr;
    //! graph + arch digest all stage keys chain from (set after load)
    std::string base_digest_;
};

} // namespace cimmlc

#endif // CIMMLC_COMPILER_SESSION_H
