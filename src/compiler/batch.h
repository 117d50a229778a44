/**
 * @file
 * Batch sweeps: design-space exploration over models x architectures.
 *
 * The paper's evaluation (Figures 21/22) sweeps networks across
 * architecture presets one compile at a time; runSweep runs the same
 * sweep concurrently, one pool task per job, and aggregates the per-job
 * performance reports into one table. A BatchSweep holds every setting
 * of a sweep: fill one (or parse it with sweepFromFile) and run it.
 *
 * @code
 *   BatchSweep sweep;
 *   sweep.jobs = crossProductJobs({"resnet18", "vgg16"},
 *                                 {"isaac", "puma"}).value();
 *   sweep.knobs.tune = true; // optional per-job auto-tuning
 *   auto result = runSweep(sweep);
 *   std::cout << result.value().table();
 * @endcode
 *
 * Reentrancy: the whole compile path (scheduling, codegen, perfsim)
 * takes `const Graph &` / `const CimArchitecture &` and keeps no global
 * mutable state (logging counters are atomic), so concurrent jobs may
 * share one immutable CimArchitecture. Each job writes only its own
 * pre-allocated result slot, which makes the parallel run's output
 * byte-identical to the serial loop's.
 */
#ifndef CIMMLC_COMPILER_BATCH_H
#define CIMMLC_COMPILER_BATCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "compiler/knobs.h"
#include "perfsim/perf_model.h"
#include "search/search_budget.h"

namespace cimmlc {

/** One (model, architecture) compile in a sweep; names are preset keys. */
struct BatchJob {
    std::string model; //!< models::byName key, e.g. "resnet18"
    std::string arch;  //!< presets::byName key, e.g. "isaac"
};

/** Outcome of one BatchJob. */
struct BatchEntry {
    BatchJob job;
    Status status;          //!< per-job result; perf is valid iff OK
    PerfReport perf;
    std::int64_t nodes = 0;   //!< workload graph size
    std::int64_t weights = 0; //!< workload weight count
    std::int64_t flow_statements = 0; //!< emitted meta-operator count
    std::string config;       //!< ScheduleOptions the job compiled with
    bool tuned = false;       //!< config came from the auto-tuner
    //! mopcheck findings; -1 = the lint stage did not run for this job
    std::int64_t lint_errors = -1;
    std::int64_t lint_warnings = -1;
};

/** Aggregated sweep results, in job-submission order. */
struct BatchResult {
    std::vector<BatchEntry> entries;

    /** Number of entries whose status is OK. */
    std::int64_t okCount() const;

    /** Renders the aggregated latency/energy table. */
    std::string table() const;
};

/** Every setting of one sweep; sweepFromFile parses one from kvjson. */
struct BatchSweep {
    std::vector<BatchJob> jobs;
    //! the knobs every job compiles with (search_budget is not read:
    //! budget is); a linted job's finding counts land in BatchEntry and
    //! grow the table a "lint" column
    RpcCompileRequest knobs;
    //! per-job tuner evaluation budget ("budget": N or object); enables
    //! dominance pruning when tuning (see search/search_budget.h)
    SearchBudget budget;
    int threads = 0; //!< 0 = one per hardware thread, 1 = serial loop
};

/**
 * Compiles @p jobs with @p sweep's settings; sweep.jobs is not read, so
 * a shard passes its slice. Per-job failures (unknown name, infeasible
 * mapping) are recorded in the entry, not propagated. Entries are
 * always in @p jobs order regardless of thread timing. A tuned sweep
 * shares one TuneCache across the run, so jobs repeating a model x arch
 * pair reuse the evaluated candidates. The call itself only fails on
 * an empty job list or a knob value that names nothing.
 */
StatusOr<BatchResult> runSweep(const BatchSweep &sweep,
                               const std::vector<BatchJob> &jobs);

/** Compiles every job of @p sweep. */
inline StatusOr<BatchResult>
runSweep(const BatchSweep &sweep)
{
    return runSweep(sweep, sweep.jobs);
}

/**
 * Builds the models x archs cross product, validating every name up
 * front (models::byName aborts on unknown names, so the batch path
 * must reject them before compiling).
 */
StatusOr<std::vector<BatchJob>>
crossProductJobs(const std::vector<std::string> &model_names,
                 const std::vector<std::string> &arch_names);

/**
 * Parses a sweep file:
 * @code
 *   {
 *     "models": ["resnet18", "vgg16"],  # required strings, model presets
 *     "archs": ["isaac", "puma"],       # required strings, arch presets
 *     "threads": 0,                     # int; 0 = hardware concurrency
 *     "budget": 64,                     # number or object: tuner budget
 *     "opt": "full",                    # string: none | cg | cg+mvm | full
 *     "dual_mode": false,               # bool: resident dual-mode arrays
 *     "host_offload": false,            # bool: digital runs on the host
 *     "tune": false,                    # bool: auto-tune each job
 *     "objective": "latency",           # string: latency | energy | edp
 *     "lint": false,                    # bool: mopcheck each job's flow
 *     "lint_strict": false,             # bool: lint errors fail the job
 *     "perf_engine": "closed_form"      # string: closed_form | event
 *   }
 * @endcode
 *
 * The knob keys (from "opt" on) are read by readFileKnobs(), as a
 * compile frame reads them. A key of another kvjson type, or any other
 * key, is an error naming it. "budget" takes a bare evaluation count
 * or the object form searchBudgetFromConfig accepts; it only applies
 * to tuned sweeps.
 */
StatusOr<BatchSweep> sweepFromFile(const std::string &path);

/** Parses sweep text (same schema as sweepFromFile). */
StatusOr<BatchSweep> sweepFromText(const std::string &text);

} // namespace cimmlc

#endif // CIMMLC_COMPILER_BATCH_H
