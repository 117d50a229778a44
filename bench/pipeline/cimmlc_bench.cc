/**
 * @file
 * Pipeline benchmark: drives one seeded workload through the public
 * compile API and prints every metric it measured as one JSON line.
 *
 *   cimmlc_bench --workload NAME --seed N --seconds S --trace 0|1
 *                [--trace-out FILE]
 *
 * An untraced run (--trace 0) measures the end-to-end metrics: each
 * request is one CompilerSession::run(), or for service-mixed one
 * DaemonClient round trip to an in-process DaemonServer. A traced run
 * (--trace 1) replays the same request stream by calling each layer's
 * public function directly, records an in-memory span around every
 * call, and reports per-layer metrics. Every traced result is checked
 * against a CompilerSession run of the same request, so this file's
 * copy of the stage order cannot drift from the session's.
 *
 * Every output is checked (session status, mopcheck errors, funcsim
 * bit-exactness, repeats reproducing the first result, daemon replies
 * byte-identical to in-process reports); a failed check counts against
 * `failed` and the process exits 1. bench/pipeline/README.md documents
 * the workloads and every metric.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arch/presets.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "compiler/session.h"
#include "daemon/client.h"
#include "daemon/server.h"
#include "funcsim/verify.h"
#include "graph/models.h"
#include "mop/analyzer.h"
#include "perfsim/perf_engine.h"
#include "sched/autotune.h"
#include "sched/codegen.h"
#include "sched/multi_level.h"

using namespace cimmlc;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

Clock::time_point
after(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

//! how long setup is built over and over to report its median (see
//! measureSetup)
constexpr double kSetupSeconds = 0.5;
//! requests each service client sends before timing starts, so the
//! daemon's artifact cache is in its steady state when timing begins
constexpr int kServiceWarmupPerClient = 40;
//! daemon stage-cache entries: below the working set, so both memo hits
//! and misses carry weight (README: memo hit ratio in [0.3, 0.7])
constexpr std::int64_t kServiceCacheCapacity = 48;
//! fixes which pool entry gets which Zipf rank; the workload seed only
//! drives the sampled sequence, so popularity does not change with it
constexpr std::uint64_t kZipfRankSeed = 0x5eedull;

//! the layers a traced request passes through, in session stage order
const std::vector<std::string> kLayers = {
    "graph.load",    "sched.validate", "sched.autotune",
    "sched.multi_level", "sched.codegen", "mop.analyzer",
    "perfsim.closed_form", "perfsim.event", "funcsim.verify",
};

int
workerThreads()
{
    return std::clamp(static_cast<int>(std::thread::hardware_concurrency()),
                      1, 4);
}

// ----- workloads -------------------------------------------------------------

/** One workload: its distinct requests (the pool) and how they are sent. */
struct Workload {
    std::string name;
    std::vector<RpcCompileRequest> pool;
    //! false: one in-process client sends whole passes over the pool,
    //! each pass in a seeded order; true: workerThreads() daemon clients
    //! each send a seeded Zipf(1) draw over the pool
    bool service = false;
};

std::optional<Workload>
makeWorkload(const std::string &name)
{
    const std::vector<std::string> four = {"isaac-baseline", "jain-jssc21",
                                           "puma", "jia-isscc21"};
    std::vector<std::string> five = four;
    five.push_back("tutorial-table2");

    Workload workload;
    workload.name = name;
    const auto add = [&workload](const std::string &model,
                                 const std::string &arch)
        -> RpcCompileRequest & {
        RpcCompileRequest request;
        request.model = model;
        request.arch = arch;
        workload.pool.push_back(request);
        return workload.pool.back();
    };

    if (name == "large-default") {
        for (const char *model : {"resnet18", "resnet50", "googlenet",
                                  "vgg11", "vgg16", "vit_small"})
            for (const std::string &arch : four)
                add(model, arch);
    } else if (name == "large-checked") {
        for (const char *model : {"resnet18", "googlenet", "vgg7",
                                  "vit_tiny"}) {
            for (const std::string &arch : four) {
                RpcCompileRequest &request = add(model, arch);
                request.lint = true;
                request.perf_engine = "event";
            }
        }
    } else if (name == "tuned-sweep") {
        for (const char *model : {"mlp", "lenet5", "conv_relu_toy",
                                  "macro_cnn", "inception_toy", "vgg7",
                                  "resnet18"}) {
            for (const char *arch : {"jain-jssc21", "puma", "jia-isscc21",
                                     "tutorial-table2"}) {
                for (const char *objective : {"latency", "energy", "edp"}) {
                    RpcCompileRequest &request = add(model, arch);
                    request.tune = true;
                    request.objective = objective;
                }
            }
        }
        // One isaac tune costs ~1 s (~4 ms per closed-form candidate),
        // as much as the other 84 entries together.
        add("lenet5", "isaac-baseline").tune = true;
    } else if (name == "service-mixed") {
        workload.service = true;
        for (const char *model : {"mlp", "lenet5", "conv_relu_toy",
                                  "macro_cnn", "inception_toy"}) {
            for (const std::string &arch : five) {
                RpcCompileRequest &request = add(model, arch);
                request.verify = true;
                request.lint = true;
            }
        }
        for (const char *model : {"resnet18", "vgg7", "vit_tiny",
                                  "googlenet"})
            for (const std::string &arch : five)
                for (const char *opt : {"full", "cg+mvm", "cg"})
                    add(model, arch).opt = opt;
    } else {
        return std::nullopt;
    }
    return workload;
}

/** Short human-readable name of a pool entry. */
std::string
entryLabel(const RpcCompileRequest &request)
{
    std::string label = request.model + "@" + request.arch;
    if (request.opt != "full")
        label += " opt=" + request.opt;
    if (request.tune)
        label += " tune=" + request.objective;
    if (request.lint)
        label += " lint";
    if (request.perf_engine != "closed_form")
        label += " engine=" + request.perf_engine;
    if (request.verify)
        label += " verify";
    return label;
}

/** The order of one in-process pass: a seeded permutation of the pool. */
std::vector<std::size_t>
nextPass(Rng &rng, std::size_t size)
{
    std::vector<std::size_t> order(size);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = size; i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
    return order;
}

/** One service client's request sequence: Zipf(s=1) over the pool. */
class ZipfStream
{
  public:
    ZipfStream(std::size_t size, std::uint64_t seed, int client)
        : rng_(seed * 1000003ull + static_cast<std::uint64_t>(client))
    {
        Rng rank_rng(kZipfRankSeed);
        by_rank_ = nextPass(rank_rng, size);
        double total = 0.0;
        for (std::size_t rank = 1; rank <= size; ++rank) {
            total += 1.0 / static_cast<double>(rank);
            cdf_.push_back(total);
        }
    }

    std::size_t
    next()
    {
        const double u = rng_.uniform() * cdf_.back();
        const auto rank = static_cast<std::size_t>(
            std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
        return by_rank_[std::min(rank, cdf_.size() - 1)];
    }

  private:
    Rng rng_;
    std::vector<std::size_t> by_rank_;
    std::vector<double> cdf_;
};

// ----- outcomes and checks ---------------------------------------------------

/** What one compile produced. The traced and session paths must agree
 * on every field, and repeats of one request must reproduce it. */
struct Outcome {
    double latency_cycles = 0.0;
    double energy_pj = 0.0;
    double stall_cycles = 0.0;
    std::int64_t logical_ops = 0;
    std::int64_t ir_nodes = 0;
    std::int64_t segments = 0;
    std::int64_t tune_evaluated = 0;
    std::int64_t lint_errors = 0;
    std::int64_t lint_warnings = 0;
    std::int64_t lint_statements = 0;
    std::int64_t verify_elements = 0;
    bool verify_match = true;

    bool operator==(const Outcome &) const = default;

    std::string
    describe() const
    {
        return strformat("latency %.17g energy %.17g ops %lld nodes %lld "
                         "lint %lld/%lld/%lld verify %d/%lld",
                         latency_cycles, energy_pj,
                         static_cast<long long>(logical_ops),
                         static_cast<long long>(ir_nodes),
                         static_cast<long long>(lint_errors),
                         static_cast<long long>(lint_warnings),
                         static_cast<long long>(lint_statements),
                         verify_match ? 1 : 0,
                         static_cast<long long>(verify_elements));
    }
};

/** Materialised Stmt nodes: every op and every block counts once. */
std::int64_t
countNodes(const std::vector<Stmt> &stmts)
{
    std::int64_t nodes = 0;
    for (const Stmt &stmt : stmts)
        nodes += 1 + countNodes(stmt.body);
    return nodes;
}

std::int64_t
countNodes(const MopProgram &program)
{
    return countNodes(program.init()) + countNodes(program.compute());
}

Outcome
outcomeOf(const CompileArtifacts &artifacts)
{
    Outcome outcome;
    if (artifacts.perf.has_value()) {
        outcome.latency_cycles = artifacts.perf->latency_cycles;
        outcome.energy_pj = artifacts.perf->energy.total();
        outcome.stall_cycles = artifacts.perf->stall_cycles;
    }
    if (artifacts.code.has_value()) {
        outcome.logical_ops = artifacts.code->program.counts().total();
        outcome.ir_nodes = countNodes(artifacts.code->program);
    }
    if (artifacts.schedule.has_value())
        outcome.segments =
            static_cast<std::int64_t>(artifacts.schedule->segments.size());
    if (artifacts.tune.has_value())
        outcome.tune_evaluated = artifacts.tune->evaluated_count;
    if (artifacts.lint.has_value()) {
        outcome.lint_errors = artifacts.lint->errors();
        outcome.lint_warnings = artifacts.lint->warnings();
        outcome.lint_statements = artifacts.lint->statements;
    }
    if (artifacts.verify.has_value()) {
        outcome.verify_match = artifacts.verify->match;
        outcome.verify_elements = artifacts.verify->elements_checked;
    }
    return outcome;
}

/** The fields of a daemon's `cimmlc.report.v1` reply that are checked. */
StatusOr<Outcome>
outcomeOfReport(const std::string &report_json)
{
    CIMMLC_ASSIGN_OR_RETURN(ConfigValue doc, parseConfig(report_json));
    Outcome outcome;
    CIMMLC_ASSIGN_OR_RETURN(ConfigValue perf, doc.get("perf"));
    outcome.latency_cycles = perf.getNumberOr("latency_cycles", 0.0);
    CIMMLC_ASSIGN_OR_RETURN(ConfigValue energy, perf.get("energy"));
    outcome.energy_pj = energy.getNumberOr("total_pj", 0.0);
    if (doc.has("lint")) {
        CIMMLC_ASSIGN_OR_RETURN(ConfigValue lint, doc.get("lint"));
        outcome.lint_errors = lint.getIntOr("errors", 0);
    }
    if (doc.has("verify")) {
        CIMMLC_ASSIGN_OR_RETURN(ConfigValue verify, doc.get("verify"));
        outcome.verify_match = verify.getBoolOr("match", false);
    }
    return outcome;
}

/** The output checks every request must pass. */
Status
checkOutcome(const Outcome &outcome)
{
    if (outcome.lint_errors > 0)
        return failedPrecondition(
            strformat("mopcheck reported %lld error findings",
                      static_cast<long long>(outcome.lint_errors)));
    if (!outcome.verify_match)
        return failedPrecondition(
            "funcsim replay does not match the reference executor");
    if (!(outcome.latency_cycles > 0.0) || !(outcome.energy_pj > 0.0))
        return failedPrecondition(
            "modeled latency or energy is not positive");
    return Status::ok();
}

/** Failed checks of one run, from any thread. */
class Failures
{
  public:
    void
    add(const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++count_;
        if (messages_.size() < 20)
            messages_.push_back(what);
    }

    std::int64_t
    count() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return count_;
    }

    std::vector<std::string>
    messages() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return messages_;
    }

  private:
    mutable std::mutex mutex_;
    std::int64_t count_ = 0;
    std::vector<std::string> messages_;
};

/**
 * Per-entry record of one phase, from any thread: every request's
 * latency, and the first outcome each later repeat must reproduce.
 */
class Tally
{
  public:
    Tally(const Workload &workload, Failures &failures)
        : workload_(workload), failures_(failures),
          samples_(workload.pool.size()), first_(workload.pool.size())
    {
    }

    /** Records one request of entry @p index; true when it passed. */
    bool
    record(std::size_t index, const StatusOr<Outcome> &outcome, double ms)
    {
        Status status = outcome.status();
        if (status.isOk())
            status = checkOutcome(outcome.value());
        std::lock_guard<std::mutex> lock(mutex_);
        samples_[index].push_back(ms);
        ++requests_;
        if (status.isOk()) {
            if (!first_[index].has_value())
                first_[index] = outcome.value();
            else if (!(*first_[index] == outcome.value()))
                status = internalError(
                    "repeat differs from the first result ("
                    + outcome.value().describe() + " vs "
                    + first_[index]->describe() + ")");
        }
        if (status.isOk()) {
            ++ok_;
            return true;
        }
        failures_.add(entryLabel(workload_.pool[index]) + ": "
                      + status.toString());
        return false;
    }

    std::int64_t requests() const { return requests_; }
    std::int64_t ok() const { return ok_; }
    const std::vector<std::vector<double>> &samples() const
    {
        return samples_;
    }
    const std::vector<std::optional<Outcome>> &first() const
    {
        return first_;
    }

    /** Every sample, in no particular order. */
    std::vector<double>
    allSamples() const
    {
        std::vector<double> all;
        for (const std::vector<double> &entry : samples_)
            all.insert(all.end(), entry.begin(), entry.end());
        return all;
    }

  private:
    const Workload &workload_;
    Failures &failures_;
    std::mutex mutex_;
    std::vector<std::vector<double>> samples_;
    std::vector<std::optional<Outcome>> first_;
    std::int64_t requests_ = 0;
    std::int64_t ok_ = 0;
};

// ----- spans -----------------------------------------------------------------

struct Span {
    const char *name = "";
    int tid = 0;
    std::int64_t request = 0;
    std::size_t entry = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
};

/** One client thread's in-memory span buffer. */
class SpanLog
{
  public:
    SpanLog(Clock::time_point origin, int tid) : origin_(origin), tid_(tid)
    {
    }

    /** Runs @p fn inside a span named @p name and returns its result. */
    template <typename Fn>
    auto
    time(const char *name, std::int64_t request, std::size_t entry, Fn &&fn)
    {
        const Clock::time_point start = Clock::now();
        auto result = fn();
        spans_.push_back({name, tid_, request, entry,
                          msBetween(origin_, start) * 1000.0,
                          msBetween(start, Clock::now()) * 1000.0});
        return result;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    int tid_;
    std::vector<Span> spans_;
};

/**
 * CompilerSession::run as direct layer calls, one span per call. Covers
 * what the workloads send (preset model and arch, a named opt level or
 * tuning, compressed codegen, optional lint / event perf / verify); the
 * traced run's equivalence check fails if this ever disagrees with the
 * session.
 */
StatusOr<Outcome>
tracedCompile(const CompileRequest &request, SpanLog &log,
              std::int64_t id, std::size_t entry)
{
    Outcome outcome;
    std::optional<Graph> graph;
    std::optional<CimArchitecture> arch;
    CIMMLC_RETURN_IF_ERROR(log.time("graph.load", id, entry, [&] {
        auto loaded_graph = models::byNameChecked(request.model);
        if (!loaded_graph.isOk())
            return loaded_graph.status();
        graph = std::move(loaded_graph).value();
        auto loaded_arch = presets::byName(
            request.arch.empty() ? "isaac-baseline" : request.arch);
        if (!loaded_arch.isOk())
            return loaded_arch.status();
        arch = std::move(loaded_arch).value();
        return Status::ok();
    }));

    CIMMLC_RETURN_IF_ERROR(log.time("sched.validate", id, entry, [&] {
        CIMMLC_RETURN_IF_ERROR(validateGraphForScheduling(*graph));
        return arch->validate();
    }));

    ScheduleOptions options;
    if (request.options.has_value()) {
        options = *request.options;
    } else {
        CIMMLC_ASSIGN_OR_RETURN(options, scheduleOptionsByName(request.opt));
    }
    if (request.tune) {
        AutoTuneConfig config;
        config.objective = request.objective;
        config.threads = request.threads;
        config.cache = request.tune_cache;
        config.budget = request.search_budget;
        config.host_model = request.host_model;
        CIMMLC_ASSIGN_OR_RETURN(
            TuneResult tuned, log.time("sched.autotune", id, entry, [&] {
                return AutoTuner(config).tune(*graph, *arch);
            }));
        options = tuned.best().options;
        outcome.tune_evaluated = tuned.evaluated_count;
    }

    CIMMLC_ASSIGN_OR_RETURN(
        Schedule schedule, log.time("sched.multi_level", id, entry, [&] {
            return scheduleGraph(*graph, *arch, options,
                                 request.host_model);
        }));
    outcome.segments = static_cast<std::int64_t>(schedule.segments.size());

    CIMMLC_ASSIGN_OR_RETURN(
        CodegenResult code, log.time("sched.codegen", id, entry, [&] {
            return generateProgram(*graph, *arch, schedule,
                                   request.codegen);
        }));
    outcome.logical_ops = code.program.counts().total();
    outcome.ir_nodes = countNodes(code.program);

    if (request.lint) {
        // CompilerSession::stageLint's options, copied.
        AnalyzeOptions lint_options;
        lint_options.executable = code.executable;
        lint_options.validate.enforce_l0_capacity = false;
        lint_options.validate.enforce_write_policy = false;
        for (TensorId input : graph->inputs()) {
            auto it = code.tensor_offsets.find(input);
            if (it == code.tensor_offsets.end())
                continue;
            LiveInRegion region;
            region.space = MemSpace::kL0;
            region.begin = it->second;
            region.end = it->second + graph->tensor(input).numel();
            lint_options.live_in.push_back(region);
        }
        const AnalyzeResult lint = log.time("mop.analyzer", id, entry, [&] {
            return analyzeProgram(code.program, *arch, lint_options);
        });
        outcome.lint_errors = lint.errors();
        outcome.lint_warnings = lint.warnings();
        outcome.lint_statements = lint.statements;
    }

    PerfInput input;
    input.graph = &*graph;
    input.arch = &*arch;
    input.schedule = &schedule;
    input.program = &code.program;
    const char *perf_span = request.perf_engine == PerfEngineKind::kEvent
                                ? "perfsim.event"
                                : "perfsim.closed_form";
    CIMMLC_ASSIGN_OR_RETURN(
        PerfReport perf, log.time(perf_span, id, entry, [&] {
            return makePerfEngine(request.perf_engine)->evaluate(input);
        }));
    outcome.latency_cycles = perf.latency_cycles;
    outcome.energy_pj = perf.energy.total();
    outcome.stall_cycles = perf.stall_cycles;

    if (request.outputs.verify) {
        CIMMLC_ASSIGN_OR_RETURN(
            VerifyReport verify, log.time("funcsim.verify", id, entry, [&] {
                return verifyWithRandomStimulus(*graph, *arch, options,
                                                request.verify_seed);
            }));
        outcome.verify_match = verify.match;
        outcome.verify_elements = verify.elements_checked;
    }
    return outcome;
}

// ----- statistics ------------------------------------------------------------

/** Linear-interpolation quantile (numpy's default) of @p values. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo]
           + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Metric name -> (value, unit). */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        values_[name] = {std::isfinite(value) ? value : 0.0, unit};
    }

    ConfigValue
    toConfig() const
    {
        ConfigValue::Object doc;
        for (const auto &[name, metric] : values_) {
            ConfigValue::Object row;
            row["value"] = ConfigValue::makeNumber(metric.first);
            row["unit"] = ConfigValue::makeString(metric.second);
            doc[name] = ConfigValue::makeObject(std::move(row));
        }
        return ConfigValue::makeObject(std::move(doc));
    }

  private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

void
setModeled(Metrics &metrics,
           const std::vector<std::optional<Outcome>> &outcomes)
{
    std::vector<double> latency;
    std::vector<double> energy;
    for (const std::optional<Outcome> &outcome : outcomes) {
        if (outcome.has_value() && checkOutcome(*outcome).isOk()) {
            latency.push_back(outcome->latency_cycles);
            energy.push_back(outcome->energy_pj);
        }
    }
    metrics.set("modeled_latency_cycles.geomean", geomean(latency),
                "cycles");
    metrics.set("modeled_energy_pj.geomean", geomean(energy), "pJ");
}

// ----- the run ---------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

/** Everything built before the first timed request. */
struct Setup {
    //! the pool mapped to session requests, index-aligned with the pool
    std::vector<CompileRequest> requests;
    std::unique_ptr<DaemonServer> server;
    std::vector<DaemonClient> clients;
};

StatusOr<Setup>
buildSetup(const Workload &workload)
{
    Setup setup;
    // Every model and preset is built and validated once, so a bad pool
    // entry fails here rather than as a timed request.
    std::set<std::string> models;
    std::set<std::string> archs;
    for (const RpcCompileRequest &entry : workload.pool) {
        models.insert(entry.model);
        archs.insert(entry.arch);
        CIMMLC_ASSIGN_OR_RETURN(CompileRequest request,
                                entry.toCompileRequest(nullptr));
        // In-process compiles tune with the bench's thread budget; the
        // daemon maps its own requests (serial tune).
        if (!workload.service)
            request.threads = workerThreads();
        setup.requests.push_back(std::move(request));
    }
    for (const std::string &model : models) {
        CIMMLC_ASSIGN_OR_RETURN(Graph graph, models::byNameChecked(model));
        CIMMLC_RETURN_IF_ERROR(validateGraphForScheduling(graph));
    }
    for (const std::string &name : archs) {
        CIMMLC_ASSIGN_OR_RETURN(CimArchitecture arch, presets::byName(name));
        CIMMLC_RETURN_IF_ERROR(arch.validate());
    }
    if (!workload.service)
        return setup;

    // The Unix transport, cimmlcd's default. Over localhost TCP every
    // reply waits ~40 ms on Nagle's algorithm (the daemon streams several
    // small frames per reply without TCP_NODELAY), which would hide
    // every other layer. The relative path keeps the socket inside the
    // working directory; the listener unlinks it on stop.
    DaemonConfig config;
    config.unix_path = strformat("cimmlc_bench.%d.sock", ::getpid());
    config.threads = workerThreads();
    config.max_inflight = workerThreads();
    config.max_queue_depth = workerThreads();
    config.cache_capacity = kServiceCacheCapacity;
    setup.server = std::make_unique<DaemonServer>(config);
    CIMMLC_RETURN_IF_ERROR(setup.server->start());
    for (int c = 0; c < workerThreads(); ++c) {
        CIMMLC_ASSIGN_OR_RETURN(DaemonClient client,
                                DaemonClient::connectUnixSocket(
                                    config.unix_path));
        setup.clients.push_back(std::move(client));
    }
    return setup;
}

/**
 * Builds the setup again and again for kSetupSeconds, appending each
 * build's seconds to @p seconds, and returns the last build (nullopt
 * after an error). One build takes well under a millisecond, and on a
 * shared host its time swings up to 2x from one ten-millisecond stretch
 * to the next, so setup_s is the median over a longer window.
 */
std::optional<Setup>
measureSetup(const Workload &workload, std::vector<double> &seconds)
{
    std::optional<Setup> setup;
    const Clock::time_point deadline = after(kSetupSeconds);
    do {
        setup.reset(); // stops the previous build's daemon
        const Clock::time_point start = Clock::now();
        auto built = buildSetup(workload);
        if (!built.isOk()) {
            std::fprintf(stderr, "cimmlc_bench: setup failed: %s\n",
                         built.status().toString().c_str());
            return std::nullopt;
        }
        setup.emplace(std::move(built).value());
        seconds.push_back(msBetween(start, Clock::now()) / 1000.0);
    } while (Clock::now() < deadline);
    return setup;
}

/** Runs body(c) on @p threads threads and joins them. */
void
onThreads(int threads, const std::function<void(int)> &body)
{
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back(body, t);
    for (std::thread &worker : workers)
        worker.join();
}

/** Every pool entry compiled once through CompilerSession: the
 * reference the traced pipeline and the daemon's replies must match. */
struct Reference {
    std::vector<std::optional<Outcome>> outcomes;
    std::vector<std::string> reports; //!< pretty report, timing masked
};

/** Masks the report fields a daemon reply may legitimately differ in. */
std::string
maskTiming(const std::string &report)
{
    static const std::regex wall("\"wall_ms\": [0-9.eE+-]+");
    static const std::regex cached("\"cached\": (true|false)");
    return std::regex_replace(
        std::regex_replace(report, wall, "\"wall_ms\": X"), cached,
        "\"cached\": X");
}

Reference
runReference(const Workload &workload, const Setup &setup, int threads,
             Failures &failures)
{
    const std::size_t size = workload.pool.size();
    Reference reference;
    reference.outcomes.resize(size);
    reference.reports.resize(size);
    std::atomic<std::size_t> next{0};
    onThreads(threads, [&](int) {
        for (std::size_t i = next++; i < size; i = next++) {
            CompilerSession session(setup.requests[i]);
            auto result = session.run();
            Status status = result.status();
            if (result.isOk()) {
                reference.outcomes[i] = outcomeOf(result.value());
                status = checkOutcome(*reference.outcomes[i]);
                reference.reports[i] = maskTiming(
                    result.value().toConfig().dump(/*pretty=*/true));
            }
            if (!status.isOk())
                failures.add(entryLabel(workload.pool[i])
                             + " (session): " + status.toString());
        }
    });
    return reference;
}

struct Timed {
    std::int64_t attempted = 0;
    std::int64_t ok = 0;
    double wall_s = 0.0;
};

/** Sends whole passes over the pool, at least one, for about @p seconds;
 * @p send(i, id) compiles entry i as request id and returns whether it
 * passed. */
Timed
runPasses(std::size_t pool_size, std::uint64_t seed, double seconds,
          const std::function<bool(std::size_t, std::int64_t)> &send)
{
    Timed timed;
    Rng rng(seed);
    const Clock::time_point start = Clock::now();
    double last_pass_s = 0.0;
    // Stop before a pass that would overrun, so every entry is sent
    // equally often and the mix does not depend on where time ran out.
    while (timed.attempted == 0 || timed.wall_s + last_pass_s <= seconds) {
        const Clock::time_point pass_start = Clock::now();
        for (std::size_t index : nextPass(rng, pool_size)) {
            if (send(index, timed.attempted))
                ++timed.ok;
            ++timed.attempted;
        }
        last_pass_s = msBetween(pass_start, Clock::now()) / 1000.0;
        timed.wall_s = msBetween(start, Clock::now()) / 1000.0;
    }
    return timed;
}

/** Round-trip samples of the daemon phase of service-mixed. */
struct DaemonPhase {
    Timed timed;
    std::vector<double> overhead_ms; //!< round trip minus stage wall time
    double rtt_sum_ms = 0.0;
    double overhead_sum_ms = 0.0;
    std::map<std::size_t, std::string> first_reports;
};

/**
 * Every client sends kServiceWarmupPerClient untimed requests, then sends
 * until @p seconds have passed. Timed round trips land in @p tally (and
 * in a "daemon.rpc" span when @p logs is set).
 */
DaemonPhase
runDaemonPhase(const Workload &workload, Setup &setup, std::uint64_t seed,
               double seconds, Tally &tally, Failures &failures,
               std::vector<SpanLog> *logs)
{
    const int clients = static_cast<int>(setup.clients.size());
    DaemonPhase phase;
    std::mutex mutex; // guards phase
    std::atomic<std::int64_t> next_id{0};
    Tally warmup(workload, failures);

    const auto send = [&](int c, ZipfStream &stream, bool timed) {
        const std::size_t index = stream.next();
        const std::int64_t id = next_id++;
        double stage_ms = 0.0;
        const auto on_event = [&stage_ms](const std::string &,
                                          const std::string &, double wall,
                                          const std::string &) {
            stage_ms += wall;
        };
        DaemonClient &client = setup.clients[static_cast<std::size_t>(c)];
        const auto rpc = [&] {
            return client.compile(workload.pool[index], on_event);
        };
        const Clock::time_point sent = Clock::now();
        auto response =
            logs != nullptr && timed
                ? (*logs)[static_cast<std::size_t>(c)].time("daemon.rpc", id,
                                                            index, rpc)
                : rpc();
        const double ms = msBetween(sent, Clock::now());
        const StatusOr<Outcome> outcome =
            response.isOk() ? outcomeOfReport(response.value().report_json)
                            : StatusOr<Outcome>(response.status());
        const bool passed = (timed ? tally : warmup).record(index, outcome, ms);
        std::lock_guard<std::mutex> lock(mutex);
        if (passed && !phase.first_reports.count(index))
            phase.first_reports[index] = response.value().report_json;
        if (!timed)
            return;
        const double overhead = std::max(0.0, ms - stage_ms);
        phase.overhead_ms.push_back(overhead);
        phase.rtt_sum_ms += ms;
        phase.overhead_sum_ms += overhead;
    };

    std::vector<ZipfStream> streams;
    for (int c = 0; c < clients; ++c)
        streams.emplace_back(workload.pool.size(), seed, c);
    onThreads(clients, [&](int c) {
        for (int i = 0; i < kServiceWarmupPerClient; ++i)
            send(c, streams[static_cast<std::size_t>(c)], false);
    });
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = after(seconds);
    onThreads(clients, [&](int c) {
        while (Clock::now() < deadline)
            send(c, streams[static_cast<std::size_t>(c)], true);
    });
    phase.timed.wall_s = msBetween(start, Clock::now()) / 1000.0;
    phase.timed.attempted = tally.requests() + warmup.requests();
    phase.timed.ok = tally.ok();
    return phase;
}

/** Checks the traced outcomes against the session reference and sets
 * the per-layer metrics. */
void
finishTraced(const Workload &workload, const Tally &traced,
             const Reference &reference, const std::vector<SpanLog> &logs,
             Metrics &metrics, Failures &failures)
{
    std::int64_t evaluated = 0;
    for (std::size_t i = 0; i < workload.pool.size(); ++i) {
        const std::optional<Outcome> &mine = traced.first()[i];
        const std::optional<Outcome> &theirs = reference.outcomes[i];
        if (!mine.has_value() || !theirs.has_value())
            continue;
        if (!(*mine == *theirs))
            failures.add(entryLabel(workload.pool[i])
                         + ": traced pipeline differs from the session ("
                         + mine->describe() + " vs " + theirs->describe()
                         + ")");
        evaluated += mine->tune_evaluated
                     * static_cast<std::int64_t>(traced.samples()[i].size());
    }

    std::map<std::string, double> layer_ms;
    for (const SpanLog &log : logs)
        for (const Span &span : log.spans())
            layer_ms[span.name] += span.dur_us / 1000.0;
    const double requests = static_cast<double>(traced.requests());
    const double request_ms = layer_ms["pipeline.request"];
    for (const std::string &layer : kLayers) {
        metrics.set(layer + ".ms",
                    requests > 0.0 ? layer_ms[layer] / requests : 0.0, "ms");
        metrics.set(layer + ".share",
                    request_ms > 0.0 ? 100.0 * layer_ms[layer] / request_ms
                                     : 0.0,
                    "%");
    }
    const double tune_s = layer_ms["sched.autotune"] / 1000.0;
    metrics.set("sched.autotune.candidates_per_s",
                tune_s > 0.0 ? static_cast<double>(evaluated) / tune_s : 0.0,
                "1/s");

    // Work counts are summed over the pool, one compile per entry, so
    // they are exact whatever the run length.
    Outcome total;
    for (const std::optional<Outcome> &outcome : reference.outcomes) {
        if (!outcome.has_value())
            continue;
        total.segments += outcome->segments;
        total.ir_nodes += outcome->ir_nodes;
        total.logical_ops += outcome->logical_ops;
        total.tune_evaluated += outcome->tune_evaluated;
        total.lint_statements += outcome->lint_statements;
        total.stall_cycles += outcome->stall_cycles;
        total.verify_elements += outcome->verify_elements;
    }
    const auto count = [&metrics](const char *name, double value) {
        metrics.set(name, value, "count");
    };
    count("sched.multi_level.segments", static_cast<double>(total.segments));
    count("sched.codegen.ir_nodes", static_cast<double>(total.ir_nodes));
    count("sched.codegen.logical_ops",
          static_cast<double>(total.logical_ops));
    count("sched.autotune.evaluated",
          static_cast<double>(total.tune_evaluated));
    count("mop.analyzer.statements",
          static_cast<double>(total.lint_statements));
    count("funcsim.verify.elements_checked",
          static_cast<double>(total.verify_elements));
    metrics.set("perfsim.event.stall_cycles", total.stall_cycles, "cycles");
}

/** Daemon metrics; all zero for the in-process workloads. */
void
setDaemonMetrics(Metrics &metrics, const ConfigValue &stats,
                 const DaemonPhase *phase)
{
    const ConfigValue cache =
        stats.isObject() ? stats.get("artifact_cache").valueOr({})
                         : ConfigValue();
    const ConfigValue memo = stats.isObject()
                                 ? stats.get("artifact_memo").valueOr({})
                                 : ConfigValue();
    const auto field = [](const ConfigValue &doc, const char *key) {
        return doc.isObject() ? doc.getNumberOr(key, 0.0) : 0.0;
    };
    metrics.set("cache.hit_ratio", field(cache, "hit_rate"), "ratio");
    metrics.set("cache.evictions", field(cache, "evictions"), "count");
    metrics.set("daemon.memo_hit_ratio", field(memo, "hit_rate"), "ratio");
    metrics.set("daemon.rejected", field(stats, "rejected"), "count");
    metrics.set("daemon.overhead_ms.p50",
                phase ? quantile(phase->overhead_ms, 0.5) : 0.0, "ms");
    metrics.set("daemon.overhead.share",
                phase && phase->rtt_sum_ms > 0.0
                    ? 100.0 * phase->overhead_sum_ms / phase->rtt_sum_ms
                    : 0.0,
                "%");
}

/** Per-entry rows: sends, median latency, modeled result. */
ConfigValue
entryRows(const Workload &workload, const Tally &tally,
          const std::vector<std::optional<Outcome>> &modeled)
{
    ConfigValue::Array rows;
    for (std::size_t i = 0; i < workload.pool.size(); ++i) {
        ConfigValue::Object row;
        row["entry"] = ConfigValue::makeString(entryLabel(workload.pool[i]));
        row["requests"] = ConfigValue::makeNumber(
            static_cast<double>(tally.samples()[i].size()));
        row["median_ms"] =
            ConfigValue::makeNumber(quantile(tally.samples()[i], 0.5));
        if (modeled[i].has_value()) {
            row["latency_cycles"] =
                ConfigValue::makeNumber(modeled[i]->latency_cycles);
            row["energy_pj"] = ConfigValue::makeNumber(modeled[i]->energy_pj);
        }
        rows.push_back(ConfigValue::makeObject(std::move(row)));
    }
    return ConfigValue::makeArray(std::move(rows));
}

struct RunResult {
    Metrics metrics;
    std::int64_t attempted = 0;
    ConfigValue entries;
};

/** The in-process workloads: whole passes from one client thread. */
RunResult
runInProcess(const Workload &workload, Setup &setup, const Options &options,
             Failures &failures, std::vector<SpanLog> &logs)
{
    RunResult run;
    Tally tally(workload, failures);
    SpanLog &log = logs[0];
    const Timed timed = runPasses(
        workload.pool.size(), options.seed, options.seconds,
        [&](std::size_t index, std::int64_t id) {
            const CompileRequest &request = setup.requests[index];
            const Clock::time_point start = Clock::now();
            StatusOr<Outcome> outcome = internalError("not run");
            if (options.trace) {
                outcome = log.time("pipeline.request", id, index, [&] {
                    return tracedCompile(request, log, id, index);
                });
            } else {
                CompilerSession session(request);
                auto result = session.run();
                outcome = result.isOk()
                              ? StatusOr<Outcome>(outcomeOf(result.value()))
                              : StatusOr<Outcome>(result.status());
            }
            return tally.record(index, outcome,
                                msBetween(start, Clock::now()));
        });
    run.attempted = timed.attempted;

    // Each distinct request counts once, through the median of its
    // repeats: passes send every entry equally often, and the median
    // keeps one noisy repeat from moving a percentile.
    std::vector<double> entry_ms;
    for (const std::vector<double> &samples : tally.samples())
        if (!samples.empty())
            entry_ms.push_back(quantile(samples, 0.5));
    run.metrics.set("request_ms.p50", quantile(entry_ms, 0.5), "ms");
    run.metrics.set("request_ms.p90", quantile(entry_ms, 0.9), "ms");
    run.metrics.set("throughput_rps", timed.ok / timed.wall_s, "1/s");
    setModeled(run.metrics, tally.first());
    run.entries = entryRows(workload, tally, tally.first());
    if (options.trace) {
        const Reference reference =
            runReference(workload, setup, 1, failures);
        finishTraced(workload, tally, reference, logs, run.metrics,
                     failures);
        setDaemonMetrics(run.metrics, ConfigValue(), nullptr);
    }
    return run;
}

/**
 * service-mixed. Untraced: daemon traffic for the whole run. Traced:
 * daemon traffic for half the run (the daemon metrics), then a
 * direct-call replay of the same client streams for the other half.
 */
RunResult
runService(const Workload &workload, Setup &setup, const Options &options,
           Failures &failures, std::vector<SpanLog> &logs)
{
    RunResult run;
    const int clients = static_cast<int>(setup.clients.size());
    const double daemon_seconds =
        options.trace ? options.seconds / 2.0 : options.seconds;
    Tally tally(workload, failures);
    const DaemonPhase phase =
        runDaemonPhase(workload, setup, options.seed, daemon_seconds, tally,
                       failures, options.trace ? &logs : nullptr);
    run.attempted = phase.timed.attempted;
    run.metrics.set("request_ms.p50", quantile(tally.allSamples(), 0.5),
                    "ms");
    run.metrics.set("request_ms.p90", quantile(tally.allSamples(), 0.9),
                    "ms");
    run.metrics.set("throughput_rps", phase.timed.ok / phase.timed.wall_s,
                    "1/s");
    auto stats = setup.clients[0].stats();
    if (!stats.isOk())
        failures.add("stats rpc: " + stats.status().toString());
    setDaemonMetrics(run.metrics, stats.valueOr(ConfigValue()), &phase);
    setup.clients.clear();
    setup.server->stop();

    Tally traced(workload, failures);
    if (options.trace) {
        const Clock::time_point deadline =
            after(options.seconds - daemon_seconds);
        std::atomic<std::int64_t> next_id{phase.timed.attempted};
        onThreads(clients, [&](int c) {
            ZipfStream stream(workload.pool.size(), options.seed, c);
            SpanLog &log = logs[static_cast<std::size_t>(c)];
            while (Clock::now() < deadline) {
                const std::size_t index = stream.next();
                const std::int64_t id = next_id++;
                const Clock::time_point start = Clock::now();
                auto outcome = log.time("pipeline.request", id, index, [&] {
                    return tracedCompile(setup.requests[index], log, id,
                                         index);
                });
                traced.record(index, outcome, msBetween(start, Clock::now()));
            }
        });
        run.attempted += traced.requests();
    }

    // The daemon's first reply for each entry must be byte-identical to
    // the in-process session report, wall_ms and cached masked.
    const Reference reference =
        runReference(workload, setup, clients, failures);
    for (const auto &[index, report] : phase.first_reports)
        if (maskTiming(report) != reference.reports[index])
            failures.add(entryLabel(workload.pool[index])
                         + ": daemon report differs from the in-process "
                           "session report");
    setModeled(run.metrics, reference.outcomes);
    run.entries = entryRows(workload, tally, reference.outcomes);
    if (options.trace)
        finishTraced(workload, traced, reference, logs, run.metrics,
                     failures);
    return run;
}

Status
writeChromeTrace(const std::string &path, const Workload &workload,
                 const std::vector<SpanLog> &logs)
{
    ConfigValue::Array events;
    for (const SpanLog &log : logs) {
        for (const Span &span : log.spans()) {
            ConfigValue::Object args;
            args["request"] =
                ConfigValue::makeNumber(static_cast<double>(span.request));
            args["workload"] = ConfigValue::makeString(workload.name);
            args["entry"] =
                ConfigValue::makeString(entryLabel(workload.pool[span.entry]));
            const std::string name = span.name;
            ConfigValue::Object event;
            event["name"] = ConfigValue::makeString(name);
            event["cat"] =
                ConfigValue::makeString(name.substr(0, name.find('.')));
            event["ph"] = ConfigValue::makeString("X");
            event["ts"] = ConfigValue::makeNumber(span.start_us);
            event["dur"] = ConfigValue::makeNumber(span.dur_us);
            event["pid"] = ConfigValue::makeNumber(1);
            event["tid"] = ConfigValue::makeNumber(span.tid);
            event["args"] = ConfigValue::makeObject(std::move(args));
            events.push_back(ConfigValue::makeObject(std::move(event)));
        }
    }
    for (std::size_t tid = 0; tid < logs.size(); ++tid) {
        if (logs[tid].spans().empty())
            continue;
        ConfigValue::Object args;
        args["name"] = ConfigValue::makeString(strformat("client %zu", tid));
        ConfigValue::Object meta;
        meta["name"] = ConfigValue::makeString("thread_name");
        meta["ph"] = ConfigValue::makeString("M");
        meta["pid"] = ConfigValue::makeNumber(1);
        meta["tid"] = ConfigValue::makeNumber(static_cast<double>(tid));
        meta["args"] = ConfigValue::makeObject(std::move(args));
        events.push_back(ConfigValue::makeObject(std::move(meta)));
    }
    ConfigValue::Object doc;
    doc["traceEvents"] = ConfigValue::makeArray(std::move(events));
    doc["displayTimeUnit"] = ConfigValue::makeString("ms");
    std::ofstream out(path);
    out << ConfigValue::makeObject(std::move(doc)).dump() << "\n";
    out.close();
    if (!out)
        return invalidArgument("cannot write trace file '" + path + "'");
    return Status::ok();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::optional<Options>
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        std::int64_t seed = 0;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            if (!parseInt64(value, &seed) || seed < 0)
                return std::nullopt;
            options.seed = static_cast<std::uint64_t>(seed);
        } else if (flag == "--seconds") {
            if (!parseDouble(value, &options.seconds)
                || !(options.seconds > 0.0))
                return std::nullopt;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return std::nullopt;
            options.trace = value == "1";
        } else if (flag == "--trace-out") {
            options.trace_out = value;
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0)
        return std::nullopt; // a flag without its value
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point process_start = Clock::now();
    const std::optional<Options> options = parseArgs(argc, argv);
    const std::optional<Workload> workload =
        options ? makeWorkload(options->workload) : std::nullopt;
    if (!workload.has_value()) {
        std::fprintf(stderr,
                     "usage: %s --workload large-default|large-checked|"
                     "tuned-sweep|service-mixed\n"
                     "          [--seed N] [--seconds S] [--trace 0|1] "
                     "[--trace-out FILE]\n",
                     argv[0]);
        return 2;
    }

    std::vector<double> setup_s;
    std::optional<Setup> setup = measureSetup(*workload, setup_s);
    if (!setup.has_value())
        return 1;

    Failures failures;
    std::vector<SpanLog> logs;
    for (int c = 0; c < workerThreads(); ++c)
        logs.emplace_back(process_start, c);
    RunResult run =
        workload->service
            ? runService(*workload, *setup, *options, failures, logs)
            : runInProcess(*workload, *setup, *options, failures, logs);
    setup.reset();
    // A second setup window, a run's length after the first, so setup_s
    // does not rest on one half-second stretch of a shared machine.
    if (!measureSetup(*workload, setup_s).has_value())
        return 1;

    run.metrics.set("setup_s", quantile(setup_s, 0.5), "s");
    run.metrics.set("peak_rss_mb", peakRssMb(), "MiB");
    run.metrics.set("failed_ratio",
                    static_cast<double>(failures.count())
                        / static_cast<double>(std::max<std::int64_t>(
                            run.attempted, 1)),
                    "ratio");
    if (options->trace && !options->trace_out.empty()) {
        const Status written =
            writeChromeTrace(options->trace_out, *workload, logs);
        if (!written.isOk())
            failures.add(written.toString());
    }

    ConfigValue::Array errors;
    for (const std::string &message : failures.messages()) {
        std::fprintf(stderr, "cimmlc_bench: FAILED %s\n", message.c_str());
        errors.push_back(ConfigValue::makeString(message));
    }
    const std::int64_t failed =
        std::min(failures.count(), std::max<std::int64_t>(run.attempted, 1));
    ConfigValue::Object doc;
    doc["workload"] = ConfigValue::makeString(workload->name);
    doc["seed"] = ConfigValue::makeNumber(static_cast<double>(options->seed));
    doc["trace"] = ConfigValue::makeBool(options->trace);
    doc["threads"] = ConfigValue::makeNumber(workerThreads());
    doc["correct"] = ConfigValue::makeBool(failed == 0);
    doc["attempted"] =
        ConfigValue::makeNumber(static_cast<double>(run.attempted));
    doc["failed"] = ConfigValue::makeNumber(static_cast<double>(failed));
    doc["errors"] = ConfigValue::makeArray(std::move(errors));
    doc["metrics"] = run.metrics.toConfig();
    doc["entries"] = std::move(run.entries);
    std::printf("%s\n", ConfigValue::makeObject(std::move(doc)).dump().c_str());
    return failed == 0 ? 0 : 1;
}
