/**
 * @file
 * `cimmlc` — the command-line driver over the compilation stack.
 *
 * A thin client of the staged session API (compiler/session.h): flags
 * are folded into one CompileRequest, CompilerSession runs the
 * load -> validate -> tune? -> schedule -> codegen -> perf -> verify?
 * pipeline, and the driver renders the resulting CompileArtifacts —
 * as the classic text report or, with `--report json`, as the kvjson
 * document a compile service would return.
 *
 * Usage:
 *   cimmlc --model resnet18 --arch isaac-baseline [options]
 *   cimmlc --model-file net.json --arch-file chip.json [options]
 *   cimmlc --batch sweep.json [--threads N] [--serial]
 *   cimmlc --arch-dse spec.json [--objective NAME] [--report json]
 *
 * Options:
 *   --model NAME        built-in model (see --list-models)
 *   --model-file PATH   kvjson graph description
 *   --arch NAME         architecture preset (see --list-archs)
 *   --arch-file PATH    kvjson Abs-arch description
 *   --opt LEVEL         none | cg | cg+mvm | full      (default full)
 *   --autotune          search the schedule-option space and compile
 *                       with the best configuration found
 *   --objective NAME    tuning/ranking objective: latency | energy | edp
 *   --autotune-verbose  print the per-candidate DSE report table
 *   --print-flow [N]    print the meta-operator flow (first N stmts)
 *   --print-schedule    print the per-operator mapping report
 *   --verify            unroll, execute, and check against the oracle
 *   --lint              run mopcheck (dataflow static analysis) over
 *                       the emitted flow and print the findings
 *   --lint-strict       like --lint, but any error-severity finding
 *                       fails the compile (nonzero exit)
 *   --perf-engine NAME  performance engine: closed_form (default,
 *                       analytic) | event (discrete-event simulation
 *                       with resource contention); applies to single
 *                       compiles, --batch sweeps, and --arch-dse full
 *                       evaluations
 *   --report FORMAT     text (default) | json — json serializes the
 *                       full CompileArtifacts / DSE record as kvjson
 *   --batch PATH        compile a models x archs sweep concurrently
 *   --arch-dse PATH     sweep Abs-arch parameters for one workload and
 *                       report the latency/energy Pareto front
 *   --tune-cache PATH   persist evaluated candidates across invocations
 *                       (kvjson memo; --autotune and --arch-dse)
 *   --shard I/N         (--batch / --arch-dse) evaluate only the work
 *                       units whose enumeration index satisfies
 *                       index %% N == I and write the slice's results
 *                       to --shard-out; N such processes cover the
 *                       sweep exactly once
 *   --shard-out PATH    destination shard file (required with --shard)
 *   --merge-shards LIST comma-separated shard files from the same spec;
 *                       merges them and prints the aggregate report,
 *                       byte-identical to the single-process run
 *   --search-budget N   cap full-fidelity evaluations: the tuner prunes
 *                       dominated knob supersets, the DSE explorer runs
 *                       successive halving over cheap proxies
 *                       (--autotune, --arch-dse, and tuned --batch)
 *   --threads N         worker threads for --batch / --autotune /
 *                       --arch-dse (0 = hardware concurrency)
 *   --serial            force the serial path (reference/debug)
 *   --check-kvjson PATH parse a kvjson file and exit 0/1 (CI helper)
 *   --connect SOCK      submit the compile to a running cimmlcd over
 *                       its Unix-domain socket instead of compiling
 *                       in-process; streams per-stage events to stderr
 *                       and prints the daemon's report (byte-identical
 *                       to the in-process --report json document,
 *                       timing fields aside)
 *   --connect-tcp H:P   like --connect over localhost TCP
 *   --daemon-stats      (client mode) print the daemon's cimmlc.stats.v1
 *                       snapshot: queue depth, cache hit rates, and
 *                       per-stage latency histograms
 *   --daemon-shutdown   (client mode) ask the daemon to drain and exit
 *   --version           print the compiler version and exit
 *   --list-models / --list-archs
 *   --help / -h
 */
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "arch/presets.h"
#include "common/config.h"
#include "common/strutil.h"
#include "common/version.h"
#include "compiler/batch.h"
#include "compiler/session.h"
#include "compiler/shard.h"
#include "daemon/client.h"
#include "dse/arch_explorer.h"
#include "graph/models.h"
#include "sched/autotune.h"

using namespace cimmlc;

namespace {

struct CliArgs {
    std::string model;
    std::string model_file;
    std::string arch = "isaac-baseline";
    bool arch_explicit = false;
    std::string arch_file;
    std::string opt = "full";
    bool opt_explicit = false;
    bool dual_mode = false;    //!< force per-segment dual-mode arrays on
    bool host_offload = false; //!< force host/CIM hybrid offload on
    std::string batch_file;
    std::string arch_dse_file;
    std::string tune_cache_file;
    std::string shard;        //!< "i/N" — run one slice of the sweep
    std::string shard_out;    //!< where the slice's shard file goes
    std::string merge_shards; //!< comma-separated shard file paths
    std::int64_t search_budget = -1; //!< -1 = not set (exhaustive)
    std::string check_kvjson;
    std::string report = "text";
    int threads = -1; //!< -1 = use the sweep file's setting
    bool serial = false;
    bool autotune = false;
    bool autotune_explicit = false; //!< --autotune[-verbose] was spelled out
    bool autotune_verbose = false;
    std::string objective = "latency";
    bool objective_explicit = false;
    bool print_flow = false;
    std::int64_t flow_limit = 40;
    bool print_schedule = false;
    bool verify = false;
    bool lint = false;
    bool lint_strict = false;
    std::string perf_engine = "closed_form";
    bool perf_engine_explicit = false;
    std::string connect;     //!< daemon unix socket ("" = in-process)
    std::string connect_tcp; //!< daemon HOST:PORT ("" = unix/in-process)
    bool daemon_stats = false;
    bool daemon_shutdown = false;
};

void
printUsage(std::FILE *out, const char *argv0)
{
    std::fprintf(
        out,
        "usage: %s --model NAME | --model-file PATH\n"
        "          [--arch NAME | --arch-file PATH] [--opt LEVEL]\n"
        "          [--dual-mode] [--host-offload]\n"
        "          [--autotune [--objective latency|energy|edp] "
        "[--autotune-verbose]]\n"
        "          [--search-budget N] [--threads N] [--serial]\n"
        "          [--print-flow [N]] [--print-schedule] [--verify]\n"
        "          [--lint | --lint-strict] "
        "[--perf-engine closed_form|event]\n"
        "          [--report text|json]\n"
        "       %s --batch SWEEP.json [--opt LEVEL] [--dual-mode] "
        "[--host-offload]\n"
        "          [--autotune] [--objective NAME]\n"
        "          [--search-budget N] [--threads N] [--serial] "
        "[--lint | --lint-strict]\n"
        "          [--perf-engine closed_form|event]\n"
        "          [--shard I/N --shard-out PATH | "
        "--merge-shards P1,P2,...]\n"
        "       %s --arch-dse SPEC.json [--objective NAME] "
        "[--tune-cache PATH] [--lint]\n"
        "          [--search-budget N] [--threads N] [--serial] "
        "[--report text|json]\n"
        "          [--perf-engine closed_form|event]\n"
        "          [--shard I/N --shard-out PATH | "
        "--merge-shards P1,P2,...]\n"
        "       %s --connect SOCK | --connect-tcp HOST:PORT\n"
        "          [--model NAME | --model-file PATH] [compile flags]\n"
        "          [--daemon-stats] [--daemon-shutdown]\n"
        "          [--check-kvjson PATH]\n"
        "          [--list-models] [--list-archs] [--version] [--help]\n",
        argv0, argv0, argv0, argv0);
}

int
usage(const char *argv0)
{
    printUsage(stderr, argv0);
    return 2;
}

/** Parses a flag value as an integer in [0, @p max] or exits with 2. */
bool
parseNonNegativeInt(const char *flag, const char *value,
                    std::int64_t *out, std::int64_t max = INT64_MAX)
{
    char *end = nullptr;
    const long long parsed = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || parsed < 0 || parsed > max) {
        std::fprintf(stderr,
                     "%s expects a non-negative integer, got '%s'\n",
                     flag, value);
        return false;
    }
    *out = parsed;
    return true;
}

/** Parses --perf-engine into the enum, reporting errors to stderr. */
bool
parsePerfEngineFlag(const CliArgs &args, PerfEngineKind *kind)
{
    auto parsed = parsePerfEngineKind(args.perf_engine);
    if (!parsed.isOk()) {
        std::fprintf(stderr, "%s\n",
                     parsed.status().toString().c_str());
        return false;
    }
    *kind = parsed.value();
    return true;
}

int
runBatch(const CliArgs &args)
{
    auto loaded = sweepFromFile(args.batch_file);
    if (!loaded.isOk()) {
        std::fprintf(stderr, "sweep load failed: %s\n",
                     loaded.status().toString().c_str());
        return 1;
    }
    // The flags override the file in place, giving the sweep every
    // process (shard, merge, or single) agrees on: shard files carry
    // its digest, so slices of differently-flagged invocations can
    // never be combined.
    BatchSweep resolved = std::move(loaded).value();
    if (args.opt_explicit) {
        auto overridden = scheduleOptionsByName(args.opt);
        if (!overridden.isOk()) {
            std::fprintf(stderr, "%s\n",
                         overridden.status().toString().c_str());
            return 1;
        }
        resolved.options = overridden.value();
    }
    if (args.dual_mode)
        resolved.options.dual_mode = true;
    if (args.host_offload)
        resolved.options.host_offload = true;
    if (args.threads >= 0)
        resolved.threads = args.threads;
    if (args.serial)
        resolved.threads = 1;

    resolved.tune = resolved.tune || args.autotune;
    if (resolved.tune && args.opt_explicit) {
        std::fprintf(stderr,
                     "note: --opt is ignored when tuning — the tuner "
                     "searches the whole option space\n");
    }
    if (args.objective_explicit) {
        auto parsed = parseTuneObjective(args.objective);
        if (!parsed.isOk()) {
            std::fprintf(stderr, "%s\n",
                         parsed.status().toString().c_str());
            return 1;
        }
        resolved.objective = parsed.value();
    }

    if (args.search_budget >= 0)
        resolved.budget.max_full_evals = args.search_budget;
    if (resolved.budget.enabled() && !resolved.tune) {
        std::fprintf(stderr,
                     "--search-budget/'budget' only applies to tuned "
                     "sweeps; set \"tune\": true or pass --autotune\n");
        return 1;
    }

    if (args.perf_engine_explicit
        && !parsePerfEngineFlag(args, &resolved.perf_engine))
        return 1;
    resolved.lint = resolved.lint || args.lint;
    resolved.lint_strict = resolved.lint_strict || args.lint_strict;

    const auto render = [&](const BatchResult &result) {
        if (resolved.tune) {
            std::printf("batch: %zu jobs, %lld ok, tuned per job "
                        "(objective=%s), threads=%d\n",
                        result.entries.size(),
                        static_cast<long long>(result.okCount()),
                        tuneObjectiveName(resolved.objective),
                        resolved.threads);
        } else {
            std::printf("batch: %zu jobs, %lld ok, opt=%s, threads=%d\n",
                        result.entries.size(),
                        static_cast<long long>(result.okCount()),
                        resolved.options.toString().c_str(),
                        resolved.threads);
        }
        std::fputs(result.table().c_str(), stdout);
        return result.okCount()
                       == static_cast<std::int64_t>(result.entries.size())
                   ? 0
                   : 1;
    };

    if (!args.merge_shards.empty()) {
        auto merged =
            mergeBatchShards(resolved, split(args.merge_shards, ','));
        if (!merged.isOk()) {
            std::fprintf(stderr, "shard merge failed: %s\n",
                         merged.status().toString().c_str());
            return 1;
        }
        return render(merged.value());
    }

    ShardSpec shard;
    std::vector<std::size_t> owned;
    std::vector<BatchJob> slice = resolved.jobs;
    if (!args.shard.empty()) {
        auto parsed = parseShardSpec(args.shard);
        if (!parsed.isOk()) {
            std::fprintf(stderr, "%s\n",
                         parsed.status().toString().c_str());
            return 1;
        }
        shard = parsed.value();
        slice.clear();
        for (std::size_t i = 0; i < resolved.jobs.size(); ++i) {
            if (shard.owns(i)) {
                owned.push_back(i);
                slice.push_back(resolved.jobs[i]);
            }
        }
    }

    auto result = runSweep(resolved, slice);
    if (!result.isOk()) {
        std::fprintf(stderr, "batch failed: %s\n",
                     result.status().toString().c_str());
        return 1;
    }

    if (shard.enabled() || !args.shard_out.empty()) {
        const Status saved = saveConfigFile(
            args.shard_out,
            batchShardToConfig(resolved, shard, owned,
                               result.value().entries));
        if (!saved.isOk()) {
            std::fprintf(stderr, "cannot write shard file: %s\n",
                         saved.toString().c_str());
            return 1;
        }
        std::printf("batch shard %d/%d: %zu of %zu jobs, %lld ok -> %s\n",
                    shard.index, shard.count, slice.size(),
                    resolved.jobs.size(),
                    static_cast<long long>(result.value().okCount()),
                    args.shard_out.c_str());
        return result.value().okCount()
                       == static_cast<std::int64_t>(slice.size())
                   ? 0
                   : 1;
    }
    return render(result.value());
}

/** CI helper: parse a kvjson document (e.g. a --report json output)
 * back through the reader and report success. */
int
runCheckKvjson(const std::string &path)
{
    auto doc = loadConfigFile(path);
    if (!doc.isOk()) {
        std::fprintf(stderr, "kvjson check failed: %s\n",
                     doc.status().toString().c_str());
        return 1;
    }
    std::printf("kvjson OK: %s (%zu top-level keys)\n", path.c_str(),
                doc.value().isObject() ? doc.value().asObject().size()
                                       : 0);
    return 0;
}

/**
 * Warms @p cache from --tune-cache. A missing/corrupt/stale file is a
 * diagnostic, not an error: the run proceeds with a cold cache.
 */
void
loadTuneCache(const std::string &path, TuneCache &cache)
{
    const Status loaded = cache.loadFromFile(path);
    if (!loaded.isOk()) {
        std::fprintf(stderr,
                     "note: %s — starting with a cold tune cache\n",
                     loaded.toString().c_str());
    }
}

void
saveTuneCache(const std::string &path, const TuneCache &cache)
{
    const Status saved = cache.saveToFile(path);
    if (!saved.isOk()) {
        std::fprintf(stderr, "warning: could not save tune cache: %s\n",
                     saved.toString().c_str());
    }
}

int
runDse(const CliArgs &args)
{
    auto spec = dseSpecFromFile(args.arch_dse_file);
    if (!spec.isOk()) {
        std::fprintf(stderr, "DSE spec load failed: %s\n",
                     spec.status().toString().c_str());
        return 1;
    }
    if (args.objective_explicit) {
        auto objective = parseTuneObjective(args.objective);
        if (!objective.isOk()) {
            std::fprintf(stderr, "%s\n",
                         objective.status().toString().c_str());
            return 1;
        }
        spec.value().objective = objective.value();
    }
    if (args.threads >= 0)
        spec.value().threads = args.threads;
    if (args.serial)
        spec.value().threads = 1;
    // DSE lint is always strict per candidate: a flow with error
    // findings marks that design infeasible.
    if (args.lint)
        spec.value().lint = true;
    // The flag overrides the spec's evaluation cap but keeps its proxy
    // fidelity settings, so a spec can pin e.g. opt=none proxies while
    // CI varies the budget.
    if (args.search_budget >= 0)
        spec.value().budget.max_full_evals = args.search_budget;
    if (args.perf_engine_explicit
        && !parsePerfEngineFlag(args, &spec.value().perf_engine))
        return 1;

    const auto render = [&](const DseResult &result) {
        if (args.report == "json") {
            std::printf("%s\n", result.toConfig().dump(true).c_str());
        } else {
            std::printf("%s\n", result.summary().c_str());
            std::fputs(result.table().c_str(), stdout);
        }
        return 0;
    };

    if (!args.merge_shards.empty()) {
        auto merged = mergeDseShards(spec.value(),
                                     split(args.merge_shards, ','));
        if (!merged.isOk()) {
            std::fprintf(stderr, "shard merge failed: %s\n",
                         merged.status().toString().c_str());
            return 1;
        }
        return render(merged.value());
    }

    // One memo for the whole sweep; --tune-cache persists it so a
    // repeated invocation reuses every evaluation.
    TuneCache cache;
    if (!args.tune_cache_file.empty())
        loadTuneCache(args.tune_cache_file, cache);

    if (!args.shard.empty()) {
        auto parsed = parseShardSpec(args.shard);
        if (!parsed.isOk()) {
            std::fprintf(stderr, "%s\n",
                         parsed.status().toString().c_str());
            return 1;
        }
        const Status shardable =
            validateDseSpecForSharding(spec.value());
        if (!shardable.isOk()) {
            std::fprintf(stderr, "%s\n", shardable.toString().c_str());
            return 1;
        }
        ArchExplorer explorer(std::move(spec).value());
        const Status restricted = explorer.restrictToShard(
            parsed.value().index, parsed.value().count);
        if (!restricted.isOk()) {
            std::fprintf(stderr, "%s\n",
                         restricted.toString().c_str());
            return 1;
        }
        auto result = explorer.explore(&cache);
        if (!result.isOk()) {
            std::fprintf(stderr, "%s\n",
                         result.status().toString().c_str());
            return 1;
        }
        if (!args.tune_cache_file.empty())
            saveTuneCache(args.tune_cache_file, cache);
        const Status saved = saveConfigFile(
            args.shard_out,
            dseShardToConfig(explorer.spec(), parsed.value(),
                             result.value()));
        if (!saved.isOk()) {
            std::fprintf(stderr, "cannot write shard file: %s\n",
                         saved.toString().c_str());
            return 1;
        }
        std::size_t owned = 0;
        for (const DseCandidate &candidate : result.value().candidates)
            if (parsed.value().owns(candidate.index))
                ++owned;
        std::printf("arch-dse shard %d/%d: %zu of %zu candidates -> %s\n",
                    parsed.value().index, parsed.value().count, owned,
                    result.value().candidates.size(),
                    args.shard_out.c_str());
        return 0;
    }

    const ArchExplorer explorer(std::move(spec).value());
    auto result = explorer.explore(&cache);
    if (!result.isOk()) {
        std::fprintf(stderr, "%s\n", result.status().toString().c_str());
        return 1;
    }
    if (!args.tune_cache_file.empty())
        saveTuneCache(args.tune_cache_file, cache);

    return render(result.value());
}

int
runSingle(const CliArgs &args)
{
    const bool json = args.report == "json";

    CompileRequest request;
    request.model = args.model;
    request.model_file = args.model_file;
    // Set every arch source the user actually gave, so an explicit
    // --arch combined with --arch-file hits the request's
    // conflicting-sources check instead of one silently winning.
    request.arch_file = args.arch_file;
    if (args.arch_explicit || args.arch_file.empty())
        request.arch = args.arch;
    request.opt = args.opt;
    if (!parsePerfEngineFlag(args, &request.perf_engine))
        return 1;
    if ((args.dual_mode || args.host_offload) && !args.autotune) {
        // Overlay the flags on the named level; request.options wins
        // over the string opt inside the session.
        auto base = scheduleOptionsByName(args.opt);
        if (!base.isOk()) {
            std::fprintf(stderr, "%s\n",
                         base.status().toString().c_str());
            return 1;
        }
        ScheduleOptions overlay = base.value();
        overlay.dual_mode = args.dual_mode;
        overlay.host_offload = args.host_offload;
        request.options = overlay;
    }

    TuneCache tune_cache;
    if (args.autotune) {
        if (args.opt_explicit) {
            std::fprintf(stderr,
                         "note: --opt is ignored with --autotune — the "
                         "tuner searches the whole option space\n");
        }
        if (args.dual_mode || args.host_offload) {
            std::fprintf(stderr,
                         "note: --dual-mode/--host-offload are ignored "
                         "with --autotune — the tuner searches both "
                         "knobs automatically\n");
        }
        auto objective = parseTuneObjective(args.objective);
        if (!objective.isOk()) {
            std::fprintf(stderr, "%s\n",
                         objective.status().toString().c_str());
            return 1;
        }
        request.tune = true;
        request.objective = objective.value();
        request.threads = args.serial ? 1 : std::max(args.threads, 0);
        request.tune_cache = &tune_cache;
        if (args.search_budget >= 0)
            request.search_budget.max_full_evals = args.search_budget;
        if (!args.tune_cache_file.empty())
            loadTuneCache(args.tune_cache_file, tune_cache);
    }

    request.outputs.schedule_report = args.print_schedule;
    request.outputs.flow_text = args.print_flow;
    request.outputs.flow_limit = args.flow_limit;
    request.outputs.verify = args.verify;
    request.lint = args.lint;
    request.lint_strict = args.lint_strict;

    CompilerSession session(std::move(request));
    if (!json) {
        // Stream the header and tuning report as the stages complete,
        // so slow runs show progress instead of buffering everything.
        session.setObserver([&args](const StageTrace &trace,
                                    const CompileArtifacts &artifacts) {
            if (trace.stage == CompileStage::kLint
                && artifacts.lint.has_value()) {
                // Printed before the status check so a --lint-strict
                // failure still shows what mopcheck found.
                std::printf("lint: %s\n",
                            artifacts.lint->summary().c_str());
                if (!artifacts.lint->diagnostics.empty())
                    std::fputs(artifacts.lint->table().c_str(), stdout);
            }
            if (!trace.status.isOk())
                return;
            if (trace.stage == CompileStage::kLoad) {
                std::fputs(artifacts.arch_text.c_str(), stdout);
                std::printf(
                    "workload: %s (%lld nodes, %lld weights)\n\n",
                    artifacts.workload.c_str(),
                    static_cast<long long>(artifacts.nodes),
                    static_cast<long long>(artifacts.weights));
            } else if (trace.stage == CompileStage::kTune) {
                if (args.autotune_verbose)
                    std::fputs(artifacts.tune->table().c_str(), stdout);
                std::printf("%s\n", artifacts.tune->summary().c_str());
            }
        });
    }

    auto result = session.run();
    if (args.autotune && !args.tune_cache_file.empty())
        saveTuneCache(args.tune_cache_file, tune_cache);
    if (!result.isOk()) {
        std::fprintf(stderr, "%s\n",
                     result.status().toString().c_str());
        return 1;
    }
    const CompileArtifacts &artifacts = result.value();
    const bool mismatch =
        artifacts.verify.has_value() && !artifacts.verify->match;

    if (json) {
        // Keep stdout pure kvjson; the verbose DSE table goes to stderr.
        if (args.autotune_verbose && artifacts.tune.has_value())
            std::fputs(artifacts.tune->table().c_str(), stderr);
        std::printf("%s\n", artifacts.toConfig().dump(true).c_str());
        return mismatch ? 1 : 0;
    }

    if (args.print_schedule)
        std::fputs(artifacts.schedule_report.c_str(), stdout);
    std::printf("perf: %s\n", artifacts.perf->toString().c_str());
    std::printf("flow: %s\n",
                artifacts.code->program.summary().c_str());
    if (args.print_flow)
        std::fputs(artifacts.flow_text.c_str(), stdout);

    if (artifacts.verify.has_value()) {
        const VerifyReport &report = *artifacts.verify;
        std::printf("verify: %s (%lld elements, %lld flow ops)\n",
                    report.match ? "BIT-EXACT MATCH" : "MISMATCH",
                    static_cast<long long>(report.elements_checked),
                    static_cast<long long>(report.flow_ops));
        if (!report.match) {
            std::fprintf(stderr, "  first mismatch: %s\n",
                         report.first_mismatch.c_str());
            return 1;
        }
    }
    return 0;
}

/** Reads a whole file as text (for inlining --model-file/--arch-file
 * into an rpc request — the daemon never sees client paths). */
bool
readFileText(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *out = buffer.str();
    return true;
}

/** Client mode: route the request to a running cimmlcd. */
int
runClient(const CliArgs &args)
{
    StatusOr<DaemonClient> connected = [&]() -> StatusOr<DaemonClient> {
        if (!args.connect.empty())
            return DaemonClient::connectUnixSocket(args.connect);
        const auto colon = args.connect_tcp.rfind(':');
        std::int64_t port = 0;
        if (colon == std::string::npos
            || !parseInt64(args.connect_tcp.substr(colon + 1), &port))
            return invalidArgument("--connect-tcp expects HOST:PORT, got '"
                                   + args.connect_tcp + "'");
        return DaemonClient::connectTcpSocket(
            args.connect_tcp.substr(0, colon), static_cast<int>(port));
    }();
    if (!connected.isOk()) {
        std::fprintf(stderr, "%s\n",
                     connected.status().toString().c_str());
        return 1;
    }
    DaemonClient client = std::move(connected).value();
    if (client.versionSkew()) {
        std::fprintf(stderr,
                     "warning: daemon is cimmlc %s, this client is %s "
                     "(reports may differ)\n",
                     client.serverVersion().c_str(), cimmlcVersion());
    }

    if (args.daemon_shutdown) {
        const Status bye = client.shutdownServer();
        if (!bye.isOk()) {
            std::fprintf(stderr, "%s\n", bye.toString().c_str());
            return 1;
        }
        std::printf("daemon shutdown requested\n");
        return 0;
    }
    if (args.daemon_stats) {
        auto stats = client.stats();
        if (!stats.isOk()) {
            std::fprintf(stderr, "%s\n",
                         stats.status().toString().c_str());
            return 1;
        }
        std::printf("%s\n", stats.value().dump(true).c_str());
        return 0;
    }

    RpcCompileRequest request;
    request.model = args.model;
    if (!args.model_file.empty()
        && !readFileText(args.model_file, &request.model_text))
        return 1;
    if (!args.arch_file.empty()
        && !readFileText(args.arch_file, &request.arch_text))
        return 1;
    // Both sources are forwarded when both were spelled out, so the
    // daemon rejects the conflict exactly like the in-process path.
    if (args.arch_explicit || args.arch_file.empty())
        request.arch = args.arch;
    request.opt = args.opt;
    request.dual_mode = args.dual_mode;
    request.host_offload = args.host_offload;
    request.tune = args.autotune;
    request.objective = args.objective;
    request.search_budget = args.search_budget;
    request.perf_engine = args.perf_engine;
    request.lint = args.lint;
    request.lint_strict = args.lint_strict;
    request.verify = args.verify;

    const bool json = args.report == "json";
    auto response = client.compile(
        request, [json](const std::string &stage,
                        const std::string &status, double wall_ms,
                        const std::string &detail) {
            // Progress goes to stderr so stdout stays a pure report.
            std::fprintf(stderr, "[%s] %s %.2f ms%s%s\n", stage.c_str(),
                         status.c_str(), wall_ms,
                         detail.empty() ? "" : " - ", detail.c_str());
        });
    if (!response.isOk()) {
        std::fprintf(stderr, "%s\n",
                     response.status().toString().c_str());
        return 1;
    }
    if (json) {
        std::printf("%s\n", response.value().report_json.c_str());
        return 0;
    }
    auto report = parseConfig(response.value().report_json);
    if (!report.isOk()) {
        std::fprintf(stderr, "daemon sent an unparseable report: %s\n",
                     report.status().toString().c_str());
        return 1;
    }
    const ConfigValue &doc = report.value();
    if (response.value().cached)
        std::printf("(served from the daemon's artifact memo)\n");
    if (doc.has("workload")) {
        const ConfigValue workload = doc.get("workload").value();
        std::printf("workload: %s (%lld nodes, %lld weights)\n",
                    workload.getStringOr("name", "?").c_str(),
                    static_cast<long long>(workload.getIntOr("nodes", 0)),
                    static_cast<long long>(
                        workload.getIntOr("weights", 0)));
    }
    if (doc.has("perf"))
        std::printf("perf: %s\n",
                    doc.get("perf").value().getStringOr("text", "?")
                        .c_str());
    if (doc.has("flow"))
        std::printf("flow: %s\n",
                    doc.get("flow").value().getStringOr("summary", "?")
                        .c_str());
    if (doc.has("verify")) {
        const ConfigValue verify = doc.get("verify").value();
        std::printf("verify: %s (%lld elements)\n",
                    verify.getBoolOr("match", false) ? "BIT-EXACT MATCH"
                                                     : "MISMATCH",
                    static_cast<long long>(
                        verify.getIntOr("elements_checked", 0)));
        if (!verify.getBoolOr("match", false))
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (flag == "--help" || flag == "-h") {
            printUsage(stdout, argv[0]);
            return 0;
        }
        if (flag == "--version") {
            std::printf("cimmlc %s\n", cimmlcVersion());
            return 0;
        }
        if (flag == "--list-models") {
            for (const std::string &name : models::availableModels())
                std::puts(name.c_str());
            return 0;
        }
        if (flag == "--list-archs") {
            for (const std::string &name : presets::availablePresets())
                std::puts(name.c_str());
            return 0;
        }
        if (flag == "--model") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.model = v;
        } else if (flag == "--model-file") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.model_file = v;
        } else if (flag == "--arch") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.arch = v;
            args.arch_explicit = true;
        } else if (flag == "--arch-file") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.arch_file = v;
        } else if (flag == "--opt") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.opt = v;
            args.opt_explicit = true;
        } else if (flag == "--dual-mode") {
            args.dual_mode = true;
        } else if (flag == "--host-offload") {
            args.host_offload = true;
        } else if (flag == "--batch") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.batch_file = v;
        } else if (flag == "--arch-dse") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.arch_dse_file = v;
        } else if (flag == "--tune-cache") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.tune_cache_file = v;
        } else if (flag == "--shard") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.shard = v;
        } else if (flag == "--shard-out") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.shard_out = v;
        } else if (flag == "--merge-shards") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.merge_shards = v;
        } else if (flag == "--search-budget") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            if (!parseNonNegativeInt("--search-budget", v,
                                     &args.search_budget))
                return 2;
        } else if (flag == "--check-kvjson") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.check_kvjson = v;
        } else if (flag == "--report") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.report = v;
            if (args.report != "text" && args.report != "json") {
                std::fprintf(stderr,
                             "--report expects 'text' or 'json', got "
                             "'%s'\n",
                             v);
                return 2;
            }
        } else if (flag == "--threads") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            std::int64_t parsed = 0;
            if (!parseNonNegativeInt("--threads", v, &parsed, INT_MAX))
                return 2;
            args.threads = static_cast<int>(parsed);
        } else if (flag == "--serial") {
            args.serial = true;
        } else if (flag == "--autotune") {
            args.autotune = true;
            args.autotune_explicit = true;
        } else if (flag == "--autotune-verbose") {
            args.autotune = true;
            args.autotune_explicit = true;
            args.autotune_verbose = true;
        } else if (flag == "--objective") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.objective = v;
            args.objective_explicit = true;
            args.autotune = true;
        } else if (flag == "--print-flow") {
            args.print_flow = true;
            if (i + 1 < argc && argv[i + 1][0] != '-') {
                // Optional limit; reject garbage instead of letting
                // atoll() silently turn it into a limit of 0.
                if (!parseNonNegativeInt("--print-flow", argv[++i],
                                         &args.flow_limit))
                    return 2;
            }
        } else if (flag == "--print-schedule") {
            args.print_schedule = true;
        } else if (flag == "--verify") {
            args.verify = true;
        } else if (flag == "--lint") {
            args.lint = true;
        } else if (flag == "--lint-strict") {
            args.lint = true;
            args.lint_strict = true;
        } else if (flag == "--perf-engine") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.perf_engine = v;
            args.perf_engine_explicit = true;
        } else if (flag == "--connect") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.connect = v;
        } else if (flag == "--connect-tcp") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            args.connect_tcp = v;
        } else if (flag == "--daemon-stats") {
            args.daemon_stats = true;
        } else if (flag == "--daemon-shutdown") {
            args.daemon_shutdown = true;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            return usage(argv[0]);
        }
    }
    if (!args.check_kvjson.empty())
        return runCheckKvjson(args.check_kvjson);
    // Mode-conflict checks run before dispatch, so misused flags are
    // hard errors instead of being silently dropped by the mode that
    // does not read them.
    const bool batch_mode = !args.batch_file.empty();
    const bool dse_mode = !args.arch_dse_file.empty();
    const bool client_mode =
        !args.connect.empty() || !args.connect_tcp.empty();
    if (!args.connect.empty() && !args.connect_tcp.empty()) {
        std::fprintf(stderr,
                     "--connect and --connect-tcp are exclusive\n");
        return usage(argv[0]);
    }
    if ((args.daemon_stats || args.daemon_shutdown) && !client_mode) {
        std::fprintf(stderr, "--daemon-stats/--daemon-shutdown need "
                             "--connect or --connect-tcp\n");
        return usage(argv[0]);
    }
    if (client_mode) {
        // The daemon owns scheduling, caching, and rendering; flags
        // that only make sense in-process are hard errors here.
        if (batch_mode || dse_mode || !args.tune_cache_file.empty()
            || !args.shard.empty() || !args.shard_out.empty()
            || !args.merge_shards.empty()
            || args.threads >= 0 || args.serial || args.print_flow
            || args.print_schedule || args.autotune_verbose) {
            std::fprintf(stderr,
                         "--connect/--connect-tcp submits one compile "
                         "to a daemon; --batch, --arch-dse, "
                         "--tune-cache, --threads, --serial, "
                         "--print-flow, --print-schedule, and "
                         "--autotune-verbose stay local\n");
            return usage(argv[0]);
        }
        if (!args.daemon_stats && !args.daemon_shutdown
            && args.model.empty() && args.model_file.empty())
            return usage(argv[0]);
        return runClient(args);
    }
    if (batch_mode && dse_mode) {
        std::fprintf(stderr,
                     "--batch and --arch-dse are exclusive modes\n");
        return usage(argv[0]);
    }
    if ((!args.shard.empty() || !args.shard_out.empty()
         || !args.merge_shards.empty())
        && !batch_mode && !dse_mode) {
        std::fprintf(stderr,
                     "--shard/--shard-out/--merge-shards apply to "
                     "--batch and --arch-dse modes\n");
        return usage(argv[0]);
    }
    if (!args.shard.empty() && !args.merge_shards.empty()) {
        std::fprintf(stderr,
                     "--shard and --merge-shards are exclusive\n");
        return usage(argv[0]);
    }
    if (args.shard.empty() != args.shard_out.empty()) {
        std::fprintf(stderr, "--shard I/N and --shard-out PATH go "
                             "together\n");
        return usage(argv[0]);
    }
    if (!args.shard.empty() && args.report != "text") {
        std::fprintf(stderr, "a --shard run writes its results to "
                             "--shard-out; --report applies to the "
                             "merge\n");
        return usage(argv[0]);
    }
    if (batch_mode && args.report != "text") {
        std::fprintf(stderr,
                     "--report json is not supported with --batch\n");
        return usage(argv[0]);
    }
    if (!args.tune_cache_file.empty() && !dse_mode
        && (batch_mode || !args.autotune)) {
        std::fprintf(stderr, "--tune-cache only applies to --autotune "
                             "and --arch-dse modes\n");
        return usage(argv[0]);
    }
    if (args.search_budget >= 0 && !dse_mode && !batch_mode
        && !args.autotune) {
        std::fprintf(stderr, "--search-budget only applies to "
                             "--autotune, --batch, and --arch-dse "
                             "modes\n");
        return usage(argv[0]);
    }
    if (dse_mode
        && (!args.model.empty() || !args.model_file.empty()
            || args.arch_explicit || !args.arch_file.empty()
            || args.opt_explicit || args.dual_mode || args.host_offload
            || args.autotune_explicit
            || args.print_flow || args.print_schedule || args.verify)) {
        std::fprintf(stderr,
                     "--arch-dse reads the workload, base arch, opt "
                     "level (including dual_mode/host_offload), and "
                     "tuning from the spec file; drop the conflicting "
                     "flags\n");
        return usage(argv[0]);
    }
    if (batch_mode)
        return runBatch(args);
    if (dse_mode)
        return runDse(args);
    if ((args.threads >= 0 || args.serial) && !args.autotune) {
        std::fprintf(stderr, "--threads/--serial only apply to --batch, "
                             "--arch-dse, and --autotune modes\n");
        return usage(argv[0]);
    }
    if (args.model.empty() && args.model_file.empty())
        return usage(argv[0]);
    return runSingle(args);
}
