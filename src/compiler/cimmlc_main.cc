/**
 * @file
 * `cimmlc` — the command-line driver over the compilation stack.
 *
 * A thin client of the staged session API (compiler/session.h). Every
 * flag is one row of cimmlcFlags(): the compile knobs come from the
 * knob table (compiler/knobs.h) and fill one RpcCompileRequest, which
 * a single compile maps in process through the daemon's own
 * RpcCompileRequest::applyKnobs, --connect sends to a running cimmlcd,
 * and --batch and --arch-dse overlay onto their file's knob record. The
 * same rows print --help and reject a flag that the chosen mode does
 * not read. `cimmlc --help` lists them.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "arch/presets.h"
#include "common/config.h"
#include "common/flags.h"
#include "common/strutil.h"
#include "common/threadpool.h"
#include "common/version.h"
#include "compiler/batch.h"
#include "compiler/knobs.h"
#include "compiler/session.h"
#include "compiler/shard.h"
#include "daemon/client.h"
#include "dse/arch_explorer.h"
#include "graph/models.h"
#include "sched/autotune.h"

using namespace cimmlc;

namespace {

struct CliArgs {
    //! the compile knobs; --model-file and --arch-file leave their
    //! paths in model_text and arch_text
    RpcCompileRequest rpc;
    std::string batch_file;
    std::string arch_dse_file;
    std::string tune_cache_file;
    std::string shard;        //!< "i/N" — run one slice of the sweep
    std::string shard_out;    //!< where the slice's shard file goes
    std::string merge_shards; //!< comma-separated shard file paths
    std::string check_kvjson;
    std::string report = "text";
    int threads = -1; //!< -1 = use the sweep file's setting
    bool serial = false;
    bool autotune_verbose = false;
    std::int64_t flow_limit = 40; //!< --print-flow's statement cap
    bool print_schedule = false;
    std::string connect;     //!< daemon unix socket ("" = in-process)
    std::string connect_tcp; //!< daemon HOST:PORT ("" = unix/in-process)
    bool daemon_stats = false;
    bool daemon_shutdown = false;
    FlagParse parse; //!< which flags argv gave
};

constexpr unsigned kSweepModes = kBatchMode | kDseMode;

const char *const kUsage =
    "usage: cimmlc (--model NAME | --model-file PATH) [flags]\n"
    "       cimmlc --batch SWEEP.json [flags]\n"
    "       cimmlc --arch-dse SPEC.json [flags]\n"
    "       cimmlc (--connect SOCK | --connect-tcp HOST:PORT) [flags]\n"
    "\n"
    "A single compile runs in process; --autotune (or --objective) makes\n"
    "it a tuned compile. --connect runs either on a cimmlcd, and the\n"
    "compile's own flags must also be read by the mode it runs as.\n";

/** The flag table: every flag cimmlc reads, once. */
FlagTable
cimmlcFlags(CliArgs &args)
{
    FlagTable table{"cimmlc",
                    kUsage,
                    {{'s', "single compile"},
                     {'t', "tuned compile"},
                     {'b', "--batch"},
                     {'d', "--arch-dse"},
                     {'c', "--connect"}},
                    {}};
    table.flags = {
        {"--help", nullptr, FlagHelp{}, "print this help and exit (also -h)"},
        {"--version", nullptr,
         [] { std::printf("cimmlc %s\n", cimmlcVersion()); },
         "print the compiler version and exit"},
        {"--list-models", nullptr,
         [] {
             for (const std::string &name : models::availableModels())
                 std::puts(name.c_str());
         },
         "print the built-in models and exit"},
        {"--list-archs", nullptr,
         [] {
             for (const std::string &name : presets::availablePresets())
                 std::puts(name.c_str());
         },
         "print the architecture presets and exit"},
        {"--batch", "PATH", &args.batch_file,
         "compile a models x archs sweep concurrently", kBatchMode},
        {"--arch-dse", "PATH", &args.arch_dse_file,
         "sweep Abs-arch parameters for a Pareto front", kDseMode},
        {"--connect", "SOCK", &args.connect,
         "compile on the cimmlcd at this Unix socket", kConnectMode},
        {"--connect-tcp", "HOST:PORT", &args.connect_tcp,
         "like --connect, over localhost TCP", kConnectMode},
    };
    for (const CompileKnob &knob : compileKnobs())
        table.flags.push_back(knob.flagOn(args.rpc));
    table.flags.insert(
        table.flags.end(),
        {
            {"--autotune-verbose", nullptr, &args.autotune_verbose,
             "--autotune, and print every candidate", kTunedMode},
            {"--print-flow", "[N]", &args.flow_limit,
             "print the flow (N per section: 40; 0 = all)",
             kCompileModes},
            {"--print-schedule", nullptr, &args.print_schedule,
             "print the per-operator mapping report", kCompileModes},
            {"--report", "text|json", &args.report,
             "report format (--batch prints text only)", ~0U, true},
            {"--tune-cache", "PATH", &args.tune_cache_file,
             "persist evaluated candidates across runs",
             kTunedMode | kDseMode},
            {"--threads", "N", &args.threads,
             "worker threads (0 = hardware concurrency; at most 1024)",
             kTunedMode | kSweepModes, false, kMaxThreads},
            {"--serial", nullptr, &args.serial,
             "one worker thread (reference/debug)",
             kTunedMode | kSweepModes},
            {"--shard", "I/N", &args.shard,
             "evaluate the work units with index % N == I", kSweepModes},
            {"--shard-out", "PATH", &args.shard_out,
             "where a --shard run writes its slice", kSweepModes},
            {"--merge-shards", "LIST", &args.merge_shards,
             "merge these comma-separated shard files", kSweepModes},
            {"--check-kvjson", "PATH", &args.check_kvjson,
             "check that a kvjson file parses (exit 0/1)"},
            {"--daemon-stats", nullptr, &args.daemon_stats,
             "print the daemon's cimmlc.stats.v1 snapshot", kConnectMode},
            {"--daemon-shutdown", nullptr, &args.daemon_shutdown,
             "ask the daemon to drain and exit", kConnectMode},
        });
    return table;
}

/** Prints @p status to stderr, after @p context when given; true when
 * it is an error. */
bool
failed(const Status &status, const char *context = nullptr)
{
    if (status.isOk())
        return false;
    if (context != nullptr)
        std::fprintf(stderr, "%s: %s\n", context, status.toString().c_str());
    else
        std::fprintf(stderr, "%s\n", status.toString().c_str());
    return true;
}

/**
 * Overlays the flags argv gave onto a sweep file or DSE spec: a given
 * knob value replaces the file's, and a knob flag that is on (given or
 * implied) turns the file's bool on. --search-budget replaces only the
 * budget's evaluation cap. False after reporting a bad knob value.
 */
template <typename Sweep>
bool
overlayFlags(const CliArgs &args, Sweep &sweep)
{
    for (const CompileKnob &knob : compileKnobs()) {
        if (!knob.file_key)
            continue;
        std::visit(
            [&](auto member) {
                auto &value = sweep.knobs.*member;
                if constexpr (std::is_same_v<decltype(value), bool &>)
                    value = value || args.rpc.*member;
                else if (args.parse.has(&(args.rpc.*member)))
                    value = args.rpc.*member;
            },
            knob.field);
    }
    if (args.threads >= 0)
        sweep.threads = args.threads;
    if (args.serial)
        sweep.threads = 1;
    if (args.rpc.search_budget >= 0)
        sweep.budget.max_full_evals = args.rpc.search_budget;
    return !failed(checkKnobValues(sweep.knobs));
}

int
runBatch(const CliArgs &args)
{
    auto loaded = sweepFromFile(args.batch_file);
    if (failed(loaded.status(), "sweep load failed"))
        return 1;
    // The flags overlay the file in place, giving the sweep every
    // process (shard, merge, or single) agrees on: shard files carry
    // its digest, so slices of differently-flagged invocations can
    // never be combined.
    BatchSweep resolved = std::move(loaded).value();
    if (!overlayFlags(args, resolved))
        return 1;
    const RpcCompileRequest &knobs = resolved.knobs;
    if (knobs.tune && args.parse.has(&args.rpc.opt)) {
        std::fprintf(stderr,
                     "note: --opt is ignored when tuning — the tuner "
                     "searches the whole option space\n");
    }
    if (resolved.budget.enabled() && !knobs.tune) {
        std::fprintf(stderr,
                     "--search-budget/'budget' only applies to tuned "
                     "sweeps; set \"tune\": true or pass --autotune\n");
        return 1;
    }

    const auto render = [&](const BatchResult &result) {
        if (knobs.tune) {
            std::printf(
                "batch: %zu jobs, %lld ok, tuned per job "
                "(objective=%s), threads=%d\n",
                result.entries.size(),
                static_cast<long long>(result.okCount()),
                tuneObjectiveName(parseTuneObjective(knobs.objective).value()),
                resolved.threads);
        } else {
            std::printf("batch: %zu jobs, %lld ok, opt=%s, threads=%d\n",
                        result.entries.size(),
                        static_cast<long long>(result.okCount()),
                        knobs.scheduleOptions().value().toString().c_str(),
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
        if (failed(merged.status(), "shard merge failed"))
            return 1;
        return render(merged.value());
    }

    ShardSpec shard;
    std::vector<std::size_t> owned;
    std::vector<BatchJob> slice = resolved.jobs;
    if (!args.shard.empty()) {
        auto parsed = parseShardSpec(args.shard);
        if (failed(parsed.status()))
            return 1;
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
    if (failed(result.status(), "batch failed"))
        return 1;

    if (shard.enabled() || !args.shard_out.empty()) {
        const Status saved = saveConfigFile(
            args.shard_out,
            batchShardToConfig(resolved, shard, owned,
                               result.value().entries));
        if (failed(saved, "cannot write shard file"))
            return 1;
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
    if (failed(doc.status(), "kvjson check failed"))
        return 1;
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
    if (failed(spec.status(), "DSE spec load failed"))
        return 1;
    if (!overlayFlags(args, spec.value()))
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
        if (failed(merged.status(), "shard merge failed"))
            return 1;
        return render(merged.value());
    }

    // One memo for the whole sweep; --tune-cache persists it so a
    // repeated invocation reuses every evaluation.
    TuneCache cache;
    if (!args.tune_cache_file.empty())
        loadTuneCache(args.tune_cache_file, cache);

    if (!args.shard.empty()) {
        auto parsed = parseShardSpec(args.shard);
        if (failed(parsed.status()))
            return 1;
        ArchExplorer explorer(std::move(spec).value());
        const Status restricted = explorer.restrictToShard(
            parsed.value().index, parsed.value().count);
        if (failed(restricted))
            return 1;
        auto result = explorer.explore(&cache);
        if (failed(result.status()))
            return 1;
        if (!args.tune_cache_file.empty())
            saveTuneCache(args.tune_cache_file, cache);
        const Status saved = saveConfigFile(
            args.shard_out,
            dseShardToConfig(explorer.spec(), parsed.value(),
                             result.value()));
        if (failed(saved, "cannot write shard file"))
            return 1;
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
    if (failed(result.status()))
        return 1;
    if (!args.tune_cache_file.empty())
        saveTuneCache(args.tune_cache_file, cache);

    return render(result.value());
}

int
runSingle(const CliArgs &args)
{
    const bool json = args.report == "json";

    // In process the files stay paths, so load errors name the file.
    CompileRequest request;
    request.model = args.rpc.model;
    request.model_file = args.rpc.model_text;
    request.arch = args.rpc.arch;
    request.arch_file = args.rpc.arch_text;
    const Status mapped = args.rpc.applyKnobs(request);
    if (failed(mapped))
        return 1;

    TuneCache tune_cache;
    if (request.tune) {
        if (args.parse.has(&args.rpc.opt)) {
            std::fprintf(stderr,
                         "note: --opt is ignored with --autotune — the "
                         "tuner searches the whole option space\n");
        }
        if (args.rpc.dual_mode || args.rpc.host_offload) {
            std::fprintf(stderr,
                         "note: --dual-mode/--host-offload are ignored "
                         "with --autotune — the tuner searches both "
                         "knobs automatically\n");
        }
        request.threads = args.serial ? 1 : std::max(args.threads, 0);
        request.tune_cache = &tune_cache;
        if (!args.tune_cache_file.empty())
            loadTuneCache(args.tune_cache_file, tune_cache);
    }

    const bool print_flow = args.parse.has(&args.flow_limit);
    request.outputs.schedule_report = args.print_schedule;
    request.outputs.flow_text = print_flow;
    request.outputs.flow_limit = args.flow_limit;

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
    if (args.rpc.tune && !args.tune_cache_file.empty())
        saveTuneCache(args.tune_cache_file, tune_cache);
    if (failed(result.status()))
        return 1;
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
    if (print_flow)
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
    if (failed(connected.status()))
        return 1;
    DaemonClient client = std::move(connected).value();
    if (client.versionSkew()) {
        std::fprintf(stderr,
                     "warning: daemon is cimmlc %s, this client is %s "
                     "(reports may differ)\n",
                     client.serverVersion().c_str(), cimmlcVersion());
    }

    if (args.daemon_shutdown) {
        const Status bye = client.shutdownServer();
        if (failed(bye))
            return 1;
        std::printf("daemon shutdown requested\n");
        return 0;
    }
    if (args.daemon_stats) {
        auto stats = client.stats();
        if (failed(stats.status()))
            return 1;
        std::printf("%s\n", stats.value().dump(true).c_str());
        return 0;
    }

    // The daemon never reads client paths: send the files' text.
    RpcCompileRequest request = args.rpc;
    if (!request.model_text.empty()
        && !readFileText(args.rpc.model_text, &request.model_text))
        return 1;
    if (!request.arch_text.empty()
        && !readFileText(args.rpc.arch_text, &request.arch_text))
        return 1;

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
    if (failed(response.status()))
        return 1;
    if (json) {
        std::printf("%s\n", response.value().report_json.c_str());
        return 0;
    }
    auto report = parseConfig(response.value().report_json);
    if (failed(report.status(), "daemon sent an unparseable report"))
        return 1;
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

/** The mode argv selects, CimmlcMode bits. */
unsigned
modeOf(const CliArgs &args)
{
    if (!args.connect.empty() || !args.connect_tcp.empty())
        return kConnectMode;
    if (!args.batch_file.empty())
        return kBatchMode;
    if (!args.arch_dse_file.empty())
        return kDseMode;
    return args.rpc.tune ? kTunedMode : kSingleMode;
}

/** The table's mode check, then the rules between flags. */
Status
checkFlags(const FlagTable &table, const CliArgs &args, unsigned mode)
{
    if (!args.connect.empty() && !args.connect_tcp.empty())
        return invalidArgument("--connect and --connect-tcp are exclusive");
    CIMMLC_RETURN_IF_ERROR(checkFlagModes(table, args.parse.given, mode));
    if (mode == kConnectMode) {
        // The daemon runs a single or tuned compile, so the compile's
        // own flags must be read by that mode too.
        std::vector<const Flag *> sent;
        std::copy_if(args.parse.given.begin(), args.parse.given.end(),
                     std::back_inserter(sent), [](const Flag *flag) {
                         return (flag->modes & kCompileModes) != 0;
                     });
        CIMMLC_RETURN_IF_ERROR(
            checkFlagModes(table, sent,
                           args.rpc.tune ? kTunedMode : kSingleMode)
                .withContext("--connect"));
    }
    if (!args.shard.empty() && !args.merge_shards.empty())
        return invalidArgument("--shard and --merge-shards are exclusive");
    if (args.shard.empty() != args.shard_out.empty())
        return invalidArgument("--shard I/N and --shard-out PATH go "
                               "together");
    if (!args.shard.empty() && args.report != "text")
        return invalidArgument("a --shard run writes its results to "
                               "--shard-out; --report applies to the "
                               "merge");
    if (mode == kBatchMode && args.report != "text")
        return invalidArgument("--report json is not supported with "
                               "--batch");
    const bool compiles =
        (mode & kCompileModes) != 0
        || (mode == kConnectMode && !args.daemon_stats
            && !args.daemon_shutdown);
    if (compiles && args.rpc.model.empty() && args.rpc.model_text.empty())
        return invalidArgument("a model is required: --model NAME or "
                               "--model-file PATH");
    return Status::ok();
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args;
    const FlagTable table = cimmlcFlags(args);
    args.parse = parseFlags(table, argc, argv);
    if (args.parse.exit.has_value())
        return *args.parse.exit;
    if (!args.check_kvjson.empty())
        return runCheckKvjson(args.check_kvjson);
    // --lint-strict implies --lint; --autotune-verbose implies
    // --autotune, and so does --objective outside --arch-dse, whose
    // objective ranks untuned candidates too.
    args.rpc.lint = args.rpc.lint || args.rpc.lint_strict;
    args.rpc.tune = args.rpc.tune || args.autotune_verbose
                    || (args.parse.has(&args.rpc.objective)
                        && args.arch_dse_file.empty());

    const unsigned mode = modeOf(args);
    const Status usable = checkFlags(table, args, mode);
    if (!usable.isOk()) {
        std::fprintf(stderr, "cimmlc: %s (see --help)\n",
                     usable.message().c_str());
        return 2;
    }
    switch (mode) {
      case kConnectMode:
        return runClient(args);
      case kBatchMode:
        return runBatch(args);
      case kDseMode:
        return runDse(args);
      default:
        return runSingle(args);
    }
}
