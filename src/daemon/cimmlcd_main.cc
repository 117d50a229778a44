/**
 * @file
 * `cimmlcd` — long-running compile service over the CIM-MLC stack.
 *
 * Accepts `cimmlc.rpc.v1` framed kvjson requests over a Unix-domain
 * socket (and optionally localhost TCP), admits them under a bounded
 * queue, schedules them fairly across client connections onto the
 * process ThreadPool, and serves every compile from one warm
 * process-wide TuneCache plus a bounded (LRU) stage-level artifact
 * cache that replays unchanged pipeline stages across requests.
 *
 * Usage:
 *   cimmlcd --socket /tmp/cimmlcd.sock [options]
 *
 * Options:
 *   --socket PATH        Unix-domain socket to listen on
 *   --tcp PORT           also listen on 127.0.0.1:PORT (0 = ephemeral;
 *                        the bound port is printed on startup)
 *   --threads N          compile worker threads (0 = hardware
 *                        concurrency)
 *   --max-inflight N     concurrent compiles (default 2)
 *   --max-queue N        admission queue depth (default 32); further
 *                        requests are rejected, not buffered
 *   --tune-cache PATH    load the tune cache at startup and snapshot
 *                        it there (atomic rename) on shutdown
 *   --snapshot-every N   also snapshot after every N completed
 *                        compiles (default 0 = only at shutdown)
 *   --cache-capacity N   stage-artifact cache entries before LRU
 *                        eviction (default 512). 0 is clamped to 1
 *                        with a warning: the cache cannot be disabled,
 *                        one entry is its smallest size
 *   --version / --help
 *
 * Clients: `cimmlc --connect PATH --model ... [--report json]`, or any
 * program speaking the framing documented in DESIGN.md.
 */
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/version.h"
#include "daemon/server.h"

using namespace cimmlc;

namespace {

DaemonServer *g_server = nullptr;

void
handleSignal(int)
{
    // requestStop only sets flags and pokes a condition variable; the
    // heavyweight teardown runs on the main thread in serveForever().
    if (g_server != nullptr)
        g_server->requestStop();
}

void
printUsage(std::FILE *out, const char *argv0)
{
    std::fprintf(out,
                 "usage: %s --socket PATH [--tcp PORT] [--threads N]\n"
                 "          [--max-inflight N] [--max-queue N]\n"
                 "          [--tune-cache PATH] [--snapshot-every N]\n"
                 "          [--cache-capacity N]\n"
                 "          [--version] [--help]\n",
                 argv0);
}

/** Parses a flag value as an integer in [0, @p max]. */
bool
parseIntFlag(const char *flag, const char *value, long long max,
             long long *out)
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

} // namespace

int
main(int argc, char **argv)
{
    DaemonConfig config;
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
            std::printf("cimmlcd %s\n", cimmlcVersion());
            return 0;
        }
        if (flag == "--socket") {
            const char *v = next();
            if (!v) {
                printUsage(stderr, argv[0]);
                return 2;
            }
            config.unix_path = v;
        } else if (flag == "--tcp" || flag == "--threads"
                   || flag == "--max-inflight" || flag == "--max-queue"
                   || flag == "--snapshot-every"
                   || flag == "--cache-capacity") {
            const char *v = next();
            long long parsed = 0;
            // --tcp and --threads narrow to int: a larger value must be
            // rejected, not wrapped into an ephemeral port or pool size.
            const long long max = flag == "--tcp" || flag == "--threads"
                                      ? INT_MAX
                                      : LLONG_MAX;
            if (!v || !parseIntFlag(flag.c_str(), v, max, &parsed)) {
                printUsage(stderr, argv[0]);
                return 2;
            }
            if (flag == "--tcp")
                config.tcp_port = static_cast<int>(parsed);
            else if (flag == "--threads")
                config.threads = static_cast<int>(parsed);
            else if (flag == "--max-inflight")
                config.max_inflight = parsed;
            else if (flag == "--max-queue")
                config.max_queue_depth = parsed;
            else if (flag == "--cache-capacity")
                config.cache_capacity = parsed;
            else
                config.snapshot_every = parsed;
        } else if (flag == "--tune-cache") {
            const char *v = next();
            if (!v) {
                printUsage(stderr, argv[0]);
                return 2;
            }
            config.tune_cache_path = v;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            printUsage(stderr, argv[0]);
            return 2;
        }
    }
    if (config.unix_path.empty() && config.tcp_port < 0) {
        std::fprintf(stderr, "cimmlcd needs --socket and/or --tcp\n");
        printUsage(stderr, argv[0]);
        return 2;
    }

    DaemonServer server(std::move(config));
    const Status started = server.start();
    if (!started.isOk()) {
        std::fprintf(stderr, "%s\n", started.toString().c_str());
        return 1;
    }
    g_server = &server;
    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    std::printf("cimmlcd %s ready", cimmlcVersion());
    if (!server.config().unix_path.empty())
        std::printf(" unix=%s", server.config().unix_path.c_str());
    if (server.boundTcpPort() >= 0)
        std::printf(" tcp=127.0.0.1:%d", server.boundTcpPort());
    std::printf(" inflight<=%lld queue<=%lld\n",
                static_cast<long long>(server.config().max_inflight),
                static_cast<long long>(server.config().max_queue_depth));
    std::fflush(stdout);

    server.serveForever();
    g_server = nullptr;
    std::printf("cimmlcd: drained, bye\n");
    return 0;
}
