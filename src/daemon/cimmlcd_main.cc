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
 * `cimmlcd --help` lists the flags.
 *
 * Clients: `cimmlc --connect PATH --model ... [--report json]`, or any
 * program speaking the framing documented in DESIGN.md.
 */
#include <csignal>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "common/threadpool.h"
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

/** The flag table: every flag cimmlcd reads, once. */
FlagTable
cimmlcdFlags(DaemonConfig &config)
{
    return {
        "cimmlcd",
        "usage: cimmlcd --socket PATH [--tcp PORT] [flags]\n"
        "       cimmlcd --tcp PORT [flags]\n",
        {},
        {
            {"--help", nullptr, FlagHelp{},
             "print this help and exit (also -h)"},
            {"--version", nullptr,
             [] { std::printf("cimmlcd %s\n", cimmlcVersion()); },
             "print the compiler version and exit"},
            {"--socket", "PATH", &config.unix_path,
             "Unix-domain socket to listen on"},
            {"--tcp", "PORT", &config.tcp_port,
             "also listen on 127.0.0.1:PORT (0 = ephemeral)"},
            {"--threads", "N", &config.threads,
             "compile worker threads (0 = hardware concurrency; at most "
             "1024)",
             ~0U, false, kMaxThreads},
            {"--max-inflight", "N", &config.max_inflight,
             "concurrent compiles (default 2)"},
            {"--max-queue", "N", &config.max_queue_depth,
             "queued requests before rejecting (default 32)"},
            {"--tune-cache", "PATH", &config.tune_cache_path,
             "load the tune cache, snapshot it at shutdown"},
            {"--snapshot-every", "N", &config.snapshot_every,
             "also snapshot every N compiles (0 = off)"},
            {"--cache-capacity", "N", &config.cache_capacity,
             "stage-artifact cache entries (default 512; 0 -> 1)"},
        },
    };
}

} // namespace

int
main(int argc, char **argv)
{
    DaemonConfig config;
    const FlagTable table = cimmlcdFlags(config);
    const FlagParse parse = parseFlags(table, argc, argv);
    if (parse.exit.has_value())
        return *parse.exit;
    if (config.unix_path.empty() && config.tcp_port < 0) {
        std::fprintf(stderr, "cimmlcd: needs --socket and/or --tcp "
                             "(see --help)\n");
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
