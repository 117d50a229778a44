/**
 * @file
 * Socket-level tests for the compile daemon: handshake, report
 * byte-identity against an in-process session, the warm artifact memo,
 * admission rejection under a full queue, cancel-on-disconnect, stats,
 * shutdown (including a stop racing idle accept threads), tune-cache
 * snapshotting, TCP_NODELAY on both ends of a TCP connection, error
 * frames for undecodable frames and for stats and shutdown frames that
 * break the compile frame's rules, and reader threads joined per
 * closed connection. Each test runs its own DaemonServer on a unique /tmp
 * Unix socket (or ephemeral TCP port); deterministic in-flight
 * blocking uses the server's test-only compile hook.
 */
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/socket.h"
#include "compiler/session.h"
#include "daemon/client.h"
#include "daemon/server.h"

namespace cimmlc {
namespace {

std::string
uniqueSocketPath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/cimmlcd_t" + std::to_string(::getpid()) + "_" + tag
           + std::to_string(counter.fetch_add(1)) + ".sock";
}

/** Strips the nondeterministic per-stage timing from a report so two
 * runs of the same compile can be compared byte for byte. */
std::string
normalizeWallMs(const std::string &report)
{
    static const std::regex wall("\"wall_ms\": [0-9.eE+-]+");
    return std::regex_replace(report, wall, "\"wall_ms\": X");
}

/** Additionally strips the per-stage "cached" provenance tag, so a
 * cold report and a stage-cache-replayed warm report of the same
 * request can be compared byte for byte. */
std::string
normalizeProvenance(const std::string &report)
{
    static const std::regex cached("\"cached\": (true|false)");
    return std::regex_replace(normalizeWallMs(report),
                              cached, "\"cached\": X");
}

RpcCompileRequest
toyRequest(const std::string &model = "conv_relu_toy",
           const std::string &arch = "tutorial")
{
    RpcCompileRequest request;
    request.model = model;
    request.arch = arch;
    return request;
}

/** The in-process reference: what `cimmlc --report json` prints. */
std::string
localReport(const RpcCompileRequest &request)
{
    auto mapped = request.toCompileRequest(nullptr);
    EXPECT_TRUE(mapped.isOk()) << mapped.status().toString();
    CompilerSession session(std::move(mapped).value());
    auto result = session.run();
    EXPECT_TRUE(result.isOk()) << result.status().toString();
    return result.value().toConfig().dump(/*pretty=*/true);
}

/** Polls @p predicate for up to five seconds. */
bool
eventually(const std::function<bool()> &predicate)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
}

TEST(DaemonServerTest, RejectsConfigWithoutTransport)
{
    DaemonConfig config; // neither unix_path nor tcp_port
    DaemonServer server(std::move(config));
    EXPECT_FALSE(server.start().isOk());
}

TEST(DaemonServerTest, ThreadsAboveTheCeilingFailValidation)
{
    // validate() only: start() would build the pool.
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("ceiling");
    config.threads = 1025;
    const Status status = config.validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "threads must be in [0, 1024]");
    config.threads = 1024;
    EXPECT_TRUE(config.validate().isOk());
}

TEST(DaemonServerTest, HandshakeCarriesSchemaAndVersion)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("hello");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk()) << client.status().toString();
    EXPECT_EQ(client.value().serverSchema(), kRpcSchema);
    EXPECT_FALSE(client.value().versionSkew());
    server.stop();
}

TEST(DaemonServerTest, ReportMatchesInProcessSession)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("ident");
    config.threads = 2;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    const RpcCompileRequest request = toyRequest();
    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk());
    std::int64_t events = 0;
    auto response = client.value().compile(
        request, [&events](const std::string &, const std::string &,
                           double, const std::string &) { ++events; });
    ASSERT_TRUE(response.isOk()) << response.status().toString();
    EXPECT_FALSE(response.value().cached);
    // Every pipeline stage streamed a trace event before the report.
    EXPECT_GE(events, 5);
    EXPECT_EQ(normalizeWallMs(response.value().report_json),
              normalizeWallMs(localReport(request)));
    server.stop();
}

TEST(DaemonServerTest, TcpTransportServesTheSameReport)
{
    DaemonConfig config;
    config.tcp_port = 0; // ephemeral
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());
    ASSERT_GT(server.boundTcpPort(), 0);

    auto client =
        DaemonClient::connectTcpSocket("127.0.0.1", server.boundTcpPort());
    ASSERT_TRUE(client.isOk()) << client.status().toString();
    const RpcCompileRequest request = toyRequest();
    auto response = client.value().compile(request);
    ASSERT_TRUE(response.isOk()) << response.status().toString();
    EXPECT_EQ(normalizeWallMs(response.value().report_json),
              normalizeWallMs(localReport(request)));
    server.stop();
}

TEST(DaemonServerTest, WarmMemoServesRepeatByteIdentical)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("memo");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk());
    auto cold = client.value().compile(toyRequest());
    ASSERT_TRUE(cold.isOk());
    EXPECT_FALSE(cold.value().cached);

    // Same request again — and from a different connection, to prove
    // the memo is process-wide, not per-client.
    auto client2 = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client2.isOk());
    auto warm = client2.value().compile(toyRequest());
    ASSERT_TRUE(warm.isOk());
    EXPECT_TRUE(warm.value().cached);
    // Stage replays recompute nothing, so the warm report matches the
    // cold one byte for byte once the timing and the per-stage cache
    // provenance (the whole point of the warm run) are masked out.
    EXPECT_EQ(normalizeProvenance(warm.value().report_json),
              normalizeProvenance(cold.value().report_json));
    // The cold run computed every stage; the warm run replayed every
    // stage past load from the process-wide artifact cache.
    EXPECT_EQ(cold.value().report_json.find("\"cached\": true"),
              std::string::npos);
    std::size_t replays = 0;
    for (std::size_t at = warm.value().report_json.find("\"cached\": true");
         at != std::string::npos;
         at = warm.value().report_json.find("\"cached\": true", at + 1))
        ++replays;
    EXPECT_GE(replays, 4u); // validate, schedule, codegen, perf
    server.stop();
}

TEST(DaemonServerTest, ConcurrentMixedClientsStayByteIdentical)
{
    const std::vector<RpcCompileRequest> mix = {
        toyRequest("conv_relu_toy", "tutorial"),
        toyRequest("mlp", "jain"),
        toyRequest("lenet5", "tutorial"),
    };
    std::vector<std::string> expected;
    for (const RpcCompileRequest &request : mix)
        expected.push_back(normalizeWallMs(localReport(request)));

    for (int threads : {1, 2, 8}) {
        DaemonConfig config;
        config.unix_path = uniqueSocketPath("mix");
        config.threads = threads;
        config.max_inflight = threads;
        DaemonServer server(std::move(config));
        ASSERT_TRUE(server.start().isOk());

        std::vector<std::string> got(mix.size());
        std::vector<std::thread> clients;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            clients.emplace_back([&, i] {
                auto client = DaemonClient::connectUnixSocket(
                    server.config().unix_path);
                ASSERT_TRUE(client.isOk());
                auto response = client.value().compile(mix[i]);
                ASSERT_TRUE(response.isOk())
                    << response.status().toString();
                got[i] = normalizeWallMs(response.value().report_json);
            });
        }
        for (std::thread &thread : clients)
            thread.join();
        for (std::size_t i = 0; i < mix.size(); ++i)
            EXPECT_EQ(got[i], expected[i])
                << "threads=" << threads << " request " << i;
        server.stop();
    }
}

TEST(DaemonServerTest, FullQueueRejectsWithResourceExhausted)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("adm");
    config.threads = 2;
    config.max_inflight = 1;
    config.max_queue_depth = 1;
    DaemonServer server(std::move(config));

    // Gate: the first dispatched compile blocks inside the hook until
    // released, pinning the single in-flight slot deterministically.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    int entered = 0;
    bool release = false;
    server.setCompileHook([&] {
        std::unique_lock<std::mutex> lock(gate_mutex);
        ++entered;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return release; });
    });
    ASSERT_TRUE(server.start().isOk());
    const std::string path = server.config().unix_path;

    std::thread blocked([&] {
        auto client = DaemonClient::connectUnixSocket(path);
        ASSERT_TRUE(client.isOk());
        auto response = client.value().compile(toyRequest());
        EXPECT_TRUE(response.isOk()) << response.status().toString();
    });
    {
        std::unique_lock<std::mutex> lock(gate_mutex);
        ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return entered == 1; }));
    }

    std::thread queued([&] {
        auto client = DaemonClient::connectUnixSocket(path);
        ASSERT_TRUE(client.isOk());
        auto response =
            client.value().compile(toyRequest("mlp", "jain"));
        EXPECT_TRUE(response.isOk()) << response.status().toString();
    });
    ASSERT_TRUE(eventually([&] { return server.queueDepth() == 1; }));

    // In-flight slot pinned, queue full: the third client is rejected.
    auto client = DaemonClient::connectUnixSocket(path);
    ASSERT_TRUE(client.isOk());
    auto rejected =
        client.value().compile(toyRequest("lenet5", "tutorial"));
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();
    blocked.join();
    queued.join();
    server.stop();
}

TEST(DaemonServerTest, DisconnectMidCompileCancelsCleanly)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("cancel");
    config.threads = 2;
    config.max_inflight = 1;
    DaemonServer server(std::move(config));

    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    int entered = 0;
    bool release = false;
    server.setCompileHook([&] {
        std::unique_lock<std::mutex> lock(gate_mutex);
        ++entered;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return release; });
    });
    ASSERT_TRUE(server.start().isOk());
    const std::string path = server.config().unix_path;

    // A raw connection (no DaemonClient, which would block in compile):
    // handshake, submit, then vanish while the job is in flight.
    {
        auto socket = connectUnix(path);
        ASSERT_TRUE(socket.isOk());
        ASSERT_TRUE(recvFrame(socket.value()).isOk()); // hello
        RpcCompileRequest request = toyRequest();
        request.id = 1;
        ASSERT_TRUE(
            sendFrame(socket.value(), request.toConfig()).isOk());
        {
            std::unique_lock<std::mutex> lock(gate_mutex);
            ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(5),
                                         [&] { return entered == 1; }));
        }
        // Socket closes here: the daemon must cancel, not crash.
    }
    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        release = true;
    }
    gate_cv.notify_all();

    // The canceled session frees the slot; a fresh client is served.
    auto client = DaemonClient::connectUnixSocket(path);
    ASSERT_TRUE(client.isOk());
    ASSERT_TRUE(eventually([&] {
        auto stats = client.value().stats();
        return stats.isOk() && stats.value().getIntOr("canceled", 0) >= 1;
    }));
    auto response = client.value().compile(toyRequest("mlp", "jain"));
    ASSERT_TRUE(response.isOk()) << response.status().toString();
    server.stop();
}

TEST(DaemonServerTest, IdsOutsideInt64AnswerWithMinusOne)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("bigid");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    auto socket = connectUnix(server.config().unix_path);
    ASSERT_TRUE(socket.isOk());
    ASSERT_TRUE(recvFrame(socket.value()).isOk()); // hello
    auto exchange = [&socket](const std::string &frame) {
        EXPECT_TRUE(
            sendFrame(socket.value(), parseConfig(frame).value()).isOk());
        auto reply = recvFrame(socket.value());
        EXPECT_TRUE(reply.isOk()) << reply.status().toString();
        return reply.isOk() ? reply.value() : ConfigValue();
    };
    const ConfigValue stats = exchange(R"({"type":"stats","id":1e300})");
    EXPECT_EQ(stats.getStringOr("type", ""), "error");
    EXPECT_EQ(stats.getIntOr("id", 0), -1);
    const ConfigValue error = exchange(
        R"({"type":"compile","id":1e300,"model":"mlp","arch":"jain"})");
    EXPECT_EQ(error.getStringOr("type", ""), "error");
    EXPECT_EQ(error.getIntOr("id", 0), -1);
    // The connection keeps serving.
    const ConfigValue again = exchange(R"({"type":"stats","id":5})");
    EXPECT_EQ(again.getStringOr("type", ""), "stats_report");
    EXPECT_EQ(again.getIntOr("id", 0), 5);
    server.stop();
}

TEST(DaemonServerTest, MalformedArchTextGetsAnErrorReply)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("badarch");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk());
    RpcCompileRequest request = toyRequest();
    request.arch.clear();
    request.arch_text = R"({"chip_tier": {"core_grid": ["3", 3]}})";
    auto response = client.value().compile(request);
    ASSERT_FALSE(response.isOk());
    EXPECT_NE(response.status().message().find("core_grid"),
              std::string::npos)
        << response.status().toString();
    // The daemon is still up and serving.
    auto stats = client.value().stats();
    ASSERT_TRUE(stats.isOk()) << stats.status().toString();
    EXPECT_EQ(stats.value().getStringOr("schema", ""), "cimmlc.stats.v1");
    server.stop();
}

TEST(DaemonServerTest, MisshapedModelTextGetsAnErrorReply)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("badgraph");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk());
    // The matmul's inner dims disagree (3 vs 4): shape inference used
    // to abort the daemon for every client.
    RpcCompileRequest request = toyRequest();
    request.model.clear();
    request.model_text =
        R"({"inputs": [{"name": "x", "dims": [1, 4, 3]}],
            "nodes": [{"op": "matmul", "name": "n", "inputs": ["x", "x"]}],
            "outputs": ["n"]})";
    auto response = client.value().compile(request);
    ASSERT_FALSE(response.isOk());
    EXPECT_NE(response.status().message().find("matmul node 'n'"),
              std::string::npos)
        << response.status().toString();
    // The daemon still serves the next request.
    const RpcCompileRequest next = toyRequest();
    auto served = client.value().compile(next);
    ASSERT_TRUE(served.isOk()) << served.status().toString();
    EXPECT_EQ(normalizeWallMs(served.value().report_json),
              normalizeWallMs(localReport(next)));
    server.stop();
}

// Counts that wrap int64 used to pass load and validate: the core grid
// then divided by zero in the scheduler and killed the daemon (SIGFPE)
// for every client, and the graph compiled to a 0 pJ report.
TEST(DaemonServerTest, OverflowingCountsGetAnErrorReply)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("overflow");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk());
    RpcCompileRequest grid = toyRequest("lenet5");
    grid.arch.clear();
    grid.arch_text = R"({"name": "weak-alu",
        "chip_tier": {"core_grid": [4294967296, 4294967296], "alu": 0.25},
        "core_tier": {"xb_grid": [2, 2]},
        "xb_tier": {"xb_size": [128, 128], "dac": 1, "adc": 8}})";
    auto wrapped = client.value().compile(grid);
    ASSERT_FALSE(wrapped.isOk());
    EXPECT_NE(wrapped.status().message().find("overflows int64"),
              std::string::npos)
        << wrapped.status().toString();

    RpcCompileRequest input = toyRequest();
    input.model.clear();
    input.model_text =
        R"({"inputs": [{"name": "x", "dims": [65536, 65536, 65536, 65536]}],
            "nodes": [{"op": "relu", "name": "n", "inputs": ["x"]}],
            "outputs": ["n"]})";
    auto huge = client.value().compile(input);
    ASSERT_FALSE(huge.isOk());
    EXPECT_NE(huge.status().message().find("element count overflows int64"),
              std::string::npos)
        << huge.status().toString();

    // The daemon still serves the next request, byte-identical.
    const RpcCompileRequest next = toyRequest();
    auto served = client.value().compile(next);
    ASSERT_TRUE(served.isOk()) << served.status().toString();
    EXPECT_EQ(normalizeWallMs(served.value().report_json),
              normalizeWallMs(localReport(next)));
    server.stop();
}

TEST(DaemonServerTest, StatsSnapshotCountsTraffic)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("stats");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk());
    ASSERT_TRUE(client.value().compile(toyRequest()).isOk());
    ASSERT_TRUE(client.value().compile(toyRequest()).isOk()); // memo hit
    // The in-flight slot is released on the pool thread after the
    // report frame goes out; wait for the gauge to settle.
    ASSERT_TRUE(eventually([&] { return server.inflight() == 0; }));

    auto stats = client.value().stats();
    ASSERT_TRUE(stats.isOk()) << stats.status().toString();
    const ConfigValue &doc = stats.value();
    EXPECT_EQ(doc.getStringOr("schema", ""), "cimmlc.stats.v1");
    EXPECT_EQ(doc.getIntOr("admitted", 0), 2);
    EXPECT_EQ(doc.getIntOr("completed", 0), 2);
    EXPECT_EQ(doc.getIntOr("queue_depth", -1), 0);
    EXPECT_EQ(doc.getIntOr("inflight", -1), 0);
    ASSERT_TRUE(doc.has("artifact_memo"));
    const ConfigValue memo = doc.get("artifact_memo").value();
    EXPECT_EQ(memo.getIntOr("hits", 0), 1);
    EXPECT_EQ(memo.getIntOr("misses", 0), 1);
    EXPECT_DOUBLE_EQ(memo.getNumberOr("hit_rate", 0.0), 0.5);
    ASSERT_TRUE(doc.has("latency"));
    EXPECT_EQ(doc.get("latency").value().getIntOr("count", 0), 2);
    // Per-stage histograms exist for the pipeline's stages.
    ASSERT_TRUE(doc.has("stage_latency"));
    EXPECT_TRUE(doc.get("stage_latency").value().has("schedule"));
    server.stop();
}

TEST(DaemonServerTest, ShutdownRequestStopsTheServer)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("bye");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());

    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk());
    EXPECT_TRUE(client.value().shutdownServer().isOk());
    // serveForever() would now return; stop() drains and is idempotent.
    server.stop();
    server.stop();
}

TEST(DaemonServerTest, StopWhileAcceptThreadsIdle)
{
    // stop() must unblock accept threads parked on both transports and
    // close the listeners only after joining them (a data race under
    // TSan otherwise).
    for (int round = 0; round < 3; ++round) {
        DaemonConfig config;
        config.unix_path = uniqueSocketPath("idle");
        config.tcp_port = 0;
        config.threads = 1;
        DaemonServer server(std::move(config));
        ASSERT_TRUE(server.start().isOk());
        ASSERT_GT(server.boundTcpPort(), 0);
        server.stop();
        EXPECT_EQ(server.boundTcpPort(), -1);
    }
}

/** This process's virtual memory size (VmSize) in KiB; 0 when
 * /proc/self/status cannot be read. */
std::int64_t
vmSizeKib()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0;
    char line[256];
    long long kib = 0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
        if (std::sscanf(line, "VmSize: %lld kB", &kib) == 1)
            break;
    }
    std::fclose(status);
    return kib;
}

TEST(DaemonServerTest, ClosedConnectionsKeepNoReaderThread)
{
    // Each reader thread reserves a stack (8 MiB by default); a daemon
    // that joined readers only at stop() grew by one per connection it
    // had ever served.
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("readers");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());
    // One stats exchange, then a half-close; the daemon closes its end
    // once the reader has cleaned up, so connections do not overlap.
    const auto serveOne = [&server] {
        auto socket = connectUnix(server.config().unix_path);
        ASSERT_TRUE(socket.isOk());
        ASSERT_TRUE(recvFrame(socket.value()).isOk()); // hello
        ASSERT_TRUE(sendFrame(socket.value(), statsRequestFrame(1)).isOk());
        ASSERT_TRUE(recvFrame(socket.value()).isOk());
        ASSERT_EQ(::shutdown(socket.value().fd(), SHUT_WR), 0);
        EXPECT_EQ(recvFrame(socket.value()).status().code(),
                  StatusCode::kNotFound);
    };
    for (int i = 0; i < 10; ++i) // warm up the allocator's arenas
        serveOne();
    const std::int64_t before = vmSizeKib();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/status is not readable";
    for (int i = 0; i < 100; ++i)
        serveOne();
    const std::int64_t grown_kib = vmSizeKib() - before;
    EXPECT_LT(grown_kib, 200 * 1024)
        << "VmSize grew by " << grown_kib << " KiB over 100 connections";
    server.stop();
}

/** Sends @p bytes on a raw connection and expects, after the hello, one
 * error frame with id -1 and @p code, then end-of-stream; then a new
 * connection is served. */
void
expectErrorFrameThenClose(const std::string &bytes, StatusCode code)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("badframe");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());
    {
        auto socket = connectUnix(server.config().unix_path);
        ASSERT_TRUE(socket.isOk());
        ASSERT_TRUE(recvFrame(socket.value()).isOk()); // hello
        ASSERT_TRUE(socket.value().sendAll(bytes.data(), bytes.size()).isOk());
        auto reply = recvFrame(socket.value());
        ASSERT_TRUE(reply.isOk()) << reply.status().toString();
        EXPECT_EQ(reply.value().getStringOr("type", ""), "error");
        EXPECT_EQ(reply.value().getIntOr("id", 0), -1);
        EXPECT_EQ(statusFromErrorFrame(reply.value()).code(), code)
            << reply.value().dump(false);
        EXPECT_EQ(recvFrame(socket.value()).status().code(),
                  StatusCode::kNotFound); // closed after the reply
    }
    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk()) << client.status().toString();
    EXPECT_TRUE(client.value().stats().isOk());
    server.stop();
}

TEST(DaemonServerTest, BadMagicGetsAParseErrorFrame)
{
    expectErrorFrameThenClose("garbage\n", StatusCode::kParseError);
}

TEST(DaemonServerTest, BadLengthGetsAParseErrorFrame)
{
    expectErrorFrameThenClose("cimmlc-rpc twelve\n",
                              StatusCode::kParseError);
}

TEST(DaemonServerTest, NonJsonPayloadGetsAParseErrorFrame)
{
    expectErrorFrameThenClose("cimmlc-rpc 3\nabc\n",
                              StatusCode::kParseError);
}

TEST(DaemonServerTest, MissingTrailerGetsAParseErrorFrame)
{
    expectErrorFrameThenClose("cimmlc-rpc 2\n{}X", StatusCode::kParseError);
}

TEST(DaemonServerTest, OversizedFrameGetsAnOutOfRangeFrame)
{
    // Past the 64 MiB ceiling: refused before any payload is read.
    expectErrorFrameThenClose("cimmlc-rpc 99999999999\n",
                              StatusCode::kOutOfRange);
}

TEST(DaemonServerTest, HangupMidFrameJustFreesTheSlot)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("hangup");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());
    {
        auto socket = connectUnix(server.config().unix_path);
        ASSERT_TRUE(socket.isOk());
        ASSERT_TRUE(recvFrame(socket.value()).isOk()); // hello
        const std::string partial = "cimmlc-rpc 40\n{\"type\":";
        ASSERT_TRUE(
            socket.value().sendAll(partial.data(), partial.size()).isOk());
        ASSERT_EQ(::shutdown(socket.value().fd(), SHUT_WR), 0);
        // No error frame: the stream just ends.
        EXPECT_EQ(recvFrame(socket.value()).status().code(),
                  StatusCode::kNotFound);
    }
    auto client = DaemonClient::connectUnixSocket(server.config().unix_path);
    ASSERT_TRUE(client.isOk()) << client.status().toString();
    auto stats = client.value().stats();
    ASSERT_TRUE(stats.isOk());
    EXPECT_EQ(stats.value().getIntOr("clients", -1), 1);
    server.stop();
}

/** Sends the stats or shutdown frame @p frame on a raw connection and
 * expects one error frame echoing @p id with @p code; then a stats
 * frame on the same connection is served. */
void
expectControlErrorThenServed(const std::string &frame, std::int64_t id,
                             StatusCode code)
{
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("badctl");
    config.threads = 1;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());
    auto socket = connectUnix(server.config().unix_path);
    ASSERT_TRUE(socket.isOk());
    ASSERT_TRUE(recvFrame(socket.value()).isOk()); // hello
    ASSERT_TRUE(
        sendFrame(socket.value(), parseConfig(frame).value()).isOk());
    auto reply = recvFrame(socket.value());
    ASSERT_TRUE(reply.isOk()) << reply.status().toString();
    EXPECT_EQ(reply.value().getStringOr("type", ""), "error") << frame;
    EXPECT_EQ(reply.value().getIntOr("id", 0), id) << frame;
    EXPECT_EQ(statusFromErrorFrame(reply.value()).code(), code)
        << reply.value().dump(false);
    ASSERT_TRUE(sendFrame(socket.value(), statsRequestFrame(9)).isOk());
    auto served = recvFrame(socket.value());
    ASSERT_TRUE(served.isOk()) << served.status().toString();
    EXPECT_EQ(served.value().getStringOr("type", ""), "stats_report");
    EXPECT_EQ(served.value().getIntOr("id", 0), 9);
    server.stop();
}

TEST(DaemonServerTest, StatsFrameWithNegativeIdGetsAnErrorFrame)
{
    expectControlErrorThenServed(R"({"type": "stats", "id": -3})", -3,
                                 StatusCode::kInvalidArgument);
}

TEST(DaemonServerTest, StatsFrameWithStringIdGetsAnErrorFrame)
{
    expectControlErrorThenServed(R"({"type": "stats", "id": "7"})", -1,
                                 StatusCode::kParseError);
}

TEST(DaemonServerTest, StatsFrameWithFractionalIdGetsAnErrorFrame)
{
    expectControlErrorThenServed(R"({"type": "stats", "id": 2.5})", -1,
                                 StatusCode::kParseError);
}

TEST(DaemonServerTest, StatsFrameWithoutIdGetsAnErrorFrame)
{
    expectControlErrorThenServed(R"({"type": "stats"})", -1,
                                 StatusCode::kInvalidArgument);
}

TEST(DaemonServerTest, StatsFrameWithUnknownKeyGetsAnErrorFrame)
{
    expectControlErrorThenServed(R"({"type": "stats", "id": 4, "all": 1})",
                                 4, StatusCode::kInvalidArgument);
}

TEST(DaemonServerTest, ShutdownFrameWithUnknownKeyGetsAnErrorFrame)
{
    // The daemon does not shut down: the next stats frame is served.
    expectControlErrorThenServed(
        R"({"type": "shutdown", "id": 1, "force": true})", 1,
        StatusCode::kInvalidArgument);
}

/** TCP_NODELAY as read back from a connected socket. */
int
noDelayOf(const Socket &socket)
{
    int value = -1;
    socklen_t len = sizeof(value);
    EXPECT_EQ(::getsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &value,
                           &len),
              0);
    return value;
}

TEST(DaemonServerTest, TcpSocketsDisableNagleOnBothEnds)
{
    // Multi-frame replies must not wait for a delayed ACK.
    auto listener = Listener::listenTcp(0);
    ASSERT_TRUE(listener.isOk()) << listener.status().toString();
    auto client =
        connectTcp("127.0.0.1", listener.value().boundPort());
    ASSERT_TRUE(client.isOk()) << client.status().toString();
    auto accepted = listener.value().accept();
    ASSERT_TRUE(accepted.isOk()) << accepted.status().toString();
    EXPECT_NE(noDelayOf(client.value()), 0);
    EXPECT_NE(noDelayOf(accepted.value()), 0);
}

TEST(DaemonServerTest, TunedCompilesShareTheWarmCacheAndSnapshot)
{
    const std::string cache_path =
        uniqueSocketPath("cachefile") + ".kvjson";
    {
        DaemonConfig config;
        config.unix_path = uniqueSocketPath("tune");
        config.threads = 1;
        config.tune_cache_path = cache_path;
        config.snapshot_every = 1;
        DaemonServer server(std::move(config));
        ASSERT_TRUE(server.start().isOk());

        RpcCompileRequest request = toyRequest();
        request.tune = true;
        request.objective = "edp";
        auto client =
            DaemonClient::connectUnixSocket(server.config().unix_path);
        ASSERT_TRUE(client.isOk());
        auto response = client.value().compile(request);
        ASSERT_TRUE(response.isOk()) << response.status().toString();
        EXPECT_GT(server.tuneCache().size(), 0u);
        // snapshot_every=1 persists the cache right after that compile
        // (on the pool thread, after the reply frame — so poll).
        TuneCache reloaded;
        ASSERT_TRUE(eventually([&] {
            return reloaded.loadFromFile(cache_path).isOk();
        }));
        EXPECT_EQ(reloaded.size(), server.tuneCache().size());
        server.stop();
    }
    // A second daemon generation starts warm from the snapshot.
    DaemonConfig config;
    config.unix_path = uniqueSocketPath("tune2");
    config.threads = 1;
    config.tune_cache_path = cache_path;
    DaemonServer server(std::move(config));
    ASSERT_TRUE(server.start().isOk());
    EXPECT_GT(server.tuneCache().size(), 0u);
    server.stop();
    std::remove(cache_path.c_str());
}

} // namespace
} // namespace cimmlc
