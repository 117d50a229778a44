/**
 * @file
 * Unit tests for the daemon's policy layer, isolated from sockets and
 * threads: FairScheduler admission control and round-robin fairness,
 * LatencyHistogram quantiles, and the `cimmlc.rpc.v1` frame vocabulary
 * (pinned dumps, parse round-trips, unknown- and mistyped-key
 * rejection, and a mutation fuzz).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "daemon/protocol.h"
#include "daemon/scheduler.h"
#include "daemon/stats.h"
#include "fuzz_mutate.h"

namespace cimmlc {
namespace {

SchedulerJob
job(std::uint64_t client, std::int64_t id)
{
    SchedulerJob j;
    j.client = client;
    j.request_id = id;
    j.run = [] {};
    return j;
}

/** Drains the scheduler, returning jobs as "client:id" strings. */
std::vector<std::string>
drain(FairScheduler &sched)
{
    std::vector<std::string> order;
    for (;;) {
        auto next = sched.next();
        if (!next.has_value())
            break;
        order.push_back(std::to_string(next->client) + ":"
                        + std::to_string(next->request_id));
        sched.finish();
    }
    return order;
}

TEST(FairSchedulerTest, RejectsWhenQueueFull)
{
    SchedulerLimits limits;
    limits.max_queue_depth = 2;
    FairScheduler sched(limits);
    EXPECT_TRUE(sched.admit(job(1, 1)).isOk());
    EXPECT_TRUE(sched.admit(job(1, 2)).isOk());
    const Status rejected = sched.admit(job(1, 3));
    EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(sched.queueDepth(), 2);

    // Dispatching frees queue space: in-flight does not count.
    ASSERT_TRUE(sched.next().has_value());
    EXPECT_TRUE(sched.admit(job(1, 3)).isOk());
}

TEST(FairSchedulerTest, InflightLimitGatesDispatch)
{
    SchedulerLimits limits;
    limits.max_inflight = 1;
    FairScheduler sched(limits);
    ASSERT_TRUE(sched.admit(job(1, 1)).isOk());
    ASSERT_TRUE(sched.admit(job(1, 2)).isOk());

    ASSERT_TRUE(sched.next().has_value());
    EXPECT_EQ(sched.inflight(), 1);
    EXPECT_FALSE(sched.next().has_value()); // at the limit
    sched.finish();
    EXPECT_TRUE(sched.next().has_value());
}

TEST(FairSchedulerTest, FifoWithinOneClient)
{
    FairScheduler sched({/*max_inflight=*/4, /*max_queue_depth=*/32});
    for (std::int64_t id = 1; id <= 5; ++id)
        ASSERT_TRUE(sched.admit(job(7, id)).isOk());
    EXPECT_EQ(drain(sched),
              (std::vector<std::string>{"7:1", "7:2", "7:3", "7:4",
                                        "7:5"}));
}

TEST(FairSchedulerTest, RoundRobinAcrossClients)
{
    // Client 1 queues three jobs before client 2's arrive; round-robin
    // still alternates instead of draining client 1 first.
    FairScheduler sched({/*max_inflight=*/1, /*max_queue_depth=*/32});
    for (std::int64_t id = 1; id <= 3; ++id)
        ASSERT_TRUE(sched.admit(job(1, id)).isOk());
    for (std::int64_t id = 1; id <= 3; ++id)
        ASSERT_TRUE(sched.admit(job(2, id)).isOk());
    EXPECT_EQ(drain(sched),
              (std::vector<std::string>{"1:1", "2:1", "1:2", "2:2",
                                        "1:3", "2:3"}));
}

TEST(FairSchedulerTest, LateJoinerIsNotStarved)
{
    FairScheduler sched({/*max_inflight=*/1, /*max_queue_depth=*/32});
    for (std::int64_t id = 1; id <= 8; ++id)
        ASSERT_TRUE(sched.admit(job(1, id)).isOk());
    // One of client 1's jobs dispatches, then client 2 shows up.
    auto first = sched.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->client, 1u);
    ASSERT_TRUE(sched.admit(job(2, 1)).isOk());
    sched.finish();
    // Client 1's new turn runs one job, then client 2's — the joiner
    // waits a bounded single turn, not for client 1's backlog.
    std::vector<std::string> order = drain(sched);
    ASSERT_GE(order.size(), 2u);
    EXPECT_EQ(order[0], "1:2");
    EXPECT_EQ(order[1], "2:1");
}

TEST(FairSchedulerTest, DropClientDiscardsOnlyItsQueuedJobs)
{
    FairScheduler sched({/*max_inflight=*/1, /*max_queue_depth=*/32});
    for (std::int64_t id = 1; id <= 3; ++id)
        ASSERT_TRUE(sched.admit(job(1, id)).isOk());
    ASSERT_TRUE(sched.admit(job(2, 1)).isOk());

    // Client 1's first job is already in flight when it disconnects:
    // only its *queued* jobs come back.
    ASSERT_TRUE(sched.next().has_value());
    std::vector<SchedulerJob> dropped = sched.dropClient(1);
    ASSERT_EQ(dropped.size(), 2u);
    EXPECT_EQ(dropped[0].request_id, 2);
    EXPECT_EQ(dropped[1].request_id, 3);
    EXPECT_EQ(sched.clientCount(), 1);
    sched.finish();
    EXPECT_EQ(drain(sched), (std::vector<std::string>{"2:1"}));
}

// ----- LatencyHistogram -----------------------------------------------------

TEST(LatencyHistogramTest, EmptyHistogramReportsZero)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.count(), 0);
    EXPECT_EQ(hist.quantileMs(0.5), 0.0);
    EXPECT_EQ(hist.quantileMs(0.99), 0.0);
}

TEST(LatencyHistogramTest, QuantilesAreConservativeUpperBounds)
{
    LatencyHistogram hist;
    for (int i = 0; i < 99; ++i)
        hist.record(0.5); // bucket 0: < 1 ms
    hist.record(100.0);   // one outlier
    EXPECT_EQ(hist.count(), 100);
    // p50 falls in the sub-millisecond bucket -> upper bound 1 ms.
    EXPECT_LE(hist.quantileMs(0.5), 1.0);
    // p99 must not under-report the outlier's bucket, and never
    // exceeds the observed max.
    EXPECT_GE(hist.quantileMs(0.995), 100.0 * 0.5);
    EXPECT_LE(hist.quantileMs(0.995), hist.maxMs());
    EXPECT_DOUBLE_EQ(hist.maxMs(), 100.0);
}

TEST(LatencyHistogramTest, ConfigCarriesSummaryFields)
{
    LatencyHistogram hist;
    hist.record(2.0);
    hist.record(4.0);
    const ConfigValue doc = hist.toConfig();
    EXPECT_EQ(doc.getIntOr("count", 0), 2);
    EXPECT_DOUBLE_EQ(doc.getNumberOr("total_ms", 0.0), 6.0);
    EXPECT_DOUBLE_EQ(doc.getNumberOr("mean_ms", 0.0), 3.0);
    EXPECT_TRUE(doc.has("p50_ms"));
    EXPECT_TRUE(doc.has("p99_ms"));
    EXPECT_TRUE(doc.has("buckets"));
}

// ----- protocol -------------------------------------------------------------

TEST(RpcProtocolTest, CompileFrameRoundTrips)
{
    RpcCompileRequest request;
    request.id = 42;
    request.model = "lenet5";
    request.arch = "tutorial";
    request.opt = "cg+mvm";
    request.tune = true;
    request.objective = "edp";
    request.search_budget = 16;
    request.perf_engine = "event";
    request.lint = true;
    request.lint_strict = true;
    request.verify = true;

    auto parsed = parseCompileFrame(request.toConfig());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().toConfig().dump(),
              request.toConfig().dump());
}

/** A request with every field away from its default. */
RpcCompileRequest
everyFieldSet()
{
    RpcCompileRequest request;
    request.id = 7;
    request.model = "lenet5";
    request.model_text = "{\"name\": \"g\"}";
    request.arch = "jain";
    request.arch_text = "{\"name\": \"a\"}";
    request.opt = "cg";
    request.dual_mode = true;
    request.host_offload = true;
    request.tune = true;
    request.objective = "energy";
    request.search_budget = 5;
    request.perf_engine = "event";
    request.lint = true;
    request.lint_strict = true;
    request.verify = true;
    return request;
}

const char *const kDefaultFrame =
    R"({"arch":"","arch_text":"","dual_mode":false,"host_offload":false,)"
    R"("id":0,"lint":false,"lint_strict":false,"model":"","model_text":"",)"
    R"("objective":"latency","opt":"full","perf_engine":"closed_form",)"
    R"("search_budget":-1,"tune":false,"type":"compile","verify":false})";
const char *const kEveryFieldFrame =
    R"({"arch":"jain","arch_text":"{\"name\": \"a\"}","dual_mode":true,)"
    R"("host_offload":true,"id":7,"lint":true,"lint_strict":true,)"
    R"("model":"lenet5","model_text":"{\"name\": \"g\"}",)"
    R"("objective":"energy","opt":"cg","perf_engine":"event",)"
    R"("search_budget":5,"tune":true,"type":"compile","verify":true})";

// The compact dump is the wire form, so its keys, types and defaults
// are pinned byte for byte.
TEST(RpcProtocolTest, CompileFrameDumpIsPinned)
{
    EXPECT_EQ(RpcCompileRequest{}.toConfig().dump(false), kDefaultFrame);
    EXPECT_EQ(everyFieldSet().toConfig().dump(false), kEveryFieldFrame);
}

TEST(RpcProtocolTest, UnknownKeysAreRejectedAsSkew)
{
    RpcCompileRequest request;
    request.id = 1;
    request.model = "mlp";
    ConfigValue::Object doc = request.toConfig().asObject();
    doc["quantum_mode"] = ConfigValue::makeBool(true);
    auto parsed = parseCompileFrame(ConfigValue::makeObject(doc));
    ASSERT_FALSE(parsed.isOk());
    EXPECT_NE(parsed.status().message().find("quantum_mode"),
              std::string::npos);
}

TEST(RpcProtocolTest, ErrorFrameRoundTripsStatus)
{
    const Status original(StatusCode::kResourceExhausted,
                          "admission rejected: queue full");
    const Status decoded = statusFromErrorFrame(errorFrame(7, original));
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
}

TEST(RpcProtocolTest, HelloFrameCarriesSchemaAndVersion)
{
    const ConfigValue hello = helloFrame(4, 64);
    EXPECT_EQ(hello.getStringOr("type", ""), "hello");
    EXPECT_EQ(hello.getStringOr("schema", ""), kRpcSchema);
    EXPECT_FALSE(hello.getStringOr("compiler_version", "").empty());
    EXPECT_EQ(hello.getIntOr("max_inflight", 0), 4);
    EXPECT_EQ(hello.getIntOr("max_queue_depth", 0), 64);
}

TEST(RpcProtocolTest, CompileRequestMapsOntoSession)
{
    RpcCompileRequest request;
    request.model = "conv_relu_toy";
    request.arch = "tutorial";
    request.tune = true;
    TuneCache cache;
    auto mapped = request.toCompileRequest(&cache);
    ASSERT_TRUE(mapped.isOk()) << mapped.status().toString();
    EXPECT_EQ(mapped.value().model, "conv_relu_toy");
    EXPECT_TRUE(mapped.value().tune);
    EXPECT_EQ(mapped.value().tune_cache, &cache);
    // Daemon concurrency comes from many sessions, not from
    // oversubscribing one tuner.
    EXPECT_EQ(mapped.value().threads, 1);
}

TEST(RpcProtocolTest, BadEnumValuesFailMapping)
{
    RpcCompileRequest request;
    request.model = "mlp";
    request.opt = "turbo";
    EXPECT_FALSE(request.toCompileRequest(nullptr).isOk());

    request.opt = "full";
    request.perf_engine = "analytic";
    EXPECT_FALSE(request.toCompileRequest(nullptr).isOk());
}

/** parseCompileFrame over @p json; the status message when it fails. */
std::string
frameError(const std::string &json)
{
    auto doc = parseConfig(json);
    EXPECT_TRUE(doc.isOk()) << json;
    auto parsed = parseCompileFrame(doc.value());
    return parsed.isOk() ? "" : parsed.status().message();
}

TEST(RpcProtocolTest, MistypedKeysAreRejectedNotDefaulted)
{
    // Each of these used to parse with the key at its default.
    for (const char *json :
         {R"({"type":"compile","id":1,"lint":"true"})",
          R"({"type":"compile","id":1,"search_budget":"5"})",
          R"({"type":"compile","id":1,"tune":1})",
          R"({"type":"compile","id":1,"verify":"yes"})",
          R"({"type":"compile","id":1,"opt":3})",
          R"({"type":"compile","id":1,"perf_engine":true})",
          R"({"type":"compile","id":1,"model":null})"}) {
        const std::string error = frameError(json);
        EXPECT_NE(error.find("compile frame key '"), std::string::npos)
            << json << ": " << error;
        EXPECT_NE(error.find("' must be "), std::string::npos) << json;
    }
    EXPECT_EQ(frameError(R"({"id":1,"lint":"true"})"),
              "compile frame key 'lint' must be a bool");
    // The one typed reader's code, as for every other document.
    EXPECT_EQ(parseCompileFrame(
                  parseConfig(R"({"id":1,"lint":"true"})").value())
                  .status()
                  .code(),
              StatusCode::kParseError);
    EXPECT_EQ(frameError(R"({"id":1,"opt":3})"),
              "compile frame key 'opt' must be a string");
}

TEST(RpcProtocolTest, IntegerKeysMustBeIntegralAndInRange)
{
    for (const char *json :
         {R"({"id":3.9})", R"({"id":1,"search_budget":2.75})",
          R"({"id":1,"search_budget":1e300})",
          R"({"id":1,"search_budget":-1e300})",
          R"({"id":9223372036854775808})", R"({"id":1e19})"}) {
        EXPECT_NE(frameError(json).find("must be an integer in int64 range"),
                  std::string::npos)
            << json;
    }
    EXPECT_EQ(frameError(R"({"id":3.9})"),
              "compile frame key 'id' must be an integer in int64 range");

    // The edges of int64 that a double holds exactly still parse.
    auto parsed = parseCompileFrame(
        parseConfig(R"({"id":0,"search_budget":-9223372036854775808})")
            .value());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().search_budget, INT64_MIN);
    parsed = parseCompileFrame(
        parseConfig(R"({"id":4611686018427387904,"search_budget":2})")
            .value());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().id, 4611686018427387904);
    EXPECT_EQ(parsed.value().search_budget, 2);
}

TEST(RpcProtocolTest, LintStrictImpliesLint)
{
    // As --lint-strict and a sweep file's "lint_strict" do.
    RpcCompileRequest request;
    request.model = "mlp";
    request.lint_strict = true;
    auto mapped = request.toCompileRequest(nullptr);
    ASSERT_TRUE(mapped.isOk()) << mapped.status().toString();
    EXPECT_TRUE(mapped.value().lint);
    EXPECT_TRUE(mapped.value().lint_strict);

    // CompileRequest::validate keeps its check for programmatic callers.
    CompileRequest direct;
    direct.model = "mlp";
    direct.lint_strict = true;
    EXPECT_FALSE(direct.validate().isOk());
}

// Mutated frames must yield a Status or a request whose canonical dump
// survives toConfig -> parseCompileFrame -> toConfig unchanged.
TEST(RpcProtocolTest, MutatedFramesErrorOrRoundTrip)
{
    Rng rng(0xF4A3E5ull);
    int parsed = 0;
    for (const char *seed : {kDefaultFrame, kEveryFieldFrame}) {
        for (int round = 0; round < 2000; ++round) {
            const std::string text = mutate(seed, rng);
            auto doc = parseConfig(text);
            if (!doc.isOk())
                continue;
            auto first = parseCompileFrame(doc.value());
            if (!first.isOk()) {
                EXPECT_FALSE(first.status().message().empty()) << text;
                continue;
            }
            ++parsed;
            const std::string dump = first.value().toConfig().dump(false);
            auto second = parseCompileFrame(first.value().toConfig());
            ASSERT_TRUE(second.isOk())
                << text << ": " << second.status().toString();
            EXPECT_EQ(second.value().toConfig().dump(false), dump) << text;
        }
    }
    // Enough mutants parse for the round trip to be exercised.
    EXPECT_GT(parsed, 100);
}

} // namespace
} // namespace cimmlc
