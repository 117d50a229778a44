#include "daemon/server.h"

#include <chrono>
#include <cstdio>

#include "common/strutil.h"
#include "common/threadpool.h"
#include "compiler/session.h"

namespace cimmlc {

// ----- DaemonConfig ---------------------------------------------------------

Status
DaemonConfig::validate() const
{
    if (unix_path.empty() && tcp_port < 0)
        return invalidArgument(
            "daemon needs a transport: set unix_path and/or tcp_port");
    if (tcp_port > 65535)
        return invalidArgument(
            strformat("bad tcp_port %d (expected 0..65535)", tcp_port));
    if (threads < 0 || threads > kMaxThreads)
        return invalidArgument(
            strformat("threads must be in [0, %d]", kMaxThreads));
    if (max_inflight < 1)
        return invalidArgument("max_inflight must be >= 1");
    if (max_queue_depth < 0)
        return invalidArgument("max_queue_depth must be >= 0");
    if (snapshot_every < 0)
        return invalidArgument("snapshot_every must be >= 0");
    if (cache_capacity < 1)
        return invalidArgument("cache_capacity must be >= 1");
    return Status::ok();
}

// ----- Connection -----------------------------------------------------------

struct DaemonServer::Connection {
    std::uint64_t id = 0;
    Socket socket;
    //! serializes frame writes: stage events from a pool thread and
    //! replies from the reader thread interleave on one stream
    std::mutex write_mutex;
    //! cleared on disconnect or write failure; in-flight sessions poll
    //! it through the cancel hook
    std::atomic<bool> alive{true};
};

DaemonServer::DaemonServer(DaemonConfig config)
    : config_(std::move(config)),
      scheduler_(SchedulerLimits{config_.max_inflight,
                                 config_.max_queue_depth}),
      artifact_cache_(static_cast<std::size_t>(
          config_.cache_capacity < 1 ? 1 : config_.cache_capacity))
{
}

DaemonServer::~DaemonServer()
{
    stop();
}

Status
DaemonServer::start()
{
    CIMMLC_RETURN_IF_ERROR(config_.validate().withContext("cimmlcd"));
    if (!config_.tune_cache_path.empty()) {
        const Status loaded =
            tune_cache_.loadFromFile(config_.tune_cache_path);
        if (!loaded.isOk()) {
            // Missing/corrupt snapshots degrade to a cold cache; the
            // daemon must come up regardless.
            std::fprintf(stderr,
                         "cimmlcd: %s - starting with a cold tune "
                         "cache\n",
                         loaded.toString().c_str());
        }
    }
    pool_ = std::make_unique<ThreadPool>(config_.threads);
    if (!config_.unix_path.empty()) {
        CIMMLC_ASSIGN_OR_RETURN(unix_listener_,
                                Listener::listenUnix(config_.unix_path));
        accept_threads_.emplace_back(
            [this] { acceptLoop(&unix_listener_); });
    }
    if (config_.tcp_port >= 0) {
        CIMMLC_ASSIGN_OR_RETURN(tcp_listener_,
                                Listener::listenTcp(config_.tcp_port));
        accept_threads_.emplace_back(
            [this] { acceptLoop(&tcp_listener_); });
    }
    return Status::ok();
}

int
DaemonServer::boundTcpPort() const
{
    return tcp_listener_.valid() ? tcp_listener_.boundPort() : -1;
}

void
DaemonServer::serveForever()
{
    std::unique_lock<std::mutex> lock(stop_mutex_);
    stop_cv_.wait(lock, [this] { return stop_requested_; });
    lock.unlock();
    stop();
}

void
DaemonServer::requestStop()
{
    stopping_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        stop_requested_ = true;
    }
    stop_cv_.notify_all();
}

void
DaemonServer::stop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (stopped_)
            return;
        stopped_ = true;
        stop_requested_ = true;
    }
    stop_cv_.notify_all();
    stopping_.store(true, std::memory_order_release);

    // Shutting the listeners down unblocks the accept threads; the
    // descriptors are closed only once no thread can still read them.
    unix_listener_.shutdown();
    tcp_listener_.shutdown();
    for (std::thread &thread : accept_threads_)
        thread.join();
    accept_threads_.clear();
    unix_listener_.close();
    tcp_listener_.close();

    // Shut every connection down (readers unblock from recv and run
    // their normal cleanup: drop queued work, cancel running sessions).
    std::map<std::uint64_t, std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        for (auto &[id, conn] : connections_) {
            conn->alive.store(false, std::memory_order_release);
            conn->socket.shutdownBoth();
        }
        readers.swap(reader_threads_);
    }
    for (auto &[id, thread] : readers)
        thread.join();
    std::thread last;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        last.swap(finished_reader_);
    }
    if (last.joinable())
        last.join();

    // Drain in-flight compiles (canceled ones abort at the next stage
    // boundary) before the pool is torn down.
    if (pool_) {
        pool_->wait();
        pool_.reset();
    }
    if (!config_.tune_cache_path.empty()) {
        const Status saved =
            tune_cache_.saveToFile(config_.tune_cache_path);
        if (!saved.isOk())
            std::fprintf(stderr,
                         "cimmlcd: could not snapshot tune cache: %s\n",
                         saved.toString().c_str());
    }
}

std::int64_t
DaemonServer::queueDepth() const
{
    std::lock_guard<std::mutex> lock(sched_mutex_);
    return scheduler_.queueDepth();
}

std::int64_t
DaemonServer::inflight() const
{
    std::lock_guard<std::mutex> lock(sched_mutex_);
    return scheduler_.inflight();
}

void
DaemonServer::setCompileHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(hook_mutex_);
    compile_hook_ = std::move(hook);
}

// ----- connection handling --------------------------------------------------

void
DaemonServer::acceptLoop(Listener *listener)
{
    for (;;) {
        auto accepted = listener->accept();
        if (!accepted.isOk())
            return; // listener closed: the stop path
        if (stopping_.load(std::memory_order_acquire))
            return; // raced with stop(); drop the late connection
        auto conn = std::make_shared<Connection>();
        conn->socket = std::move(accepted).value();
        std::lock_guard<std::mutex> lock(conn_mutex_);
        conn->id = next_client_id_++;
        connections_[conn->id] = conn;
        reader_threads_.emplace(
            conn->id, std::thread([this, conn] { readerLoop(conn); }));
    }
}

void
DaemonServer::readerLoop(std::shared_ptr<Connection> conn)
{
    sendToClient(conn, helloFrame(config_.max_inflight,
                                  config_.max_queue_depth));
    while (conn->alive.load(std::memory_order_acquire)) {
        auto frame = recvFrame(conn->socket);
        if (!frame.isOk()) {
            // A frame that arrived whole but does not decode gets its
            // status back before the close; a clean close, a peer that
            // hangs up mid-frame, or stop() just frees the slot.
            const StatusCode code = frame.status().code();
            if (code == StatusCode::kParseError ||
                code == StatusCode::kOutOfRange)
                sendToClient(conn, errorFrame(-1, frame.status()));
            break;
        }
        const ConfigValue &doc = frame.value();
        const std::string type = doc.getStringOr("type", "");
        if (type == "compile") {
            handleCompile(conn, doc);
            continue;
        }
        // Stats and shutdown frames follow the compile frame's rules;
        // a bad one gets an error frame and changes nothing.
        const StatusOr<std::int64_t> id =
            type == "stats" || type == "shutdown"
                ? parseControlFrame(doc)
                : invalidArgument("unknown rpc frame type '" + type
                                  + "' (daemon/client version skew?)");
        if (!id.isOk()) {
            sendToClient(conn, errorFrame(echoedFrameId(doc), id.status()));
        } else if (type == "stats") {
            sendToClient(conn, statsReportFrame(id.value(), statsSnapshot()));
        } else {
            sendToClient(conn, byeFrame(id.value()));
            requestStop();
        }
    }
    // Disconnect cleanup: no more writes, queued work dropped, running
    // sessions observe the cancel flag at their next stage boundary.
    conn->alive.store(false, std::memory_order_release);
    std::vector<SchedulerJob> dropped;
    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        dropped = scheduler_.dropClient(conn->id);
    }
    if (!dropped.empty())
        stats_.recordCanceled(static_cast<std::int64_t>(dropped.size()));
    // Hand this thread over to be joined, and join the reader that
    // finished before it, so a long-lived daemon keeps no thread (and
    // no stack) per past connection. A reader stop() already took is
    // joined there.
    std::thread previous;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_.erase(conn->id);
        const auto self = reader_threads_.find(conn->id);
        if (self != reader_threads_.end()) {
            previous.swap(finished_reader_);
            finished_reader_ = std::move(self->second);
            reader_threads_.erase(self);
        }
    }
    if (previous.joinable())
        previous.join();
}

void
DaemonServer::handleCompile(const std::shared_ptr<Connection> &conn,
                            const ConfigValue &doc)
{
    auto parsed = parseCompileFrame(doc);
    if (!parsed.isOk()) {
        // Echo the id when it reads as one, so the client can match
        // the error to its request.
        sendToClient(conn, errorFrame(echoedFrameId(doc), parsed.status()));
        return;
    }
    const RpcCompileRequest request = std::move(parsed).value();

    SchedulerJob job;
    job.client = conn->id;
    job.request_id = request.id;
    job.run = [this, conn, request] { runCompile(conn, request); };
    Status admitted;
    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        admitted = scheduler_.admit(std::move(job));
    }
    if (!admitted.isOk()) {
        stats_.recordRejected();
        sendToClient(conn, errorFrame(request.id, admitted));
        return;
    }
    stats_.recordAdmitted();
    pumpScheduler();
}

void
DaemonServer::pumpScheduler()
{
    for (;;) {
        std::optional<SchedulerJob> job;
        {
            std::lock_guard<std::mutex> lock(sched_mutex_);
            job = scheduler_.next();
        }
        if (!job.has_value())
            return;
        pool_->submit([this, work = std::move(job->run)] {
            work();
            {
                std::lock_guard<std::mutex> lock(sched_mutex_);
                scheduler_.finish();
            }
            // A freed in-flight slot may unblock a queued request.
            pumpScheduler();
        });
    }
}

// ----- compilation ----------------------------------------------------------

void
DaemonServer::runCompile(const std::shared_ptr<Connection> &conn,
                         const RpcCompileRequest &request)
{
    {
        std::function<void()> hook;
        {
            std::lock_guard<std::mutex> lock(hook_mutex_);
            hook = compile_hook_;
        }
        if (hook)
            hook();
    }
    const auto start = std::chrono::steady_clock::now();
    auto elapsed_ms = [&start] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    auto mapped = request.toCompileRequest(&tune_cache_, &artifact_cache_);
    if (!mapped.isOk()) {
        stats_.recordFailed();
        sendToClient(conn, errorFrame(request.id, mapped.status()));
        return;
    }

    CompilerSession session(std::move(mapped).value());
    session.setCancelCheck([conn] {
        return !conn->alive.load(std::memory_order_acquire);
    });
    session.setObserver([this, &conn, &request](
                            const StageTrace &trace,
                            const CompileArtifacts &) {
        // Replays land in a separate histogram so first-run compute
        // timings never mix with (much faster) cache replays.
        stats_.recordStage(compileStageName(trace.stage), trace.wall_ms,
                           trace.cached);
        sendToClient(conn, eventFrame(request.id, trace));
    });

    auto result = session.run();
    if (!result.isOk()) {
        if (result.status().code() == StatusCode::kFailedPrecondition
            && !conn->alive.load(std::memory_order_acquire)) {
            stats_.recordCanceled(1);
        } else {
            stats_.recordFailed();
        }
        sendToClient(conn, errorFrame(request.id, result.status()));
        return;
    }

    // A request is "cached" when every stage past load (which always
    // executes to resolve the cache keys) replayed from the warm
    // stage-artifact cache.
    std::size_t replayable = 0;
    for (const StageTrace &trace : result.value().stages)
        if (trace.stage != CompileStage::kLoad)
            ++replayable;
    const bool fully_replayed =
        replayable > 0
        && CompilerSession::cachedStageCount(result.value()) == replayable;
    stats_.recordMemo(fully_replayed);

    const std::string report =
        result.value().toConfig().dump(/*pretty=*/true);
    stats_.recordCompleted(elapsed_ms());
    sendToClient(conn,
                 reportFrame(request.id, report, fully_replayed));
    // The (possibly disk-touching) snapshot stays after the reply so it
    // never adds to client-observed latency.
    completed_since_snapshot_.fetch_add(1, std::memory_order_acq_rel);
    maybeSnapshotCache();
}

void
DaemonServer::sendToClient(const std::shared_ptr<Connection> &conn,
                           const ConfigValue &frame)
{
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!conn->alive.load(std::memory_order_acquire))
        return;
    const Status sent = sendFrame(conn->socket, frame);
    if (!sent.isOk()) {
        // A dead peer: stop writing and unblock the reader so it runs
        // the disconnect cleanup (which cancels this client's work).
        conn->alive.store(false, std::memory_order_release);
        conn->socket.shutdownBoth();
    }
}

void
DaemonServer::maybeSnapshotCache()
{
    if (config_.tune_cache_path.empty() || config_.snapshot_every <= 0)
        return;
    // Claim a snapshot atomically so concurrent completions cannot
    // write the same generation twice.
    std::int64_t seen =
        completed_since_snapshot_.load(std::memory_order_acquire);
    while (seen >= config_.snapshot_every) {
        if (completed_since_snapshot_.compare_exchange_weak(
                seen, seen - config_.snapshot_every,
                std::memory_order_acq_rel)) {
            const Status saved =
                tune_cache_.saveToFile(config_.tune_cache_path);
            if (!saved.isOk())
                std::fprintf(stderr,
                             "cimmlcd: could not snapshot tune cache: "
                             "%s\n",
                             saved.toString().c_str());
            return;
        }
    }
}

ConfigValue
DaemonServer::statsSnapshot()
{
    std::int64_t queue_depth = 0;
    std::int64_t running = 0;
    {
        std::lock_guard<std::mutex> lock(sched_mutex_);
        queue_depth = scheduler_.queueDepth();
        running = scheduler_.inflight();
    }
    std::int64_t clients = 0;
    {
        std::lock_guard<std::mutex> lock(conn_mutex_);
        clients = static_cast<std::int64_t>(connections_.size());
    }
    return stats_.toConfig(queue_depth, running, clients,
                           static_cast<std::int64_t>(tune_cache_.size()),
                           tune_cache_.hits(),
                           artifact_cache_.toConfig());
}

} // namespace cimmlc
