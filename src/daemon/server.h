/**
 * @file
 * `cimmlcd` — the compile-as-a-service daemon.
 *
 * A DaemonServer owns:
 *  - one or two Listeners (Unix-domain socket and/or localhost TCP),
 *    each drained by an accept thread that spawns one reader thread
 *    per client connection, joined once the connection is cleaned up;
 *  - a FairScheduler (daemon/scheduler.h) providing admission control
 *    (bounded queue) and round-robin fairness across client
 *    connections, FIFO within one;
 *  - the process ThreadPool the admitted CompileRequests run on
 *    through CompilerSession;
 *  - one warm process-wide TuneCache shared by every tuned request,
 *    optionally loaded from / periodically snapshotted to disk
 *    (atomic temp-file + rename snapshots); and
 *  - one warm process-wide stage-level ArtifactCache (bounded, LRU):
 *    every session keys each stage by its own input hashes, so
 *    repeated traffic replays unchanged stages and a changed request
 *    re-runs only the invalidated stage suffix. Replayed stages are
 *    tagged `"cached": true` in events and reports, and their replay
 *    wall time lands in a separate stats histogram so first-run
 *    timings never pollute the serving latency distribution.
 *
 * Per-stage trace events stream to the client as the session runs
 * (the session observer hook feeds eventFrame); the terminal frame is
 * the full `cimmlc.report.v1` document, byte-identical to what
 * `cimmlc --report json` prints in-process for the same request
 * (timing fields aside). A client that disconnects mid-compile has its
 * queued requests dropped and its running session canceled at the next
 * stage boundary.
 */
#ifndef CIMMLC_DAEMON_SERVER_H
#define CIMMLC_DAEMON_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_cache.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "daemon/protocol.h"
#include "daemon/scheduler.h"
#include "daemon/stats.h"
#include "sched/autotune.h"

namespace cimmlc {

/** Daemon configuration. */
struct DaemonConfig {
    std::string unix_path;  //!< Unix-domain socket path ("" = off)
    int tcp_port = -1;      //!< localhost TCP port (-1 = off, 0 = ephemeral)
    int threads = 0;        //!< compile pool size (0 = hardware concurrency)
    std::int64_t max_inflight = 2;     //!< concurrent compiles
    std::int64_t max_queue_depth = 32; //!< waiting requests, all clients
    std::string tune_cache_path; //!< load at start, snapshot target ("" = off)
    //! snapshot the tune cache every N completed compiles (0 = only at stop)
    std::int64_t snapshot_every = 0;
    //! stage-artifact cache entries before LRU eviction (>= 1)
    std::int64_t cache_capacity = ArtifactCache::kDefaultCapacity;

    Status validate() const;
};

class DaemonServer
{
  public:
    explicit DaemonServer(DaemonConfig config);
    ~DaemonServer();

    DaemonServer(const DaemonServer &) = delete;
    DaemonServer &operator=(const DaemonServer &) = delete;

    /** Binds the listeners and starts the accept/reader threads. */
    Status start();

    /** The TCP port actually bound (after tcp_port = 0); -1 when TCP
     * is off. Valid after start(). */
    int boundTcpPort() const;

    /**
     * Blocks until a client's shutdown request (or requestStop())
     * arrives, then drains in-flight work and returns.
     */
    void serveForever();

    /** Asks serveForever() to return; safe from signal-ish contexts
     * (only sets a flag and closes the listeners). */
    void requestStop();

    /** Stops listeners, joins every thread, drains the pool, and takes
     * a final cache snapshot. Idempotent; the destructor calls it. */
    void stop();

    /** Live scheduler gauges (tests + stats). */
    std::int64_t queueDepth() const;
    std::int64_t inflight() const;

    const DaemonConfig &config() const { return config_; }
    TuneCache &tuneCache() { return tune_cache_; }

    /**
     * Test-only hook, called at the start of every admitted compile
     * job (before the session runs). Lets tests hold a compile
     * in-flight deterministically to exercise admission rejection and
     * cancellation.
     */
    void setCompileHook(std::function<void()> hook);

  private:
    struct Connection;

    void acceptLoop(Listener *listener);
    void readerLoop(std::shared_ptr<Connection> conn);
    void handleCompile(const std::shared_ptr<Connection> &conn,
                       const ConfigValue &doc);
    void pumpScheduler();
    void runCompile(const std::shared_ptr<Connection> &conn,
                    const RpcCompileRequest &request);
    void sendToClient(const std::shared_ptr<Connection> &conn,
                      const ConfigValue &frame);
    void maybeSnapshotCache();
    ConfigValue statsSnapshot();

    DaemonConfig config_;
    Listener unix_listener_;
    Listener tcp_listener_;
    std::vector<std::thread> accept_threads_;

    std::mutex conn_mutex_;
    std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
    //! the live readers, by connection id; stop() joins them
    std::map<std::uint64_t, std::thread> reader_threads_;
    //! the reader that finished last: it cannot join itself, so the
    //! next reader to finish (or stop()) joins it
    std::thread finished_reader_;
    std::uint64_t next_client_id_ = 1;

    mutable std::mutex sched_mutex_;
    FairScheduler scheduler_;

    std::unique_ptr<ThreadPool> pool_;
    TuneCache tune_cache_;
    ArtifactCache artifact_cache_;

    DaemonStats stats_;
    std::atomic<std::int64_t> completed_since_snapshot_{0};

    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stop_requested_ = false;
    std::atomic<bool> stopping_{false};
    bool stopped_ = false;

    std::mutex hook_mutex_;
    std::function<void()> compile_hook_;
};

} // namespace cimmlc

#endif // CIMMLC_DAEMON_SERVER_H
