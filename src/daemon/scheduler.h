/**
 * @file
 * Admission control and per-client fair queuing for the compile
 * daemon — pure data-structure logic (no threads, no sockets) so the
 * policy is unit-testable in isolation. The server serializes access
 * under its own mutex.
 *
 * Policy:
 *  - Admission: a request is rejected (kResourceExhausted) when the
 *    number of waiting requests has reached max_queue_depth. In-flight
 *    requests do not count against the queue.
 *  - Dispatch: at most max_inflight requests run at once. The next
 *    request is chosen by round-robin across clients with pending
 *    work — one request per client per turn — and FIFO within one
 *    client, so one chatty client cannot starve the rest (the
 *    cmb-style event-queue idiom from the related CIM simulator repos,
 *    specialized to request serving).
 */
#ifndef CIMMLC_DAEMON_SCHEDULER_H
#define CIMMLC_DAEMON_SCHEDULER_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/status.h"

namespace cimmlc {

/** One queued unit of work. */
struct SchedulerJob {
    std::uint64_t client = 0;   //!< connection identity
    std::int64_t request_id = 0; //!< rpc id (diagnostics only)
    std::function<void()> run;  //!< executed by the server on the pool
};

/** Admission + fairness policy knobs. */
struct SchedulerLimits {
    std::int64_t max_inflight = 2;    //!< concurrent compiles
    std::int64_t max_queue_depth = 32; //!< waiting requests, all clients
};

class FairScheduler
{
  public:
    explicit FairScheduler(SchedulerLimits limits = {});

    /**
     * Admits @p job into @p client's FIFO or rejects it with
     * kResourceExhausted when the global queue is full.
     */
    Status admit(SchedulerJob job);

    /**
     * Picks the next runnable job under the in-flight limit, advancing
     * the round-robin cursor. Returns nullopt when nothing is
     * runnable (queue empty or in-flight at the limit). The caller owns
     * the returned job and MUST pair it with finish().
     */
    std::optional<SchedulerJob> next();

    /** Marks one dispatched job complete, freeing its in-flight slot. */
    void finish();

    /**
     * Drops @p client: its queued (not yet dispatched) jobs are
     * discarded and returned so the caller can account for them.
     * In-flight jobs are unaffected (the server cancels those through
     * the session cancel hook).
     */
    std::vector<SchedulerJob> dropClient(std::uint64_t client);

    std::int64_t queueDepth() const { return queued_; }
    std::int64_t inflight() const { return inflight_; }
    std::int64_t clientCount() const
    {
        return static_cast<std::int64_t>(clients_.size());
    }
    const SchedulerLimits &limits() const { return limits_; }

  private:
    SchedulerLimits limits_;
    //! each client's FIFO of queued jobs
    std::map<std::uint64_t, std::deque<SchedulerJob>> clients_;
    //! round-robin order: clients that currently have pending jobs
    std::deque<std::uint64_t> rr_;
    std::int64_t queued_ = 0;
    std::int64_t inflight_ = 0;
};

} // namespace cimmlc

#endif // CIMMLC_DAEMON_SCHEDULER_H
