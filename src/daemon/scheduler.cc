#include "daemon/scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strutil.h"

namespace cimmlc {

FairScheduler::FairScheduler(SchedulerLimits limits) : limits_(limits)
{
    limits_.max_inflight = std::max<std::int64_t>(1, limits_.max_inflight);
    limits_.max_queue_depth =
        std::max<std::int64_t>(0, limits_.max_queue_depth);
}

Status
FairScheduler::admit(SchedulerJob job)
{
    if (queued_ >= limits_.max_queue_depth)
        return resourceExhausted(strformat(
            "admission rejected: queue full (%lld waiting, limit %lld)",
            static_cast<long long>(queued_),
            static_cast<long long>(limits_.max_queue_depth)));
    std::deque<SchedulerJob> &queue = clients_[job.client];
    const bool was_idle = queue.empty();
    queue.push_back(std::move(job));
    ++queued_;
    if (was_idle)
        rr_.push_back(queue.back().client);
    return Status::ok();
}

std::optional<SchedulerJob>
FairScheduler::next()
{
    if (inflight_ >= limits_.max_inflight || rr_.empty())
        return std::nullopt;
    // The head client dispatches one job, then rotates to the back
    // while it still has work.
    const std::uint64_t client = rr_.front();
    rr_.pop_front();
    auto it = clients_.find(client);
    CIMMLC_CHECK(it != clients_.end());
    std::deque<SchedulerJob> &queue = it->second;
    CIMMLC_CHECK(!queue.empty());

    SchedulerJob job = std::move(queue.front());
    queue.pop_front();
    --queued_;
    ++inflight_;
    if (!queue.empty())
        rr_.push_back(client);
    return job;
}

void
FairScheduler::finish()
{
    CIMMLC_CHECK_GT(inflight_, 0);
    --inflight_;
}

std::vector<SchedulerJob>
FairScheduler::dropClient(std::uint64_t client)
{
    std::vector<SchedulerJob> dropped;
    auto it = clients_.find(client);
    if (it == clients_.end())
        return dropped;
    for (SchedulerJob &job : it->second)
        dropped.push_back(std::move(job));
    queued_ -= static_cast<std::int64_t>(dropped.size());
    clients_.erase(it);
    rr_.erase(std::remove(rr_.begin(), rr_.end(), client), rr_.end());
    return dropped;
}

} // namespace cimmlc
