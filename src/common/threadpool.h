/**
 * @file
 * Work-stealing thread pool used by the batch compilation driver.
 *
 * Each worker owns a deque: it pushes/pops its own work LIFO (cache-warm)
 * and steals FIFO from a victim when its deque runs dry, so an uneven
 * sweep (ResNet101 next to a toy net) still keeps every core busy.
 * Submission round-robins across worker deques to seed the pool.
 *
 * The pool is deliberately free of global state: multiple pools can
 * coexist (tests construct several), and tasks may submit further tasks.
 */
#ifndef CIMMLC_COMMON_THREADPOOL_H
#define CIMMLC_COMMON_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace cimmlc {

/** The most workers a thread count read from outside the program (a
 * --threads flag, a sweep file, a DSE spec, a compile request or a
 * daemon config) may ask for; 0 still asks for one per hardware
 * thread. */
inline constexpr int kMaxThreads = 1024;

/** Fixed-size work-stealing pool; tasks are void() callables. */
class ThreadPool
{
  public:
    /**
     * Spawns @p threads workers; 0 means one per hardware thread
     * (at least 1).
     */
    explicit ThreadPool(int threads = 0)
    {
        int n = threads > 0
                    ? threads
                    : static_cast<int>(std::thread::hardware_concurrency());
        if (n < 1)
            n = 1;
        queues_.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            queues_.push_back(std::make_unique<WorkerQueue>());
        workers_.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            workers_.emplace_back(
                [this, i] { workerLoop(static_cast<std::size_t>(i)); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Drains outstanding work, then joins the workers. */
    ~ThreadPool()
    {
        wait();
        {
            std::lock_guard<std::mutex> lock(work_mutex_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (std::thread &worker : workers_)
            worker.join();
    }

    /** Number of worker threads. */
    int
    threadCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /** Enqueues @p task; never blocks on task execution. */
    void
    submit(std::function<void()> task)
    {
        pending_.fetch_add(1, std::memory_order_relaxed);
        const std::size_t slot =
            next_queue_.fetch_add(1, std::memory_order_relaxed)
            % queues_.size();
        {
            std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
            queues_[slot]->tasks.push_back(std::move(task));
        }
        // Empty critical section: serializes with workers evaluating the
        // sleep predicate so the notify below cannot be lost.
        { std::lock_guard<std::mutex> lock(work_mutex_); }
        work_cv_.notify_one();
    }

    /** Blocks until every submitted task (so far) has finished. */
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(done_mutex_);
        done_cv_.wait(lock, [this] {
            return pending_.load(std::memory_order_acquire) == 0;
        });
    }

  private:
    struct WorkerQueue {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    bool
    tryPop(std::size_t self, std::function<void()> &out)
    {
        {
            WorkerQueue &own = *queues_[self];
            std::lock_guard<std::mutex> lock(own.mutex);
            if (!own.tasks.empty()) {
                out = std::move(own.tasks.back());
                own.tasks.pop_back();
                return true;
            }
        }
        for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
            WorkerQueue &victim =
                *queues_[(self + offset) % queues_.size()];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                out = std::move(victim.tasks.front());
                victim.tasks.pop_front();
                return true;
            }
        }
        return false;
    }

    bool
    anyQueued()
    {
        for (const auto &queue : queues_) {
            std::lock_guard<std::mutex> lock(queue->mutex);
            if (!queue->tasks.empty())
                return true;
        }
        return false;
    }

    void
    workerLoop(std::size_t self)
    {
        std::function<void()> task;
        for (;;) {
            if (tryPop(self, task)) {
                task();
                task = nullptr;
                if (pending_.fetch_sub(1, std::memory_order_acq_rel)
                    == 1) {
                    std::lock_guard<std::mutex> lock(done_mutex_);
                    done_cv_.notify_all();
                }
                continue;
            }
            std::unique_lock<std::mutex> lock(work_mutex_);
            work_cv_.wait(lock, [this] { return stop_ || anyQueued(); });
            if (stop_ && !anyQueued())
                return;
        }
    }

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;
    std::atomic<std::size_t> next_queue_{0};
    std::atomic<std::int64_t> pending_{0};

    std::mutex work_mutex_;
    std::condition_variable work_cv_;
    bool stop_ = false;

    std::mutex done_mutex_;
    std::condition_variable done_cv_;
};

} // namespace cimmlc

#endif // CIMMLC_COMMON_THREADPOOL_H
