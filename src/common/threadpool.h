/**
 * @file
 * Thread pool and index fan-out behind the batch sweep, the auto-tuner,
 * the architecture DSE and the compile daemon.
 *
 * Every task is coarse (one CG group of tuner candidates, one whole
 * compile, one DSE evaluation), so one FIFO queue behind one mutex keeps
 * every worker busy on an uneven sweep without per-worker queues.
 *
 * The pool is deliberately free of global state: multiple pools can
 * coexist (tests construct several), and tasks may submit further tasks.
 */
#ifndef CIMMLC_COMMON_THREADPOOL_H
#define CIMMLC_COMMON_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace cimmlc {

/** The most workers a thread count read from outside the program (a
 * --threads flag, a sweep file, a DSE spec, a compile request or a
 * daemon config) may ask for; 0 still asks for one per hardware
 * thread. */
inline constexpr int kMaxThreads = 1024;

/** Fixed-size pool over one FIFO queue; tasks are void() callables. */
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
        workers_.reserve(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Drains outstanding work, then joins the workers. */
    ~ThreadPool()
    {
        wait();
        {
            std::lock_guard<std::mutex> lock(mutex_);
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
        {
            std::lock_guard<std::mutex> lock(mutex_);
            tasks_.push_back(std::move(task));
            ++pending_;
        }
        work_cv_.notify_one();
    }

    /** Blocks until every submitted task (so far, including tasks that
     * tasks submitted) has finished. */
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return pending_ == 0; });
    }

  private:
    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            work_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return;
            std::function<void()> task = std::move(tasks_.front());
            tasks_.pop_front();
            lock.unlock();
            task();
            // The task's captures die before wait() can return.
            task = nullptr;
            lock.lock();
            if (--pending_ == 0)
                done_cv_.notify_all();
        }
    }

    std::mutex mutex_;
    std::deque<std::function<void()>> tasks_; //!< guarded by mutex_
    std::size_t pending_ = 0; //!< queued + running; guarded by mutex_
    bool stop_ = false;       //!< guarded by mutex_
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
};

/**
 * Runs fn(i) for every i in [0, n) per run() call. With 1 thread every
 * index runs inline, in index order, on the calling thread: the
 * reference run the determinism tests compare against, and what a tune
 * nested inside a batch job or a DSE candidate uses. Any other count
 * (0 = one per hardware thread) owns one pool for the object's lifetime
 * and submits one task per index. fn must write only state owned by its
 * index for the result to be independent of the thread count.
 */
class FanOut
{
  public:
    explicit FanOut(int threads)
    {
        if (threads != 1)
            pool_.emplace(threads);
    }

    /** Returns once fn(i) has finished for every i in [0, n). */
    void
    run(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        if (!pool_.has_value()) {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            pool_->submit([&fn, i] { fn(i); });
        pool_->wait();
    }

  private:
    std::optional<ThreadPool> pool_;
};

} // namespace cimmlc

#endif // CIMMLC_COMMON_THREADPOOL_H
