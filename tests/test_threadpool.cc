/**
 * @file
 * Unit tests for the thread pool and the index fan-out behind the
 * batch sweep, the auto-tuner, the architecture DSE and the daemon:
 * completion of every submitted task, wait() semantics, nested
 * submission, a blocked worker not holding up queued work, reuse of
 * one pool across generations of work, and the fan-out's inline
 * 1-thread reference run.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common/threadpool.h"

namespace cimmlc {
namespace {

TEST(ThreadPoolTest, DefaultsToAtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threadCount(), 1);
    ThreadPool one(1);
    EXPECT_EQ(one.threadCount(), 1);
    ThreadPool four(4);
    EXPECT_EQ(four.threadCount(), 4);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, EachTaskRunsExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(256);
    for (auto &hit : hits)
        hit.store(0);
    for (std::size_t i = 0; i < hits.size(); ++i)
        pool.submit([&hits, i] { hits[i].fetch_add(1); });
    pool.wait();
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoWorkReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();
    pool.wait();
    SUCCEED();
}

TEST(ThreadPoolTest, PoolIsReusableAcrossGenerations)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 50);
    }
}

TEST(ThreadPoolTest, TasksMaySubmitFurtherTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &count] {
            count.fetch_add(1);
            for (int j = 0; j < 4; ++j)
                pool.submit([&count] { count.fetch_add(1); });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 8 + 8 * 4);
}

TEST(ThreadPoolTest, BlockedWorkerDoesNotHoldUpQueuedWork)
{
    // A blocker pins one worker and returns only once the 64 short tasks
    // submitted after it have run, so the other workers must run all of
    // them while it is blocked (an uneven sweep: one long compile next
    // to many short ones).
    std::mutex mutex;
    std::condition_variable cv;
    bool blocker_running = false;
    int done = 0;
    bool drained_while_blocked = false;
    ThreadPool pool(4);
    pool.submit([&] {
        std::unique_lock<std::mutex> lock(mutex);
        blocker_running = true;
        cv.notify_all();
        drained_while_blocked = cv.wait_for(
            lock, std::chrono::seconds(30), [&] { return done == 64; });
    });
    {
        std::unique_lock<std::mutex> lock(mutex);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return blocker_running; }));
    }
    for (int i = 0; i < 64; ++i) {
        pool.submit([&] {
            std::lock_guard<std::mutex> lock(mutex);
            ++done;
            cv.notify_all();
        });
    }
    pool.wait();
    EXPECT_EQ(done, 64);
    EXPECT_TRUE(drained_while_blocked)
        << "queued work waited for the blocked worker";
}

TEST(ThreadPoolTest, DestructorDrainsQueuedWork)
{
    // The daemon relies on this for shutdown: work still queued when
    // the pool dies must run to completion, not be dropped.
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
                count.fetch_add(1);
            });
        }
        // No wait(): destruction races a mostly-full queue.
    }
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsNestedSubmissions)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 8; ++i) {
            pool.submit([&pool, &count] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                count.fetch_add(1);
                pool.submit([&count] { count.fetch_add(1); });
            });
        }
    }
    EXPECT_EQ(count.load(), 8 * 2);
}

TEST(ThreadPoolTest, WaitThenDestructionIsQuiescent)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 64; ++i)
            pool.submit([&count] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), 64);
        // Nothing left: the destructor must not hang on an idle pool.
    }
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, SingleThreadPoolCompletesEverything)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::mutex order_mutex;
    for (int i = 0; i < 16; ++i) {
        pool.submit([&order, &order_mutex, i] {
            std::lock_guard<std::mutex> lock(order_mutex);
            order.push_back(i);
        });
    }
    pool.wait();
    ASSERT_EQ(order.size(), 16u);
}

TEST(FanOutTest, OneThreadRunsInlineInIndexOrder)
{
    FanOut fan_out(1);
    std::vector<std::size_t> order;
    bool on_caller = true;
    const std::thread::id caller = std::this_thread::get_id();
    fan_out.run(16, [&](std::size_t i) {
        order.push_back(i);
        on_caller = on_caller && std::this_thread::get_id() == caller;
    });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_TRUE(on_caller);
}

TEST(FanOutTest, EachIndexRunsOnceBeforeRunReturns)
{
    // One object fans out several times over its one pool, as the
    // tuner's budget waves and the DSE's halving rungs do. Every slot is
    // a plain int: a run() that returned before a slow index finished
    // would read 0 there (and race under TSan).
    FanOut fan_out(4);
    for (int round = 1; round <= 3; ++round) {
        std::vector<int> hits(64, 0);
        fan_out.run(hits.size(), [&hits](std::size_t i) {
            if (i % 16 == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++hits[i];
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i], 1) << "round " << round << " index " << i;
    }
    fan_out.run(0, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(FanOutTest, OneThreadFanOutNestsInsidePoolTask)
{
    // A tune (1 thread) inside a batch job or a DSE candidate, which
    // run as tasks of the sweep's own fan-out.
    std::vector<int> inner_runs(8, 0);
    FanOut(4).run(inner_runs.size(), [&inner_runs](std::size_t job) {
        FanOut(1).run(5, [&](std::size_t) { ++inner_runs[job]; });
    });
    for (int runs : inner_runs)
        EXPECT_EQ(runs, 5);
}

} // namespace
} // namespace cimmlc
