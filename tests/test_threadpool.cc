/**
 * @file
 * Unit tests for the work-stealing thread pool behind the batch
 * compilation driver: completion of every submitted task, wait()
 * semantics, nested submission, load imbalance (stealing), and reuse
 * of one pool across generations of work.
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

TEST(ThreadPoolTest, UnevenWorkIsStolenAcrossWorkers)
{
    // A blocker pins one worker. Round-robin submission then seeds 16 of
    // the 64 short tasks into the pinned worker's own deque, and the
    // blocker returns only once all 64 have run, so the other workers
    // must steal them. Which workers ran the tasks proves nothing: one
    // worker draining all 64 is itself stealing.
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
        << "the blocked worker's deque was not stolen from";
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

} // namespace
} // namespace cimmlc
