/**
 * @file
 * Tests for the worker pool: job-count resolution (flag and
 * environment), exactly-once execution over dynamically claimed
 * grains, utilization accounting, exception propagation, and
 * forBands() and forOrderedSlices() over an attached build pool
 * with their inline fallback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/pool.hh"
#include "kernels/dgemm.hh"
#include "kernels/lavamd.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{
namespace
{

TEST(ResolveJobs, ZeroSelectsHardware)
{
    EXPECT_GE(WorkerPool::resolveJobs(0), 1u);
    EXPECT_EQ(WorkerPool::resolveJobs(1), 1u);
    EXPECT_EQ(WorkerPool::resolveJobs(7), 7u);
}

TEST(EnvJobs, ReadsEnvironmentWithFallback)
{
    unsetenv("RADCRIT_JOBS");
    EXPECT_EQ(WorkerPool::envJobs(3), 3u);
    setenv("RADCRIT_JOBS", "6", 1);
    EXPECT_EQ(WorkerPool::envJobs(3), 6u);
    // 0 means "all hardware threads" and resolves immediately.
    setenv("RADCRIT_JOBS", "0", 1);
    EXPECT_EQ(WorkerPool::envJobs(3), WorkerPool::resolveJobs(0));
    setenv("RADCRIT_JOBS", "not-a-number", 1);
    EXPECT_EQ(WorkerPool::envJobs(3), 3u);
    unsetenv("RADCRIT_JOBS");
}

class PoolTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PoolTest, EveryIndexRunsExactlyOnce)
{
    const uint64_t count = 1000;
    WorkerPool pool(GetParam());
    std::vector<std::atomic<int>> hits(count);
    pool.forDynamic(count, 7, [&](unsigned, uint64_t begin,
                                  uint64_t end) {
        for (uint64_t i = begin; i < end; ++i)
            hits[i].fetch_add(1);
    });
    for (uint64_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(JobCounts, PoolTest,
                         ::testing::Values(1u, 2u, 3u, 8u));

TEST(Pool, ZeroCountRunsNothing)
{
    WorkerPool pool(4);
    bool ran = false;
    pool.forDynamic(0, 1,
                    [&](unsigned, uint64_t, uint64_t)
                    { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(Pool, MoreJobsThanItems)
{
    WorkerPool pool(16);
    std::vector<std::atomic<int>> hits(3);
    PoolRunStats stats;
    pool.forDynamic(3, 1, [&](unsigned worker, uint64_t begin,
                              uint64_t end) {
        // Only as many workers as grains take part.
        EXPECT_LT(worker, 3u);
        for (uint64_t i = begin; i < end; ++i)
            hits[i].fetch_add(1);
    }, &stats);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(stats.workers.size(), 3u);
}

TEST(PoolStats, WorkersSizedAndItemsAccounted)
{
    for (unsigned jobs : {1u, 4u}) {
        WorkerPool pool(jobs);
        PoolRunStats stats;
        pool.forDynamic(100, 1, [](unsigned, uint64_t, uint64_t) {},
                        &stats);
        auto workers = static_cast<unsigned>(
            std::min<uint64_t>(pool.jobs(), 100));
        ASSERT_EQ(stats.workers.size(), workers);
        uint64_t items = 0;
        for (const auto &w : stats.workers)
            items += w.items;
        EXPECT_EQ(items, 100u);
        EXPECT_EQ(stats.busyNs() + stats.idleNs(),
                  stats.wallNs * workers);
        EXPECT_GT(stats.utilization(), 0.0);
        EXPECT_LE(stats.utilization(), 1.0);
    }
}

TEST(PoolStats, SerialPathIsFullyUtilized)
{
    WorkerPool pool(1);
    PoolRunStats stats;
    pool.forDynamic(10, 1, [](unsigned, uint64_t, uint64_t) {},
                    &stats);
    ASSERT_EQ(stats.workers.size(), 1u);
    EXPECT_EQ(stats.workers[0].items, 10u);
    EXPECT_EQ(stats.workers[0].chunks, 10u);
    EXPECT_EQ(stats.busyNs(), stats.wallNs);
    EXPECT_EQ(stats.idleNs(), 0u);
    EXPECT_DOUBLE_EQ(stats.utilization(), 1.0);
}

TEST(PoolStats, ZeroCountLeavesStatsEmpty)
{
    WorkerPool pool(4);
    PoolRunStats stats;
    stats.wallNs = 123; // must be reset by forDynamic
    pool.forDynamic(0, 1, [](unsigned, uint64_t, uint64_t) {},
                    &stats);
    EXPECT_TRUE(stats.workers.empty());
    EXPECT_EQ(stats.wallNs, 0u);
    EXPECT_EQ(stats.busyNs(), 0u);
    EXPECT_DOUBLE_EQ(stats.utilization(), 0.0);
}

TEST(Pool, BodyExceptionPropagates)
{
    for (unsigned jobs : {1u, 4u}) {
        WorkerPool pool(jobs);
        // The throw comes from a later grain than the first.
        EXPECT_THROW(
            pool.forDynamic(8, 3,
                            [](unsigned, uint64_t begin, uint64_t) {
                                if (begin == 3)
                                    throw std::runtime_error("boom");
                            }),
            std::runtime_error);
    }
}

TEST(ForDynamic, EveryIndexRunsExactlyOnce)
{
    for (unsigned jobs : {1u, 3u, 8u}) {
        for (uint64_t count : {0u, 1u, 7u, 64u, 1000u}) {
            for (uint64_t grain : {0u, 1u, 3u, 16u, 2000u}) {
                WorkerPool pool(jobs);
                std::vector<std::atomic<int>> hits(count);
                pool.forDynamic(
                    count, grain,
                    [&](unsigned, uint64_t begin, uint64_t end) {
                        for (uint64_t i = begin; i < end; ++i)
                            hits[i].fetch_add(1);
                    });
                for (uint64_t i = 0; i < count; ++i)
                    ASSERT_EQ(hits[i].load(), 1)
                        << "jobs=" << jobs << " count=" << count
                        << " grain=" << grain << " index=" << i;
            }
        }
    }
}

TEST(ForDynamic, ClaimedRangesRespectGrain)
{
    WorkerPool pool(4);
    std::mutex mu;
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    pool.forDynamic(100, 8,
                    [&](unsigned, uint64_t begin, uint64_t end) {
                        std::lock_guard<std::mutex> lock(mu);
                        ranges.emplace_back(begin, end);
                    });
    uint64_t items = 0;
    for (const auto &r : ranges) {
        EXPECT_LT(r.first, r.second);
        EXPECT_LE(r.second - r.first, 8u);
        // Every grain but the last is full-size and starts on a
        // grain boundary (the cursor only hands out whole grains).
        EXPECT_EQ(r.first % 8, 0u);
        items += r.second - r.first;
    }
    EXPECT_EQ(items, 100u);
    EXPECT_EQ(ranges.size(), (100u + 7u) / 8u);
}

TEST(ForDynamic, ChunkStatsCountClaimedGrains)
{
    WorkerPool pool(4);
    PoolRunStats stats;
    pool.forDynamic(100, 8,
                    [](unsigned, uint64_t, uint64_t) {}, &stats);
    uint64_t items = 0;
    uint64_t chunks = 0;
    for (const auto &w : stats.workers) {
        items += w.items;
        chunks += w.chunks;
    }
    EXPECT_EQ(items, 100u);
    EXPECT_EQ(chunks, (100u + 7u) / 8u);
    EXPECT_EQ(stats.busyNs() + stats.idleNs(),
              stats.wallNs * stats.workers.size());
}

TEST(ForDynamic, BodyExceptionPropagatesAndStopsClaims)
{
    for (unsigned jobs : {1u, 4u}) {
        WorkerPool pool(jobs);
        std::atomic<uint64_t> executed{0};
        EXPECT_THROW(
            pool.forDynamic(
                1000, 1,
                [&](unsigned, uint64_t begin, uint64_t) {
                    if (begin == 0)
                        throw std::runtime_error("boom");
                    executed.fetch_add(1);
                }),
            std::runtime_error);
        // The throw fast-forwards the shared cursor: the range is
        // abandoned, not drained.
        EXPECT_LT(executed.load(), 1000u);
    }
}

TEST(PublishPoolStats, EmptyDispatchPublishesNothing)
{
    StatsRegistry reg;
    publishPoolStats(PoolRunStats{}, reg);
    StatsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.find("pool.utilization"), nullptr);
    EXPECT_EQ(snap.find("pool.dispatches"), nullptr);
}

TEST(PublishPoolStats, RealDispatchPublishesBoundedUtilization)
{
    WorkerPool pool(2);
    PoolRunStats stats;
    pool.forDynamic(10, 1,
                    [](unsigned, uint64_t, uint64_t) {}, &stats);
    StatsRegistry reg;
    publishPoolStats(stats, reg);
    StatsSnapshot snap = reg.snapshot();
    ASSERT_NE(snap.find("pool.utilization"), nullptr);
    EXPECT_GE(snap.value("pool.utilization"), 0.0);
    EXPECT_LE(snap.value("pool.utilization"), 1.0);
    EXPECT_EQ(snap.value("pool.dispatches"), 1.0);
    EXPECT_EQ(snap.value("pool.chunks"), 10.0);
}

TEST(PoolStats, EmptyUtilizationIsZeroNotNaN)
{
    PoolRunStats stats;
    EXPECT_DOUBLE_EQ(stats.utilization(), 0.0);
    stats.workers.resize(2); // zero wall: idle pool
    EXPECT_DOUBLE_EQ(stats.utilization(), 0.0);
}

/** The bands one forBands() call hands its body, sorted. */
std::vector<std::pair<uint64_t, uint64_t>>
bandsOf(uint64_t count)
{
    std::mutex mutex;
    std::vector<std::pair<uint64_t, uint64_t>> bands;
    forBands(count, [&](uint64_t begin, uint64_t end) {
        std::lock_guard<std::mutex> lock(mutex);
        bands.emplace_back(begin, end);
    });
    std::sort(bands.begin(), bands.end());
    return bands;
}

TEST(ForBands, InlineSingleBandWithoutAttachedPool)
{
    using Bands = std::vector<std::pair<uint64_t, uint64_t>>;
    EXPECT_EQ(bandsOf(10), (Bands{{0, 10}}));
    EXPECT_TRUE(bandsOf(0).empty());
    WorkerPool serial(1);
    ScopedBuildPool attach(serial);
    EXPECT_EQ(bandsOf(10), (Bands{{0, 10}}));
    EXPECT_EQ(serial.dispatches(), 0u);
}

TEST(ForBands, ContiguousBandsOnePerJob)
{
    using Bands = std::vector<std::pair<uint64_t, uint64_t>>;
    WorkerPool pool(3);
    {
        ScopedBuildPool attach(pool);
        // Uneven: band b of 3 covers [10b/3, 10(b+1)/3).
        EXPECT_EQ(bandsOf(10), (Bands{{0, 3}, {3, 6}, {6, 10}}));
        // Fewer items than jobs: one item per band.
        EXPECT_EQ(bandsOf(2), (Bands{{0, 1}, {1, 2}}));
    }
    EXPECT_EQ(pool.dispatches(), 2u);
    // The attachment ended with its scope.
    EXPECT_EQ(bandsOf(10), (Bands{{0, 10}}));
    EXPECT_EQ(pool.dispatches(), 2u);
}

TEST(ForBands, BodyExceptionPropagates)
{
    WorkerPool pool(4);
    ScopedBuildPool attach(pool);
    EXPECT_THROW(forBands(8,
                          [](uint64_t begin, uint64_t) {
                              if (begin == 4)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
}

TEST(ForBands, BuildInsideAttachedPoolBodyRunsInline)
{
    // forDynamic() is not reentrant. The thread that attached the
    // pool is also worker 0 of that pool's dispatches, so a
    // workload built inside a body on it must band inline instead
    // of dispatching on the pool again (a deadlock would hit the
    // test timeout). The latch makes both workers take one grain
    // each, so worker 0 is certain to build.
    DeviceModel device = makeK40();
    Dgemm dgemm_ref(device, 128);
    LavaMd lava_ref(device, 4);

    WorkerPool pool(2);
    ScopedBuildPool attach(pool);
    std::latch both_in(2);
    std::vector<std::unique_ptr<Dgemm>> dgemms(2);
    std::vector<std::unique_ptr<LavaMd>> lavas(2);
    pool.forDynamic(2, 1, [&](unsigned, uint64_t begin, uint64_t) {
        both_in.arrive_and_wait();
        dgemms[begin] = std::make_unique<Dgemm>(device, 128);
        lavas[begin] = std::make_unique<LavaMd>(device, 4);
    });
    EXPECT_EQ(pool.dispatches(), 1u);
    for (size_t i = 0; i < 2; ++i) {
        ASSERT_TRUE(dgemms[i] && lavas[i]);
        const auto &c = dgemms[i]->goldenC();
        ASSERT_EQ(c.size(), dgemm_ref.goldenC().size());
        EXPECT_EQ(std::memcmp(c.data(), dgemm_ref.goldenC().data(),
                              c.size() * sizeof(double)),
                  0);
        const auto &f = lavas[i]->goldenForce();
        ASSERT_EQ(f.size(), lava_ref.goldenForce().size());
        EXPECT_EQ(std::memcmp(f.data(),
                              lava_ref.goldenForce().data(),
                              f.size() * sizeof(double)),
                  0);
    }
}

/**
 * Slices one forOrderedSlices() call emits, in emit order; each
 * slice's bytes are its index. Every third slice formats slowly,
 * so later slices are often ready before their turn. Fails the
 * test if two emits overlap.
 */
std::vector<uint64_t>
emittedSlices(uint64_t count)
{
    std::vector<uint64_t> order;
    std::atomic<int> emitting{0};
    forOrderedSlices(
        count,
        [](uint64_t index, std::string &out) {
            EXPECT_TRUE(out.empty());
            if (index % 3 == 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            out = std::to_string(index);
        },
        [&](const std::string &bytes) {
            EXPECT_EQ(emitting.fetch_add(1), 0);
            order.push_back(std::stoull(bytes));
            emitting.fetch_sub(1);
        });
    return order;
}

std::vector<uint64_t>
upTo(uint64_t count)
{
    std::vector<uint64_t> indices(count);
    std::iota(indices.begin(), indices.end(), 0);
    return indices;
}

TEST(ForOrderedSlices, EmitsInIndexOrder)
{
    EXPECT_EQ(emittedSlices(40), upTo(40));
    EXPECT_TRUE(emittedSlices(0).empty());
    {
        WorkerPool serial(1);
        ScopedBuildPool attach(serial);
        EXPECT_EQ(emittedSlices(40), upTo(40));
        EXPECT_EQ(serial.dispatches(), 0u);
    }
    WorkerPool pool(4);
    ScopedBuildPool attach(pool);
    EXPECT_EQ(emittedSlices(200), upTo(200));
    EXPECT_EQ(emittedSlices(3), upTo(3));
    EXPECT_EQ(emittedSlices(1), upTo(1));
    // One dispatch per call with more than one slice.
    EXPECT_EQ(pool.dispatches(), 2u);
}

TEST(ForOrderedSlices, SlowSliceDueNextDoesNotStallTheWindow)
{
    // While the slice due next is still being formatted, the other
    // workers go on formatting later slices until the window of
    // 2 * jobs buffers is full, instead of each waiting for that
    // slice after one slice of its own. Slice 0 returns once slices
    // 1..7 were formatted, or after a timeout that fails the test.
    WorkerPool pool(4);
    ScopedBuildPool attach(pool);
    std::mutex mutex;
    std::condition_variable formatted_more;
    uint64_t formatted = 0;
    bool window_filled = false;
    std::vector<uint64_t> order;
    forOrderedSlices(
        40,
        [&](uint64_t index, std::string &out) {
            std::unique_lock<std::mutex> lock(mutex);
            if (index == 0) {
                window_filled = formatted_more.wait_for(
                    lock, std::chrono::seconds(5),
                    [&] { return formatted >= 7; });
            } else {
                ++formatted;
                formatted_more.notify_all();
            }
            out = std::to_string(index);
        },
        [&](const std::string &bytes) {
            order.push_back(std::stoull(bytes));
        });
    EXPECT_TRUE(window_filled);
    EXPECT_EQ(order, upTo(40));
}

TEST(ForOrderedSlices, ExceptionStopsClaimsAndWakesWaiters)
{
    WorkerPool pool(4);
    ScopedBuildPool attach(pool);
    for (uint64_t bad : {0u, 5u, 39u}) {
        std::vector<uint64_t> order;
        // The failing slice formats last, so the other workers
        // have filled the window and wait for a free buffer when
        // it throws; a waiter left asleep would hang the test.
        EXPECT_THROW(
            forOrderedSlices(
                40,
                [&](uint64_t index, std::string &out) {
                    if (index == bad) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        throw std::runtime_error("format");
                    }
                    out = std::to_string(index);
                },
                [&](const std::string &bytes) {
                    order.push_back(std::stoull(bytes));
                }),
            std::runtime_error);
        // Nothing at or after the failing slice was emitted.
        EXPECT_EQ(order, upTo(order.size())) << "bad " << bad;
        EXPECT_LE(order.size(), bad);
    }
    std::vector<uint64_t> order;
    EXPECT_THROW(forOrderedSlices(
                     40,
                     [](uint64_t index, std::string &out) {
                         out = std::to_string(index);
                     },
                     [&](const std::string &bytes) {
                         if (bytes == "7")
                             throw std::runtime_error("emit");
                         order.push_back(std::stoull(bytes));
                     }),
                 std::runtime_error);
    EXPECT_EQ(order, upTo(7));
    // The pool serves the next call as usual.
    EXPECT_EQ(emittedSlices(40), upTo(40));
}

TEST(ForOrderedSlices, InsidePoolBodyRunsInline)
{
    // As with forBands(): the thread that attached the pool is
    // worker 0 of its dispatches, so slices formatted inside a
    // body on it must run inline on that thread instead of
    // dispatching again. The latch makes both workers take one
    // grain each, so worker 0 is certain to format.
    WorkerPool pool(2);
    ScopedBuildPool attach(pool);
    std::latch both_in(2);
    std::vector<uint64_t> orders[2];
    int foreign[2] = {0, 0};
    pool.forDynamic(2, 1, [&](unsigned, uint64_t begin, uint64_t) {
        both_in.arrive_and_wait();
        const std::thread::id self = std::this_thread::get_id();
        forOrderedSlices(
            30,
            [&](uint64_t index, std::string &out) {
                foreign[begin] += std::this_thread::get_id() != self;
                out = std::to_string(index);
            },
            [&](const std::string &bytes) {
                foreign[begin] += std::this_thread::get_id() != self;
                orders[begin].push_back(std::stoull(bytes));
            });
    });
    EXPECT_EQ(pool.dispatches(), 1u);
    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(orders[i], upTo(30));
        EXPECT_EQ(foreign[i], 0);
    }
}

} // anonymous namespace
} // namespace radcrit
