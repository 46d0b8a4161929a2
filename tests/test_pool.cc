/**
 * @file
 * Tests for the worker pool: job-count resolution (flag and
 * environment), exactly-once execution over dynamically claimed
 * grains, utilization accounting, and exception propagation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/pool.hh"
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

} // anonymous namespace
} // namespace radcrit
