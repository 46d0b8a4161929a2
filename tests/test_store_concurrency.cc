/**
 * @file
 * Concurrency tests for CampaignStore: threads racing save(),
 * load() and loadStream() on the same and on distinct keys — the
 * access pattern the suite prepass drives (every worker
 * resolves its own campaigns against one shared store). The
 * contract under test: a concurrent lookup observes either a miss
 * or a fully valid entry (save stages to a per-thread tmp file and
 * renames atomically; loadStream validates before the sink sees a
 * byte), never a torn one, and the hit/miss tallies add up.
 *
 * Campaigns are simulated sequentially up front; the threads only
 * exercise store I/O.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/store.hh"
#include "campaign/stream.hh"
#include "kernels/dgemm.hh"
#include "logs/beamlog.hh"

namespace radcrit
{
namespace
{

class StoreConcurrencyTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info = ::testing::UnitTest::GetInstance()
                               ->current_test_info();
        dir_ = ::testing::TempDir() + "radcrit_storeconc_" +
            info->name();
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    CampaignRaw
    campaign(uint64_t seed, uint64_t runs = 30)
    {
        SimConfig cfg;
        cfg.faultyRuns = runs;
        cfg.seed = seed;
        return simulateCampaign(device_, dgemm_, cfg);
    }

    static std::string
    bytes(const CampaignRaw &raw)
    {
        std::stringstream ss;
        writeBeamLog(raw, ss);
        return ss.str();
    }

    static void
    joinAll(std::vector<std::thread> &threads)
    {
        for (std::thread &t : threads)
            t.join();
    }

    DeviceModel device_ = makeK40();
    Dgemm dgemm_{device_, 64, 42};
    std::string dir_;
};

TEST_F(StoreConcurrencyTest, ConcurrentHitsOnOneEntry)
{
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    CampaignRaw raw = campaign(7);
    store->save(raw);
    const std::string ref = bytes(raw);
    const CampaignKey key = campaignKey(raw);

    constexpr int kThreads = 8;
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            // Alternate the materialized and streamed hit paths.
            if (t % 2 == 0) {
                std::optional<CampaignRaw> back =
                    store->load(key);
                if (!back || bytes(*back) != ref)
                    ++bad;
            } else {
                CollectRawSink collect;
                if (!store->loadStream(key, raw.launch, collect,
                                       8))
                    ++bad;
                else if (bytes(collect.take()) != ref)
                    ++bad;
            }
        });
    joinAll(threads);
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(store->hits(), static_cast<uint64_t>(kThreads));
    EXPECT_EQ(store->misses(), 0u);
}

TEST_F(StoreConcurrencyTest, SaversAndLoadersNeverSeeTornEntry)
{
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    CampaignRaw raw = campaign(3);
    const std::string ref = bytes(raw);
    const CampaignKey key = campaignKey(raw);

    constexpr int kSavers = 3;
    constexpr int kLoaders = 4;
    constexpr int kLookups = 6;
    std::atomic<int> bad{0};
    std::atomic<int> hits{0};
    std::atomic<int> misses{0};
    std::vector<std::thread> threads;
    for (int s = 0; s < kSavers; ++s)
        threads.emplace_back([&] {
            for (int i = 0; i < 3; ++i)
                store->save(raw);
        });
    for (int l = 0; l < kLoaders; ++l)
        threads.emplace_back([&] {
            for (int i = 0; i < kLookups; ++i) {
                std::optional<CampaignRaw> back =
                    store->load(key);
                if (!back) {
                    ++misses;
                    continue;
                }
                ++hits;
                // An observed entry is always the whole entry —
                // save() renames atomically into place.
                if (bytes(*back) != ref)
                    ++bad;
            }
        });
    joinAll(threads);
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(hits + misses, kLoaders * kLookups);
    EXPECT_EQ(store->hits(), static_cast<uint64_t>(hits.load()));
    EXPECT_EQ(store->misses(),
              static_cast<uint64_t>(misses.load()));
    // The entry survives every save; a fresh lookup hits.
    EXPECT_TRUE(store->load(key).has_value());
}

TEST_F(StoreConcurrencyTest, DistinctKeysRoundTripConcurrently)
{
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    constexpr int kThreads = 6;
    std::vector<CampaignRaw> raws;
    std::vector<std::string> refs;
    for (int t = 0; t < kThreads; ++t) {
        raws.push_back(campaign(100 + t));
        refs.push_back(bytes(raws.back()));
    }

    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            store->save(raws[t]);
            std::optional<CampaignRaw> back =
                store->load(campaignKey(raws[t]));
            if (!back || bytes(*back) != refs[t])
                ++bad;
            CollectRawSink collect;
            if (!store->loadStream(campaignKey(raws[t]),
                                   raws[t].launch, collect, 8))
                ++bad;
            else if (bytes(collect.take()) != refs[t])
                ++bad;
        });
    joinAll(threads);
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(store->hits(),
              static_cast<uint64_t>(2 * kThreads));
    EXPECT_EQ(store->misses(), 0u);
}

TEST_F(StoreConcurrencyTest, ConcurrentAsyncSavesOnDistinctKeys)
{
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    constexpr int kThreads = 4;
    std::vector<CampaignRaw> raws;
    std::vector<std::string> refs;
    for (int t = 0; t < kThreads; ++t) {
        raws.push_back(campaign(200 + t));
        refs.push_back(bytes(raws.back()));
    }

    // Each thread saves its own campaign through its own
    // AsyncSaveSink, so the I/O threads write entries at once.
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            auto sink = store->saveSink();
            AsyncSaveSink async(*sink);
            CampaignRawSource source(raws[t], 8);
            pumpRaw(source, async);
        });
    joinAll(threads);
    for (int t = 0; t < kThreads; ++t) {
        std::optional<CampaignRaw> back =
            store->load(campaignKey(raws[t]));
        ASSERT_TRUE(back.has_value()) << "entry " << t;
        if (bytes(*back) != refs[t])
            ++bad;
    }
    EXPECT_EQ(bad.load(), 0);
}

TEST_F(StoreConcurrencyTest, TwoPassStreamedHitsShareTheEntry)
{
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    // Force the bounded-memory two-pass shape (validate pass, then
    // stream pass) even for a small entry.
    store->setSinglePassCap(0);
    CampaignRaw raw = campaign(5);
    store->save(raw);
    const std::string ref = bytes(raw);
    const CampaignKey key = campaignKey(raw);

    constexpr int kThreads = 6;
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            CollectRawSink collect;
            if (!store->loadStream(key, raw.launch, collect, 4))
                ++bad;
            else if (bytes(collect.take()) != ref)
                ++bad;
        });
    joinAll(threads);
    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(store->hits(), static_cast<uint64_t>(kThreads));
}

TEST_F(StoreConcurrencyTest, CorruptEntryQuarantinedOnceUnderRace)
{
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    CampaignRaw raw = campaign(9);
    store->save(raw);
    const CampaignKey key = campaignKey(raw);

    // Truncate the entry mid-record so every lookup fails
    // validation.
    std::string path = store->pathFor(key);
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    in.close();
    std::string text = buf.str();
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
    out.close();

    constexpr int kThreads = 4;
    std::atomic<int> falseHits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            CollectRawSink collect;
            if (store->loadStream(key, raw.launch, collect, 4))
                ++falseHits;
        });
    joinAll(threads);
    // Every racer sees a clean miss; whichever thread(s) reached
    // the bad bytes quarantined them, the rest missed on the
    // now-absent entry.
    EXPECT_EQ(falseHits.load(), 0);
    EXPECT_EQ(store->hits(), 0u);
    EXPECT_EQ(store->misses(), static_cast<uint64_t>(kThreads));
    EXPECT_FALSE(std::filesystem::exists(path));
    // And the key is usable again: a save round-trips.
    store->save(raw);
    EXPECT_TRUE(store->load(key).has_value());
}

} // anonymous namespace
} // namespace radcrit
