/**
 * @file
 * Tests for the content-addressed campaign store: key hashing
 * (stable, execution-parameter-blind), entry naming, save/load
 * round trips, mismatch handling, the hit/miss counters, and the
 * simulateOrLoad() front door.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "campaign/runner.hh"
#include "campaign/series.hh"
#include "campaign/store.hh"
#include "common/logging.hh"
#include "kernels/dgemm.hh"
#include "logs/beamlog.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"

namespace radcrit
{
namespace
{

class StoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = ::testing::TempDir() + "radcrit_store_" +
            info->name();
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        setTraceSink(nullptr);
        std::filesystem::remove_all(dir_);
    }

    CampaignRaw
    campaign(uint64_t runs = 40, uint64_t seed = 11)
    {
        SimConfig cfg;
        cfg.faultyRuns = runs;
        cfg.seed = seed;
        return simulateCampaign(device_, dgemm_, cfg);
    }

    static bool
    sameRuns(const CampaignRaw &a, const CampaignRaw &b)
    {
        if (a.runs.size() != b.runs.size())
            return false;
        for (size_t i = 0; i < a.runs.size(); ++i) {
            if (a.runs[i].outcome != b.runs[i].outcome ||
                a.runs[i].strike.resource !=
                    b.runs[i].strike.resource ||
                a.runs[i].record.numIncorrect() !=
                    b.runs[i].record.numIncorrect()) {
                return false;
            }
        }
        return true;
    }

    DeviceModel device_ = makeK40();
    Dgemm dgemm_{device_, 64, 42};
    std::string dir_;
};

TEST_F(StoreTest, KeyHashStableAndExecutionBlind)
{
    CampaignKey key{"K40", "DGEMM", "256x256", SimConfig{}};
    uint64_t h = campaignKeyHash(key);
    EXPECT_EQ(campaignKeyHash(key), h);

    // jobs and progressEvery change how a campaign executes, never
    // what it produces: they must not move the address.
    CampaignKey exec = key;
    exec.sim.jobs = 8;
    exec.sim.progressEvery = 5;
    EXPECT_EQ(campaignKeyHash(exec), h);

    // Every identity field must move it.
    CampaignKey device = key;
    device.device = "XeonPhi";
    EXPECT_NE(campaignKeyHash(device), h);
    CampaignKey workload = key;
    workload.workload = "LavaMD";
    EXPECT_NE(campaignKeyHash(workload), h);
    CampaignKey input = key;
    input.input = "512x512";
    EXPECT_NE(campaignKeyHash(input), h);
    CampaignKey seed = key;
    seed.sim.seed += 1;
    EXPECT_NE(campaignKeyHash(seed), h);
    CampaignKey runs = key;
    runs.sim.faultyRuns += 1;
    EXPECT_NE(campaignKeyHash(runs), h);
}

TEST_F(StoreTest, FileNameCombinesTokensAndAddress)
{
    CampaignKey key{"Xeon Phi", "DGEMM", "256x256", SimConfig{}};
    std::string name = campaignKeyFileName(key);
    std::string expect = "xeon_phi-dgemm-256x256-" +
        strprintf("%016llx",
                  static_cast<unsigned long long>(
                      campaignKeyHash(key))) +
        ".beamlog";
    EXPECT_EQ(name, expect);
}

TEST_F(StoreTest, SaveThenLoadRoundTrips)
{
    CampaignRaw raw = campaign();
    CampaignStore store(dir_);
    store.save(raw);
    EXPECT_TRUE(
        std::filesystem::exists(store.pathFor(campaignKey(raw))));

    std::optional<CampaignRaw> back =
        store.load(campaignKey(raw));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);
    EXPECT_TRUE(sameRuns(raw, *back));

    // Analysis of the cached campaign is bit-identical.
    AnalysisConfig acfg;
    CampaignResult a = analyzeCampaign(raw, acfg);
    CampaignResult b = analyzeCampaign(*back, acfg);
    EXPECT_EQ(a.fitTotalAu(true), b.fitTotalAu(true));
    EXPECT_EQ(a.fitTotalAu(false), b.fitTotalAu(false));
}

TEST_F(StoreTest, MissingEntryIsAMissAndCounts)
{
    CampaignStore store(dir_);
    uint64_t global_miss = StatsRegistry::global()
                               .counter("campaign.store.miss")
                               .value();
    CampaignKey key{"K40", "DGEMM", "64x64", SimConfig{}};
    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(StatsRegistry::global()
                  .counter("campaign.store.miss")
                  .value(),
              global_miss + 1);
}

TEST_F(StoreTest, MismatchedEntryWarnsAndMisses)
{
    // An entry whose header does not match its key (hash collision
    // or hand-edited cache) must be a warned miss, not bad data.
    CampaignRaw raw = campaign(40, 11);
    CampaignStore store(dir_);
    CampaignKey other = campaignKey(raw);
    other.sim.seed = 13;
    writeBeamLogFile(raw, store.pathFor(other));

    MemoryTraceSink sink;
    setTraceSink(&sink);
    bool quiet = isQuiet();
    setQuiet(true);
    std::optional<CampaignRaw> r = store.load(other);
    setQuiet(quiet);
    setTraceSink(nullptr);

    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(store.misses(), 1u);
    ASSERT_EQ(sink.logs().size(), 1u);
    EXPECT_EQ(sink.logs()[0].first, "warn");
    EXPECT_NE(sink.logs()[0].second.find(
                  "does not match its key"),
              std::string::npos);

    // The bad entry is quarantined, not left to fail every later
    // lookup: moved aside with the dedicated counter bumped.
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_FALSE(
        std::filesystem::exists(store.pathFor(other)));
    EXPECT_TRUE(std::filesystem::exists(store.pathFor(other) +
                                        ".quarantined"));
}

TEST_F(StoreTest, CorruptEntryIsQuarantinedAfterRetry)
{
    // Bytes that fail to parse twice are quarantined (renamed
    // aside for autopsy), counted in the dedicated counter, and
    // reported as a plain miss so the caller re-simulates.
    CampaignRaw raw = campaign(40, 11);
    CampaignStore store(dir_);
    store.save(raw);
    std::string path = store.pathFor(campaignKey(raw));
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    uint64_t global_q = StatsRegistry::global()
                            .counter("campaign.store.quarantined")
                            .value();

    bool quiet = isQuiet();
    setQuiet(true);
    std::optional<CampaignRaw> r =
        store.load(campaignKey(raw));
    setQuiet(quiet);

    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_EQ(StatsRegistry::global()
                  .counter("campaign.store.quarantined")
                  .value(),
              global_q + 1);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(
        std::filesystem::exists(path + ".quarantined"));

    // The quarantined key behaves like an empty slot: a fresh
    // save round-trips again.
    store.save(raw);
    EXPECT_TRUE(store.load(campaignKey(raw)).has_value());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.quarantined(), 1u);
}

TEST_F(StoreTest, EntryParsedInPiecesLoadsLikeAWholeRead)
{
    CampaignRaw raw = campaign(40, 11);
    CampaignStore store(dir_);
    store.save(raw);
    BeamLogPieces pieces(store.pathFor(campaignKey(raw)), 512);
    ASSERT_GT(pieces.count(), 1u);
    for (size_t k = 0; k < pieces.count(); ++k)
        pieces.parse(k);

    std::optional<CampaignRaw> back =
        store.load(campaignKey(raw), pieces.join());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 0u);
    EXPECT_TRUE(sameRuns(raw, *back));
}

TEST_F(StoreTest, UnparsedPiecesFallBackToTheWholeRead)
{
    // A corrupt entry whose pieces do not join is handed to the
    // store as nullopt: the store re-reads it itself, so the miss,
    // retry and quarantine are exactly load()'s.
    CampaignRaw raw = campaign(40, 11);
    CampaignStore store(dir_);
    store.save(raw);
    std::string path = store.pathFor(campaignKey(raw));
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    BeamLogPieces pieces(path, 512);
    for (size_t k = 0; k < pieces.count(); ++k)
        pieces.parse(k);
    std::optional<CampaignRaw> joined = pieces.join();
    EXPECT_FALSE(joined.has_value());

    bool quiet = isQuiet();
    setQuiet(true);
    std::optional<CampaignRaw> r =
        store.load(campaignKey(raw), std::move(joined));
    setQuiet(quiet);
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_TRUE(
        std::filesystem::exists(path + ".quarantined"));
}

TEST_F(StoreTest, SimulateOrLoadRecoversFromCorruptEntry)
{
    CampaignStore store(dir_);
    SimConfig cfg;
    cfg.faultyRuns = 40;
    cfg.seed = 11;
    CampaignRaw first =
        simulateOrLoad(device_, dgemm_, cfg, &store);
    std::string path =
        store.pathFor(CampaignKey{device_.name, dgemm_.name(),
                                  dgemm_.inputLabel(), cfg});
    std::ofstream(path, std::ios::trunc) << "garbage\n";

    bool quiet = isQuiet();
    setQuiet(true);
    CampaignRaw second =
        simulateOrLoad(device_, dgemm_, cfg, &store);
    setQuiet(quiet);

    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_TRUE(sameRuns(first, second));
    // The re-simulation replaced the entry; the next call hits.
    simulateOrLoad(device_, dgemm_, cfg, &store);
    EXPECT_EQ(store.hits(), 1u);
}

/**
 * Replace the value of the first `key=` field in the file at `path`
 * with `value`.
 */
void
editFirstField(const std::string &path, const std::string &key,
               const std::string &value)
{
    std::string text;
    {
        std::ifstream in(path);
        text.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    size_t pos = text.find(" " + key + "=");
    ASSERT_NE(pos, std::string::npos) << key;
    pos += key.size() + 2;
    size_t end = text.find_first_of(" \n", pos);
    text.replace(pos, end - pos, value);
    std::ofstream(path, std::ios::trunc) << text;
}

class StoreHostileEntryTest
    : public StoreTest,
      public ::testing::WithParamInterface<
          std::pair<std::string, std::string>>
{
};

TEST_P(StoreHostileEntryTest, QuarantinedAndResimulatedToSameCsv)
{
    // A field the parser cannot accept (an unknown resource name,
    // a non-numeric entropy) makes the entry corrupt like any
    // other: quarantined and re-simulated, never a process exit
    // and never served as a hit.
    CampaignStore store(dir_);
    SimConfig cfg;
    cfg.faultyRuns = 40;
    cfg.seed = 11;
    CampaignRaw first =
        simulateOrLoad(device_, dgemm_, cfg, &store);
    std::string path =
        store.pathFor(CampaignKey{device_.name, dgemm_.name(),
                                  dgemm_.inputLabel(), cfg});
    editFirstField(path, GetParam().first, GetParam().second);

    bool quiet = isQuiet();
    setQuiet(true);
    CampaignRaw second =
        simulateOrLoad(device_, dgemm_, cfg, &store);
    setQuiet(quiet);

    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.quarantined(), 1u);
    EXPECT_TRUE(
        std::filesystem::exists(path + ".quarantined"));
    AnalysisConfig acfg;
    EXPECT_EQ(runRows(analyzeCampaign(first, acfg)),
              runRows(analyzeCampaign(second, acfg)));
}

INSTANTIATE_TEST_SUITE_P(
    BadFields, StoreHostileEntryTest,
    ::testing::Values(std::make_pair("resource", "Bogus"),
                      std::make_pair("entropy", "xyz")),
    [](const auto &info) { return info.param.first; });

TEST_F(StoreTest, SimulateOrLoadHitsOnSecondCall)
{
    CampaignStore store(dir_);
    SimConfig cfg;
    cfg.faultyRuns = 40;
    cfg.seed = 11;
    uint64_t global_hit = StatsRegistry::global()
                              .counter("campaign.store.hit")
                              .value();

    CampaignRaw first =
        simulateOrLoad(device_, dgemm_, cfg, &store);
    EXPECT_EQ(store.hits(), 0u);
    EXPECT_EQ(store.misses(), 1u);

    CampaignRaw second =
        simulateOrLoad(device_, dgemm_, cfg, &store);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(StatsRegistry::global()
                  .counter("campaign.store.hit")
                  .value(),
              global_hit + 1);
    EXPECT_TRUE(sameRuns(first, second));

    // The loaded campaign carries a rebuilt launch and sim-side
    // stats, and analyzes bit-identically to the simulated one.
    EXPECT_EQ(second.launch.traits.totalThreads,
              first.launch.traits.totalThreads);
    EXPECT_DOUBLE_EQ(second.launch.occupancy,
                     first.launch.occupancy);
    EXPECT_FALSE(second.stats.entries.empty());
    AnalysisConfig acfg;
    CampaignResult a = analyzeCampaign(first, acfg);
    CampaignResult b = analyzeCampaign(second, acfg);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].crit.numIncorrect,
                  b.runs[i].crit.numIncorrect);
        EXPECT_EQ(a.runs[i].crit.meanRelErrPct,
                  b.runs[i].crit.meanRelErrPct);
    }
    EXPECT_EQ(a.fitTotalAu(true), b.fitTotalAu(true));
}

TEST_F(StoreTest, SimulatedStatsCarryTheRebuiltTally)
{
    // A simulated campaign counts its outcomes the way a store hit
    // rebuilds them: every counter, gauge and histogram of
    // rebuildSimStats() is in the campaign's stats, value for
    // value. An earlier campaign under the same stats prefix but
    // with another launch must not leak its gauges into them.
    SimConfig cfg;
    cfg.faultyRuns = 40;
    cfg.seed = 11;
    Dgemm larger{device_, 128, 42};
    CampaignRaw earlier = simulateCampaign(device_, larger, cfg);
    for (unsigned jobs : {1u, 4u}) {
        cfg.jobs = jobs;
        CampaignRaw raw = simulateCampaign(device_, dgemm_, cfg);
        ASSERT_NE(raw.sensitiveAreaAu, earlier.sensitiveAreaAu);
        StatsRegistry scratch;
        StatsSnapshot rebuilt = rebuildSimStats(raw, scratch);
        ASSERT_FALSE(rebuilt.entries.empty());
        for (const StatsSnapshot::Entry &want : rebuilt.entries) {
            const StatsSnapshot::Entry *got =
                raw.stats.find(want.name);
            ASSERT_NE(got, nullptr) << want.name;
            EXPECT_EQ(got->kind, want.kind) << want.name;
            EXPECT_EQ(got->value, want.value) << want.name;
            EXPECT_EQ(got->count, want.count) << want.name;
            EXPECT_EQ(got->sum, want.sum) << want.name;
            EXPECT_EQ(got->min, want.min) << want.name;
            EXPECT_EQ(got->max, want.max) << want.name;
            EXPECT_EQ(got->buckets, want.buckets) << want.name;
        }
    }
}

TEST_F(StoreTest, NullStoreIsPlainSimulation)
{
    SimConfig cfg;
    cfg.faultyRuns = 30;
    cfg.seed = 5;
    CampaignRaw direct = simulateCampaign(device_, dgemm_, cfg);
    CampaignRaw via = simulateOrLoad(device_, dgemm_, cfg,
                                     nullptr);
    EXPECT_TRUE(sameRuns(direct, via));
}

} // anonymous namespace
} // namespace radcrit
