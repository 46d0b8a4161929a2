/**
 * @file
 * Tests for the streaming campaign pipeline: the RunBatch /
 * RawSink / RawObserver / RawSource seam, the copy-free tee, the
 * batched engine delivery contract,
 * the incremental beam-log reader/writer, the streaming store
 * load/save, the mergeable AnalysisAccumulator, and the proc.mem
 * gauges. The load-bearing property throughout: stream ==
 * materialized, byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "campaign/analysis.hh"
#include "campaign/runner.hh"
#include "campaign/store.hh"
#include "campaign/stream.hh"
#include "kernels/dgemm.hh"
#include "logs/beamlog.hh"
#include "obs/procmem.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{
namespace
{

/** Records the delivery shape a producer drives into it. */
class ProbeSink : public RawObserver
{
  public:
    void
    begin(const CampaignMeta &meta) override
    {
        ++begins;
        meta_ = meta;
    }

    void
    observe(const RunBatch &batch) override
    {
        firstIndices.push_back(batch.firstIndex);
        sizes.push_back(batch.runs.size());
        buffers.push_back(batch.runs.data());
        for (size_t i = 0; i < batch.runs.size(); ++i)
            indexOk = indexOk &&
                batch.runs[i].index == batch.firstIndex + i;
    }

    void
    end(const StatsSnapshot &simStats) override
    {
        ++ends;
        stats = simStats;
    }

    const CampaignMeta &meta() const { return meta_; }

    int begins = 0;
    int ends = 0;
    bool indexOk = true;
    std::vector<uint64_t> firstIndices;
    std::vector<size_t> sizes;
    /** runs.data() of every batch observed. */
    std::vector<const RawRun *> buffers;
    StatsSnapshot stats;

  private:
    CampaignMeta meta_;
};

/** An owner that keeps every batch it is handed. */
class KeepSink : public RawSink
{
  public:
    void begin(const CampaignMeta &) override {}
    void consume(RunBatch &&batch) override
    {
        kept.push_back(std::move(batch));
    }
    void end(const StatsSnapshot &) override {}

    std::vector<RunBatch> kept;
};

class StreamTest : public ::testing::Test
{
  protected:
    DeviceModel device_ = makeK40();
    Dgemm dgemm_{device_, 64, 42};

    CampaignRaw
    campaign(uint64_t runs = 60, uint64_t batch_runs = 0)
    {
        SimConfig cfg;
        cfg.faultyRuns = runs;
        cfg.seed = 11;
        cfg.batchRuns = batch_runs;
        return simulateCampaign(device_, dgemm_, cfg);
    }

    static void
    expectSameAnalysis(const CampaignResult &a,
                       const CampaignResult &b)
    {
        ASSERT_EQ(a.runs.size(), b.runs.size());
        for (size_t i = 0; i < a.runs.size(); ++i) {
            EXPECT_EQ(a.runs[i].index, b.runs[i].index);
            EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome);
            EXPECT_EQ(a.runs[i].crit.numIncorrect,
                      b.runs[i].crit.numIncorrect);
            EXPECT_EQ(a.runs[i].crit.meanRelErrPct,
                      b.runs[i].crit.meanRelErrPct);
            EXPECT_EQ(a.runs[i].crit.pattern,
                      b.runs[i].crit.pattern);
        }
        EXPECT_EQ(a.fitTotalAu(false), b.fitTotalAu(false));
        EXPECT_EQ(a.fitTotalAu(true), b.fitTotalAu(true));
    }
};

TEST_F(StreamTest, CampaignRawSourceSlicesContiguously)
{
    CampaignRaw raw = campaign(10);
    CampaignRawSource source(raw, 3);
    ProbeSink probe;
    EXPECT_EQ(pumpRaw(source, probe), 10u);
    EXPECT_EQ(probe.begins, 1);
    EXPECT_EQ(probe.ends, 1);
    EXPECT_TRUE(probe.indexOk);
    EXPECT_EQ(probe.sizes,
              (std::vector<size_t>{3, 3, 3, 1}));
    EXPECT_EQ(probe.firstIndices,
              (std::vector<uint64_t>{0, 3, 6, 9}));
    EXPECT_EQ(probe.meta().deviceName, raw.deviceName);
    EXPECT_EQ(probe.meta().sim.faultyRuns, raw.sim.faultyRuns);
}

TEST_F(StreamTest, ZeroBatchRunsMeansOneBatch)
{
    CampaignRaw raw = campaign(10);
    CampaignRawSource source(raw, 0);
    ProbeSink probe;
    pumpRaw(source, probe);
    EXPECT_EQ(probe.sizes, (std::vector<size_t>{10}));
}

TEST_F(StreamTest, MovingCampaignRawSourceMatchesCopying)
{
    CampaignRaw raw = campaign(20);
    std::stringstream want;
    writeBeamLog(raw, want);
    for (uint64_t batch : {0, 1, 7, 20}) {
        CampaignRaw taken = raw;
        CampaignRawSource source(std::move(taken), batch);
        ProbeSink probe;
        CollectRawSink collect;
        TeeRawSink tee({&probe}, &collect);
        EXPECT_EQ(pumpRaw(source, tee), 20u);
        EXPECT_TRUE(probe.indexOk);
        EXPECT_EQ(probe.meta().sim.faultyRuns, raw.sim.faultyRuns);
        std::stringstream got;
        writeBeamLog(collect.take(), got);
        EXPECT_EQ(got.str(), want.str()) << "batch " << batch;
    }
}

TEST_F(StreamTest, CollectRoundTripReproducesRaw)
{
    CampaignRaw raw = campaign(20);
    CampaignRawSource source(raw, 7);
    CollectRawSink collect;
    pumpRaw(source, collect);
    CampaignRaw back = collect.take();

    std::stringstream a, b;
    writeBeamLog(raw, a);
    writeBeamLog(back, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST_F(StreamTest, TeeDeliversToEverySink)
{
    CampaignRaw raw = campaign(12);
    CampaignRawSource source(raw, 5);
    ProbeSink first;
    CollectRawSink second;
    TeeRawSink tee({&first}, &second);
    pumpRaw(source, tee);
    EXPECT_EQ(first.begins, 1);
    EXPECT_EQ(first.ends, 1);
    EXPECT_EQ(first.sizes, (std::vector<size_t>{5, 5, 2}));
    EXPECT_EQ(second.raw().runs.size(), 12u);
}

TEST_F(StreamTest, TeeHandsTheOwnerTheProducersBuffer)
{
    CampaignRaw raw = campaign(12);
    ProbeSink first, second;
    KeepSink owner;
    TeeRawSink tee({&first, &second}, &owner);

    // Drive the tee by hand so the producer's buffers are known.
    tee.begin(campaignMeta(raw));
    std::vector<const RawRun *> produced;
    for (uint64_t begin = 0; begin < raw.runs.size(); begin += 5) {
        RunBatch batch;
        batch.firstIndex = begin;
        batch.runs.assign(
            raw.runs.begin() + begin,
            raw.runs.begin() +
                std::min<uint64_t>(begin + 5, raw.runs.size()));
        produced.push_back(batch.runs.data());
        tee.consume(std::move(batch));
    }
    tee.end({});

    // The owner keeps the producer's own buffers: nothing copied.
    ASSERT_EQ(owner.kept.size(), produced.size());
    for (size_t i = 0; i < produced.size(); ++i)
        EXPECT_EQ(owner.kept[i].runs.data(), produced[i]) << i;
    // Every observer read every batch in place, in index order.
    for (const ProbeSink *probe : {&first, &second}) {
        EXPECT_EQ(probe->begins, 1);
        EXPECT_EQ(probe->ends, 1);
        EXPECT_TRUE(probe->indexOk);
        EXPECT_EQ(probe->firstIndices,
                  (std::vector<uint64_t>{0, 5, 10}));
        EXPECT_EQ(probe->buffers, produced);
    }
}

TEST_F(StreamTest, EngineDeliversContiguousBatches)
{
    SimConfig cfg;
    cfg.faultyRuns = 25;
    cfg.seed = 11;
    cfg.batchRuns = 8;
    ProbeSink probe;
    simulateCampaignStream(device_, dgemm_, cfg, probe);
    EXPECT_EQ(probe.begins, 1);
    EXPECT_EQ(probe.ends, 1);
    EXPECT_TRUE(probe.indexOk);
    EXPECT_EQ(probe.sizes, (std::vector<size_t>{8, 8, 8, 1}));
    EXPECT_EQ(probe.firstIndices,
              (std::vector<uint64_t>{0, 8, 16, 24}));
    // end() carries the same simulation telemetry the materialized
    // path stores in CampaignRaw::stats.
    EXPECT_GT(probe.stats.entries.size(), 0u);
}

TEST_F(StreamTest, BatchedEngineIsByteIdentical)
{
    CampaignRaw whole = campaign(40, 0);
    for (uint64_t batch : {1, 7, 40, 1000}) {
        CampaignRaw sliced = campaign(40, batch);
        std::stringstream a, b;
        writeBeamLog(whole, a);
        writeBeamLog(sliced, b);
        EXPECT_EQ(a.str(), b.str()) << "batchRuns=" << batch;
        expectSameAnalysis(analyzeCampaign(whole, {}),
                           analyzeCampaign(sliced, {}));
    }
}

TEST_F(StreamTest, IncrementalWriterMatchesWriteBeamLog)
{
    CampaignRaw raw = campaign(15);
    std::stringstream whole;
    writeBeamLog(raw, whole);

    std::stringstream incremental;
    BeamLogWriter writer(incremental);
    writer.header(raw.deviceName, raw.workloadName, raw.inputLabel,
                  raw.sim.seed, raw.runs.size(),
                  raw.sensitiveAreaAu);
    // Batches of uneven sizes, one of them empty.
    std::span<const RawRun> runs(raw.runs);
    writer.append(runs.first(4));
    writer.append(runs.subspan(4, 0));
    writer.append(runs.subspan(4, 1));
    writer.append(runs.subspan(5));
    EXPECT_EQ(writer.appended(), raw.runs.size());
    EXPECT_EQ(whole.str(), incremental.str());
}

TEST_F(StreamTest, IncrementalReaderMatchesReadBeamLog)
{
    CampaignRaw raw = campaign(15);
    std::stringstream ss;
    writeBeamLog(raw, ss);
    CampaignRaw whole = readBeamLog(ss);

    std::stringstream again;
    writeBeamLog(raw, again);
    BeamLogReader reader(again);
    EXPECT_EQ(reader.device(), raw.deviceName);
    EXPECT_EQ(reader.declaredRuns(), raw.runs.size());
    size_t i = 0;
    while (auto run = reader.next()) {
        ASSERT_LT(i, whole.runs.size());
        EXPECT_EQ(run->index, whole.runs[i].index);
        EXPECT_EQ(run->outcome, whole.runs[i].outcome);
        EXPECT_EQ(run->strike.timeFraction,
                  whole.runs[i].strike.timeFraction);
        EXPECT_EQ(run->record.numIncorrect(),
                  whole.runs[i].record.numIncorrect());
        ++i;
    }
    EXPECT_EQ(i, whole.runs.size());
    EXPECT_EQ(reader.read(), whole.runs.size());
}

TEST_F(StreamTest, ReaderRejectsMissingHeader)
{
    std::stringstream ss("#RUN 0 L1Cache BitFlipValue 0.5 1 "
                         "Masked\n");
    EXPECT_THROW(BeamLogReader reader(ss), BeamLogParseError);
}

TEST_F(StreamTest, ReaderRejectsTruncatedAndMiscountedLogs)
{
    CampaignRaw raw = campaign(6);
    std::stringstream ss;
    writeBeamLog(raw, ss);
    std::string text = ss.str();

    // Truncated inside the final run record.
    std::string truncated =
        text.substr(0, text.rfind("#END"));
    truncated = truncated.substr(0, truncated.size() - 1);
    std::stringstream tin(truncated);
    BeamLogReader treader(tin);
    EXPECT_THROW(
        {
            while (treader.next())
                ;
        },
        BeamLogParseError);

    // Complete records but fewer than the header declares.
    size_t last_run = text.rfind("#RUN");
    std::string short_log = text.substr(0, last_run);
    std::stringstream sin(short_log);
    BeamLogReader sreader(sin);
    EXPECT_THROW(
        {
            while (sreader.next())
                ;
        },
        BeamLogParseError);
}

TEST_F(StreamTest, BeamLogSinkAndSourceRoundTripBytes)
{
    CampaignRaw raw = campaign(20);
    std::stringstream original;
    writeBeamLog(raw, original);

    // Stream the log through source -> sink and compare bytes.
    std::stringstream in(original.str());
    BeamLogSource source(in, 6);
    std::stringstream out;
    BeamLogSink sink(out);
    EXPECT_EQ(pumpRaw(source, sink), raw.runs.size());
    EXPECT_EQ(sink.written(), raw.runs.size());
    EXPECT_EQ(original.str(), out.str());
}

TEST_F(StreamTest, AccumulatorMergeMatchesWholeAnalysis)
{
    CampaignRaw raw = campaign(30);
    AnalysisConfig acfg;
    CampaignResult whole = analyzeCampaign(raw, acfg);

    CampaignMeta meta = campaignMeta(raw);
    AnalysisAccumulator front(meta, acfg);
    AnalysisAccumulator back(meta, acfg);
    for (size_t i = 0; i < raw.runs.size(); ++i)
        (i < 13 ? front : back).fold(raw.runs[i]);
    front.merge(std::move(back));
    EXPECT_EQ(front.folded(), raw.runs.size());
    CampaignResult merged = front.finish(raw.stats);
    expectSameAnalysis(whole, merged);
}

TEST_F(StreamTest, AnalyzeCampaignStreamMatchesMaterialized)
{
    CampaignRaw raw = campaign(30);
    AnalysisConfig acfg;
    acfg.filterThresholdPct = 5.0;
    CampaignResult whole = analyzeCampaign(raw, acfg);
    for (uint64_t batch : {1, 4, 30, 100}) {
        CampaignRawSource source(raw, batch);
        CampaignResult streamed =
            analyzeCampaignStream(source, acfg);
        expectSameAnalysis(whole, streamed);
    }
    // What analyze --progress does: the loaded runs moved on in
    // one batch.
    CampaignRawSource moving(CampaignRaw(raw), 0);
    expectSameAnalysis(whole,
                       analyzeCampaignStream(moving, acfg, 7));
}

class StreamStoreTest : public StreamTest
{
  protected:
    void
    SetUp() override
    {
        const auto *info = ::testing::UnitTest::GetInstance()
                               ->current_test_info();
        dir_ = ::testing::TempDir() + "radcrit_stream_" +
            info->name();
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string dir_;
};

TEST_F(StreamStoreTest, LoadStreamMatchesMaterializedLoad)
{
    auto store = CampaignStore::open(dir_);
    CampaignRaw raw = campaign(25);
    store->save(raw);

    CollectRawSink collect;
    ASSERT_TRUE(store->loadStream(campaignKey(raw), raw.launch,
                                  collect, 7));
    CampaignRaw streamed = collect.take();
    EXPECT_EQ(streamed.runs.size(), raw.runs.size());
    EXPECT_EQ(streamed.deviceName, raw.deviceName);

    std::stringstream a, b;
    writeBeamLog(raw, a);
    writeBeamLog(streamed, b);
    EXPECT_EQ(a.str(), b.str());
    // The rebuilt stats must count every run, like load()'s
    // rebuildSimStats.
    EXPECT_GT(streamed.stats.entries.size(), 0u);
    expectSameAnalysis(analyzeCampaign(raw, {}),
                       analyzeCampaign(streamed, {}));
}

TEST_F(StreamStoreTest, LoadStreamMissLeavesSinkUntouched)
{
    auto store = CampaignStore::open(dir_);
    CampaignRaw raw = campaign(10);
    ProbeSink probe;
    EXPECT_FALSE(store->loadStream(campaignKey(raw), raw.launch,
                                   probe, 4));
    EXPECT_EQ(probe.begins, 0);
    EXPECT_EQ(probe.ends, 0);
}

TEST_F(StreamStoreTest, CorruptEntryIsQuarantinedBeforeSink)
{
    auto store = CampaignStore::open(dir_);
    CampaignRaw raw = campaign(10);
    store->save(raw);

    // Truncate the entry mid-record: validation must fail before
    // the sink consumes anything.
    std::string path = store->pathFor(campaignKey(raw));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    in.close();
    std::string text = buf.str();
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
    out.close();

    ProbeSink probe;
    EXPECT_FALSE(store->loadStream(campaignKey(raw), raw.launch,
                                   probe, 4));
    EXPECT_EQ(probe.begins, 0);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(StreamStoreTest, SaveSinkWritesLoadableEntry)
{
    auto store = CampaignStore::open(dir_);
    CampaignRaw raw = campaign(18);

    auto sink = store->saveSink();
    CampaignRawSource source(raw, 5);
    pumpRaw(source, *sink);

    std::optional<CampaignRaw> back =
        store->load(campaignKey(raw));
    ASSERT_TRUE(back.has_value());
    std::stringstream a, b;
    writeBeamLog(raw, a);
    writeBeamLog(*back, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST_F(StreamStoreTest, SimulateOrLoadStreamHitAndMissAgree)
{
    auto store = CampaignStore::open(dir_);
    SimConfig cfg;
    cfg.faultyRuns = 20;
    cfg.seed = 11;
    cfg.batchRuns = 6;

    CampaignRaw raw = simulateCampaign(device_, dgemm_, cfg);
    std::stringstream ref;
    writeBeamLog(raw, ref);
    CampaignResult refResult = analyzeCampaign(raw, {});

    std::stringstream miss_log;
    BeamLogSink miss_sink(miss_log);
    AnalyzeSink miss_analysis{AnalysisConfig{}};
    simulateOrLoadStream(device_, dgemm_, cfg, store.get(),
                         {&miss_sink, &miss_analysis});
    EXPECT_EQ(store->hits(), 0u);
    EXPECT_EQ(miss_log.str(), ref.str());
    expectSameAnalysis(refResult, miss_analysis.take());

    // The miss saved the entry through the async owner.
    std::ifstream entry(store->pathFor(campaignKey(raw)));
    std::stringstream saved;
    saved << entry.rdbuf();
    EXPECT_EQ(saved.str(), ref.str());

    std::stringstream hit_log;
    BeamLogSink hit_sink(hit_log);
    AnalyzeSink hit_analysis{AnalysisConfig{}};
    simulateOrLoadStream(device_, dgemm_, cfg, store.get(),
                         {&hit_sink, &hit_analysis});
    EXPECT_EQ(store->hits(), 1u);
    EXPECT_EQ(hit_log.str(), ref.str());
    expectSameAnalysis(refResult, hit_analysis.take());
}

/** Inner observer that fails on the I/O thread mid-stream. */
class ThrowingSink : public RawObserver
{
  public:
    void begin(const CampaignMeta &) override {}
    void
    observe(const RunBatch &) override
    {
        throw std::runtime_error("disk full");
    }
    void end(const StatsSnapshot &) override {}
};

TEST_F(StreamTest, AsyncSaveSinkPreservesDeliveryShape)
{
    CampaignRaw raw = campaign(20);
    ProbeSink probe;
    AsyncSaveSink async(probe);
    CampaignRawSource source(raw, 6);
    EXPECT_EQ(pumpRaw(source, async), 20u);
    // end() drains the queue, so the probe has seen everything in
    // producer order even though delivery ran on the I/O thread.
    EXPECT_EQ(probe.begins, 1);
    EXPECT_EQ(probe.ends, 1);
    EXPECT_TRUE(probe.indexOk);
    EXPECT_EQ(probe.sizes, (std::vector<size_t>{6, 6, 6, 2}));
    EXPECT_EQ(probe.firstIndices,
              (std::vector<uint64_t>{0, 6, 12, 18}));
    EXPECT_EQ(async.batches(), 4u);
    EXPECT_GE(async.queuePeak(), 1u);
}

TEST_F(StreamTest, AsyncSaveSinkIsByteIdentical)
{
    CampaignRaw raw = campaign(24);
    std::stringstream a, b;
    writeBeamLog(raw, a);
    BeamLogSink log(b);
    AsyncSaveSink async(log);
    CampaignRawSource source(raw, 7);
    pumpRaw(source, async);
    EXPECT_EQ(a.str(), b.str());
}

TEST_F(StreamTest, AsyncSaveSinkPropagatesInnerFailure)
{
    CampaignRaw raw = campaign(12);
    ThrowingSink inner;
    AsyncSaveSink async(inner);
    CampaignRawSource source(raw, 3);
    // The inner sink throws on the I/O thread; the error must
    // surface on the producer (a later consume() or end()), never
    // vanish.
    EXPECT_THROW(pumpRaw(source, async), std::runtime_error);
}

TEST_F(StreamStoreTest, AsyncSaveSinkWritesLoadableEntry)
{
    auto store = CampaignStore::open(dir_);
    CampaignRaw raw = campaign(18);

    auto sink = store->saveSink();
    AsyncSaveSink async(*sink);
    CampaignRawSource source(raw, 5);
    pumpRaw(source, async);

    std::optional<CampaignRaw> back =
        store->load(campaignKey(raw));
    ASSERT_TRUE(back.has_value());
    std::stringstream a, b;
    writeBeamLog(raw, a);
    writeBeamLog(*back, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ProcMemTest, ReadsPlausibleSample)
{
    ProcMemSample sample = readProcMem();
    // /proc/self/status exists on every platform the suite runs
    // on; the gauges are best-effort elsewhere.
    if (!sample.valid)
        GTEST_SKIP() << "/proc/self/status not available";
    EXPECT_GT(sample.peakRssBytes, 0u);
    EXPECT_GT(sample.currentRssBytes, 0u);
    EXPECT_GE(sample.peakRssBytes, sample.currentRssBytes);
}

TEST(ProcMemTest, PublishSetsGauges)
{
    StatsRegistry reg;
    ProcMemSample sample = publishProcMem(reg);
    if (!sample.valid)
        GTEST_SKIP() << "/proc/self/status not available";
    StatsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("proc.mem.peak_rss_bytes"),
              static_cast<double>(sample.peakRssBytes));
    EXPECT_EQ(snap.value("proc.mem.current_rss_bytes"),
              static_cast<double>(sample.currentRssBytes));
}

TEST_F(StreamTest, StreamCountersStayOutOfCampaignSnapshot)
{
    CampaignRaw raw = campaign(10, 4);
    for (const auto &entry : raw.stats.entries) {
        EXPECT_NE(entry.name.rfind("stream.", 0), 0u)
            << entry.name;
        EXPECT_NE(entry.name.rfind("proc.", 0), 0u) << entry.name;
    }
}

} // anonymous namespace
} // namespace radcrit
