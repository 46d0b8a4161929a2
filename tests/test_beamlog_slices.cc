/**
 * @file
 * The beam-log writer's ordered slices (forOrderedSlices(),
 * exec/pool.hh): the committed GoldenBeamLog artifacts must come
 * out byte for byte at every pool size and at every slice length,
 * so a slice boundary may fall anywhere in a record (between #RUN
 * and #DIMS, inside the #ERR lines, exactly at #END) without
 * moving a byte, and a write from inside a pool body runs inline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <latch>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "exec/pool.hh"
#include "logs/beamlog.hh"

#ifndef RADCRIT_GOLDEN_DIR
#define RADCRIT_GOLDEN_DIR "tests/goldens"
#endif

namespace radcrit
{
namespace
{

/** The committed beam-log goldens (tests/test_golden.cc). */
const char *const kGoldens[] = {
    "beamlog_dgemm_k40.beamlog",
    "beamlog_hotspot_k40.beamlog",
    "beamlog_clamr_xeonphi.beamlog",
    "beamlog_specials.beamlog",
};

std::string
goldenBytes(const std::string &name)
{
    std::ifstream in(std::string(RADCRIT_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in) << name;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

CampaignRaw
parse(const std::string &text)
{
    std::istringstream in(text);
    return readBeamLog(in);
}

std::string
written(const CampaignRaw &raw)
{
    std::ostringstream out;
    writeBeamLog(raw, out);
    return out.str();
}

std::string
written(const CampaignRaw &raw, uint64_t slice_lines)
{
    std::ostringstream out;
    detail::writeBeamLog(raw, out, slice_lines);
    return out.str();
}

TEST(BeamLogSlices, GoldensAtEveryPoolSize)
{
    for (const char *name : kGoldens) {
        const std::string golden = goldenBytes(name);
        const CampaignRaw raw = parse(golden);
        EXPECT_EQ(written(raw), golden) << name << ", no pool";
        for (unsigned jobs : {1u, 2u, 3u, 5u, 8u}) {
            WorkerPool pool(jobs);
            ScopedBuildPool attach(pool);
            EXPECT_EQ(written(raw), golden)
                << name << ", " << jobs << " jobs";
            EXPECT_EQ(written(raw, 7), golden)
                << name << ", " << jobs << " jobs, 7-line slices";
        }
    }
}

TEST(BeamLogSlices, GoldensAtEverySliceLength)
{
    // With 1-line slices every line boundary is a cut; 2, 3 and 7
    // put the cuts at every other offset into the records.
    for (const char *name : kGoldens) {
        const std::string golden = goldenBytes(name);
        const CampaignRaw raw = parse(golden);
        for (uint64_t slice : {1u, 2u, 3u, 7u}) {
            EXPECT_EQ(written(raw, slice), golden)
                << name << ", " << slice << "-line slices inline";
            WorkerPool pool(3);
            ScopedBuildPool attach(pool);
            EXPECT_EQ(written(raw, slice), golden)
                << name << ", " << slice << "-line slices, 3 jobs";
        }
    }
}

RawRun
sdcRun(size_t elements)
{
    RawRun run;
    run.outcome = Outcome::Sdc;
    run.strike.timeFraction = 0.25;
    run.strike.burstBits = 2;
    run.strike.entropy = 99;
    run.record.dims = 2;
    run.record.extent = {8, 8, 1};
    for (size_t i = 0; i < elements; ++i) {
        CorruptedElement e;
        e.coord = {static_cast<int64_t>(i), 1, 0};
        e.read = 1.0 + static_cast<double>(i) / 3.0;
        e.expected = 1.0;
        run.record.elements.push_back(e);
    }
    return run;
}

RawRun
outcomeRun(Outcome outcome)
{
    RawRun run;
    run.outcome = outcome;
    run.strike.timeFraction = 0.5;
    return run;
}

CampaignRaw
campaignOf(std::vector<RawRun> runs)
{
    CampaignRaw raw;
    raw.deviceName = "K40";
    raw.workloadName = "DGEMM";
    raw.inputLabel = "8x8";
    raw.sim.seed = 5;
    raw.sensitiveAreaAu = 1.5;
    for (size_t i = 0; i < runs.size(); ++i)
        runs[i].index = i;
    raw.runs = std::move(runs);
    raw.sim.faultyRuns = raw.runs.size();
    return raw;
}

/**
 * Writes `raw` at slice lengths 1, 2, 3 and 7, inline and on 3 and
 * 5 jobs, and expects the bytes of one 512-line slice written
 * inline; the text also parses back to the same records.
 */
void
expectSliceInvariant(const CampaignRaw &raw, const char *what)
{
    const std::string ref = written(raw);
    EXPECT_EQ(written(parse(ref)), ref) << what;
    for (uint64_t slice : {1u, 2u, 3u, 7u}) {
        EXPECT_EQ(written(raw, slice), ref)
            << what << ", " << slice << "-line slices inline";
        for (unsigned jobs : {3u, 5u}) {
            WorkerPool pool(jobs);
            ScopedBuildPool attach(pool);
            EXPECT_EQ(written(raw, slice), ref)
                << what << ", " << slice << "-line slices, " << jobs
                << " jobs";
        }
    }
}

TEST(BeamLogSlices, CutsAnywhereInARecord)
{
    // Lines: run 0 is #RUN #DIMS #ERR x4 #END (0-6), run 1 a crash
    // (7-8), run 2 an empty SDC (9-11), run 3 masked (12-13).
    // 1-line slices cut between #RUN and #DIMS; 3-line slices cut
    // inside the #ERR lines (3) and exactly at #END (6); 2-line
    // slices make run 0 four slices long; 7-line slices cut at
    // run 1's #RUN and inside run 2's record.
    expectSliceInvariant(
        campaignOf({sdcRun(4), outcomeRun(Outcome::Crash), sdcRun(0),
                    outcomeRun(Outcome::Masked)}),
        "mixed campaign");
    // One record many slices long at every slice length.
    expectSliceInvariant(campaignOf({sdcRun(40)}), "one long record");
}

TEST(BeamLogSlices, CrashHangOnlyAndOneRunCampaigns)
{
    std::vector<RawRun> detected;
    for (int i = 0; i < 9; ++i)
        detected.push_back(outcomeRun(i % 2 ? Outcome::Hang
                                            : Outcome::Crash));
    expectSliceInvariant(campaignOf(detected), "crash/hang only");
    expectSliceInvariant(campaignOf({outcomeRun(Outcome::Masked)}),
                         "one masked run");
    expectSliceInvariant(campaignOf({sdcRun(1)}), "one SDC run");
    expectSliceInvariant(campaignOf({}), "no runs");
}

TEST(BeamLogSlices, WriterBatchesMatchWholeLog)
{
    // The incremental writer (behind BeamLogSink and the store's
    // save sink) formats each batch in slices on the attached pool.
    const std::string golden = goldenBytes(kGoldens[0]);
    const CampaignRaw raw = parse(golden);
    WorkerPool pool(4);
    ScopedBuildPool attach(pool);
    std::ostringstream out;
    BeamLogWriter writer(out);
    writer.header(raw.deviceName, raw.workloadName, raw.inputLabel,
                  raw.sim.seed, raw.runs.size(), raw.sensitiveAreaAu);
    std::span<const RawRun> runs(raw.runs);
    for (size_t first = 0; first < runs.size(); first += 7)
        writer.append(
            runs.subspan(first, std::min<size_t>(7, runs.size() -
                                                        first)));
    EXPECT_EQ(writer.appended(), raw.runs.size());
    EXPECT_EQ(out.str(), golden);
}

TEST(BeamLogSlices, WriteInsidePoolBodyRunsInline)
{
    // A suite save runs inside a pool body on the worker that
    // simulated it: the formatter must not dispatch on the pool
    // again (forDynamic() is not reentrant), and the bytes stay
    // the same.
    const std::string golden = goldenBytes(kGoldens[0]);
    const CampaignRaw raw = parse(golden);
    WorkerPool pool(4);
    ScopedBuildPool attach(pool);
    // The latch makes every worker take one item, so the thread
    // that attached the pool is certain to write.
    std::latch all_in(4);
    std::vector<std::string> logs(4);
    pool.forDynamic(4, 1, [&](unsigned, uint64_t begin, uint64_t) {
        all_in.arrive_and_wait();
        logs[begin] = written(raw, 3);
    });
    EXPECT_EQ(pool.dispatches(), 1u);
    for (const std::string &log : logs)
        EXPECT_EQ(log, golden);
}

} // anonymous namespace
} // namespace radcrit
