/**
 * @file
 * Tests for the beam-log writer/reader — the canonical
 * (de)serialization of CampaignRaw (paper contribution 2). The key
 * property: analyze(parse(write(raw))) is bit-identical to
 * analyze(raw), so a third party with only the log reproduces every
 * published metric.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hh"
#include "kernels/dgemm.hh"
#include "kernels/lavamd.hh"
#include "logs/beamlog.hh"
#include "metrics/criticality.hh"

namespace radcrit
{
namespace
{

class BeamLogTest : public ::testing::Test
{
  protected:
    DeviceModel device_ = makeK40();
    Dgemm dgemm_{device_, 64, 42};

    CampaignRaw
    campaign(uint64_t runs = 60)
    {
        SimConfig cfg;
        cfg.faultyRuns = runs;
        cfg.seed = 11;
        return simulateCampaign(device_, dgemm_, cfg);
    }

    static CampaignRaw
    roundTrip(const CampaignRaw &raw)
    {
        std::stringstream ss;
        writeBeamLog(raw, ss);
        return readBeamLog(ss);
    }
};

TEST_F(BeamLogTest, RoundTripPreservesRuns)
{
    CampaignRaw raw = campaign();
    CampaignRaw log = roundTrip(raw);

    EXPECT_EQ(log.deviceName, "K40");
    EXPECT_EQ(log.workloadName, "DGEMM");
    EXPECT_EQ(log.sim.seed, 11u);
    EXPECT_EQ(log.sim.faultyRuns, raw.sim.faultyRuns);
    EXPECT_DOUBLE_EQ(log.sensitiveAreaAu, raw.sensitiveAreaAu);
    ASSERT_EQ(log.runs.size(), raw.runs.size());
    for (size_t i = 0; i < raw.runs.size(); ++i) {
        EXPECT_EQ(log.runs[i].index, raw.runs[i].index);
        EXPECT_EQ(log.runs[i].outcome, raw.runs[i].outcome);
        EXPECT_EQ(log.runs[i].strike.resource,
                  raw.runs[i].strike.resource);
        EXPECT_EQ(log.runs[i].strike.manifestation,
                  raw.runs[i].strike.manifestation);
        EXPECT_DOUBLE_EQ(log.runs[i].strike.timeFraction,
                         raw.runs[i].strike.timeFraction);
    }
}

TEST_F(BeamLogTest, SerializationIsAFixedPoint)
{
    // write(parse(write(raw))) == write(raw): %.17g printing makes
    // the textual form a fixed point of the round trip.
    CampaignRaw raw = campaign();
    std::stringstream first;
    writeBeamLog(raw, first);
    std::stringstream second;
    writeBeamLog(roundTrip(raw), second);
    EXPECT_EQ(first.str(), second.str());
}

TEST_F(BeamLogTest, ReanalysisIsBitIdentical)
{
    // The headline guarantee: analysis of the reloaded log matches
    // analysis of the in-memory campaign bit for bit.
    CampaignRaw raw = campaign(100);
    CampaignRaw log = roundTrip(raw);
    AnalysisConfig acfg;
    CampaignResult a = analyzeCampaign(raw, acfg);
    CampaignResult b = analyzeCampaign(log, acfg);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome);
        EXPECT_EQ(a.runs[i].crit.numIncorrect,
                  b.runs[i].crit.numIncorrect);
        EXPECT_EQ(a.runs[i].crit.meanRelErrPct,
                  b.runs[i].crit.meanRelErrPct);
        EXPECT_EQ(a.runs[i].crit.pattern, b.runs[i].crit.pattern);
        EXPECT_EQ(a.runs[i].crit.executionFiltered,
                  b.runs[i].crit.executionFiltered);
    }
    EXPECT_EQ(a.fitTotalAu(true), b.fitTotalAu(true));
    EXPECT_EQ(a.fitTotalAu(false), b.fitTotalAu(false));
}

TEST_F(BeamLogTest, LoggedRecordsMatchCampaignMetrics)
{
    // Stored mismatch records carry the analysis-independent
    // corruption counts verbatim.
    CampaignRaw raw = campaign();
    CampaignRaw log = roundTrip(raw);
    for (size_t i = 0; i < raw.runs.size(); ++i) {
        if (raw.runs[i].outcome != Outcome::Sdc)
            continue;
        EXPECT_EQ(log.runs[i].record.numIncorrect(),
                  raw.runs[i].record.numIncorrect());
        for (const auto &e : log.runs[i].record.elements)
            EXPECT_TRUE(std::isfinite(e.expected));
    }
    EXPECT_EQ(log.count(Outcome::Sdc), raw.count(Outcome::Sdc));
    EXPECT_EQ(log.count(Outcome::Crash),
              raw.count(Outcome::Crash));
}

TEST_F(BeamLogTest, DifferentThresholdsDiffer)
{
    // The whole point of publishing logs: users can apply their
    // own filters, without re-running a kernel.
    CampaignRaw log = roundTrip(campaign(100));
    AnalysisConfig strict_cfg;
    strict_cfg.filterThresholdPct = 0.0;
    AnalysisConfig loose_cfg;
    loose_cfg.filterThresholdPct = 50.0;
    CampaignResult strict = analyzeCampaign(log, strict_cfg);
    CampaignResult loose = analyzeCampaign(log, loose_cfg);
    uint64_t strict_filtered = 0, loose_filtered = 0;
    for (size_t i = 0; i < strict.runs.size(); ++i) {
        strict_filtered += strict.runs[i].crit.executionFiltered;
        loose_filtered += loose.runs[i].crit.executionFiltered;
    }
    EXPECT_EQ(strict_filtered, 0u);
    EXPECT_LE(strict_filtered, loose_filtered);
    EXPECT_GE(strict.fitTotalAu(true), loose.fitTotalAu(true));
}

TEST(BeamLogLargeRecord, RecordLargerThanTheWriteBufferRoundTrips)
{
    // A record this size leaves the writer in several pieces; the
    // bytes must still parse back to exactly the same elements.
    CampaignRaw raw;
    raw.deviceName = "K40";
    raw.workloadName = "DGEMM";
    raw.inputLabel = "4096x4096";
    RawRun run;
    run.outcome = Outcome::Sdc;
    run.record.extent = {4096, 4096, 1};
    for (int64_t i = 0; i < 5000; ++i) {
        CorruptedElement e;
        e.coord = {i % 4096, i / 4096, 0};
        e.read = 1.0 / static_cast<double>(i + 3);
        e.expected = -static_cast<double>(i) * 1e-7;
        run.record.elements.push_back(e);
    }
    raw.runs.push_back(run);
    raw.sim.faultyRuns = 1;

    std::stringstream first;
    writeBeamLog(raw, first);
    ASSERT_GT(first.str().size(), 4u * 64 * 1024);
    std::stringstream in(first.str());
    CampaignRaw back = readBeamLog(in);
    ASSERT_EQ(back.runs.size(), 1u);
    const auto &got = back.runs[0].record.elements;
    ASSERT_EQ(got.size(), run.record.elements.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].coord, run.record.elements[i].coord);
        EXPECT_EQ(got[i].read, run.record.elements[i].read);
        EXPECT_EQ(got[i].expected, run.record.elements[i].expected);
    }
    std::stringstream second;
    writeBeamLog(back, second);
    EXPECT_EQ(second.str(), first.str());
}

TEST(BeamLog3dTest, LavaMdRoundTripKeepsBoxCoordinates)
{
    // 3D records (LavaMD box space, duplicate coordinates for
    // particles sharing a box) must survive the log round trip.
    DeviceModel device = makeXeonPhi();
    LavaMd lava(device, 5, 42, 2, 4, 11);
    SimConfig cfg;
    cfg.faultyRuns = 60;
    cfg.seed = 23;
    CampaignRaw raw = simulateCampaign(device, lava, cfg);
    CampaignResult res = analyzeCampaign(raw, AnalysisConfig{});

    std::stringstream ss;
    writeBeamLog(raw, ss);
    CampaignRaw log = readBeamLog(ss);
    ASSERT_EQ(log.runs.size(), raw.runs.size());
    bool saw_sdc = false;
    for (size_t i = 0; i < raw.runs.size(); ++i) {
        if (raw.runs[i].outcome != Outcome::Sdc)
            continue;
        saw_sdc = true;
        const SdcRecord &rec = log.runs[i].record;
        EXPECT_EQ(rec.dims, 3);
        EXPECT_EQ(rec.extent[2], 5);
        EXPECT_EQ(rec.numIncorrect(),
                  res.runs[i].crit.numIncorrect);
        // Re-analysis of the reloaded record reproduces the
        // campaign's locality classification.
        CriticalityReport crit = analyzeCriticality(rec);
        EXPECT_EQ(crit.pattern, res.runs[i].crit.pattern);
        EXPECT_NEAR(crit.meanRelErrPct,
                    res.runs[i].crit.meanRelErrPct,
                    1e-9 * (1.0 + crit.meanRelErrPct));
    }
    EXPECT_TRUE(saw_sdc);
}

TEST(BeamLogParseDeathTest, MissingHeaderFatal)
{
    std::stringstream ss("#RUN idx=0 outcome=Masked "
                         "resource=RegisterFile "
                         "manifestation=BitFlipValue t=0.5 "
                         "burst=1 entropy=1\n#END idx=0\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "no #HEADER");
}

TEST(BeamLogParseDeathTest, VersionMismatchFatal)
{
    std::stringstream ss(
        "#HEADER version=1 device=K40 workload=DGEMM input=x "
        "seed=1 runs=0 sensitive_area_au=1\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "unsupported beam-log version 1");
}

TEST(BeamLogParseDeathTest, TruncatedRunFatal)
{
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=1 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=SDC resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(BeamLogParseDeathTest, RunCountMismatchFatal)
{
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=2 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=Masked resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
        "#END idx=0\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "declares 2 runs but contains 1");
}

TEST(BeamLogParseDeathTest, UnknownKeywordFatal)
{
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=0 sensitive_area_au=1\n"
        "#WHAT is=this\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "unknown beam-log keyword");
}

TEST(BeamLogParseDeathTest, MalformedFieldFatal)
{
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=1 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=Nonsense resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
        "#END idx=0\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "unknown outcome");
}

TEST(BeamLogParseDeathTest, MidRecordEofPinsRunIndex)
{
    // The exact diagnostic matters: the campaign store's
    // quarantine reason and tools parsing stderr both key on it.
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=2 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=Masked resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
        "#END idx=0\n"
        "#RUN idx=1 outcome=SDC resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n"
        "#DIMS dims=2 x=4 y=4 z=1\n");
    EXPECT_EXIT(readBeamLog(ss), ::testing::ExitedWithCode(1),
                "beam log truncated inside run 1");
}

TEST(BeamLogTolerantRead, NulloptCarriesTheFatalDiagnostic)
{
    // tryReadBeamLog() is the store's recovery path: same parse,
    // same message, no process exit.
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=1 sensitive_area_au=1\n"
        "#RUN idx=0 outcome=SDC resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=1\n");
    std::string error;
    EXPECT_FALSE(tryReadBeamLog(ss, &error).has_value());
    EXPECT_EQ(error, "beam log truncated inside run 0");
}

TEST(BeamLogTolerantRead, GoodInputParsesLikeStrictRead)
{
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 64, 42);
    SimConfig cfg;
    cfg.faultyRuns = 20;
    cfg.seed = 11;
    CampaignRaw raw = simulateCampaign(device, dgemm, cfg);
    std::stringstream ss;
    writeBeamLog(raw, ss);
    std::string error;
    std::optional<CampaignRaw> log = tryReadBeamLog(ss, &error);
    ASSERT_TRUE(log.has_value()) << error;
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(log->runs.size(), raw.runs.size());
}

TEST(BeamLogTolerantRead, UnreadableFileReportsOpenFailure)
{
    std::string error;
    EXPECT_FALSE(
        tryReadBeamLogFile("/nonexistent/dir/x.beamlog", &error)
            .has_value());
    EXPECT_NE(error.find("cannot open beam log"),
              std::string::npos);
}

/**
 * One-run log whose #RUN line carries `run_fields` and whose SDC
 * record is `#DIMS dims_line` plus `#ERR err_line`.
 */
std::string
oneRunLog(const std::string &run_fields,
          const std::string &dims_line = "dims=2 x=4 y=4 z=1",
          const std::string &err_line =
              "x=1 y=2 z=0 read=1.5 expected=1")
{
    return "#HEADER version=2 device=K40 workload=DGEMM input=x "
           "seed=1 runs=1 sensitive_area_au=1\n"
           "#RUN " + run_fields + "\n"
           "#DIMS " + dims_line + "\n"
           "#ERR " + err_line + "\n"
           "#END idx=0\n";
}

const std::string goodRun =
    "idx=0 outcome=SDC resource=RegisterFile "
    "manifestation=BitFlipValue t=0.5 burst=1 entropy=7";

/** @return the diagnostic of a failed tolerant read ("" on success). */
std::string
parseError(const std::string &text)
{
    std::stringstream ss(text);
    std::string error;
    if (tryReadBeamLog(ss, &error).has_value())
        return "";
    EXPECT_FALSE(error.empty());
    return error;
}

TEST(BeamLogGrammar, GoodOneRunLogParses)
{
    EXPECT_EQ(parseError(oneRunLog(goodRun)), "");
}

TEST(BeamLogGrammar, FieldsInAnyOrderLastDuplicateWins)
{
    std::stringstream ss(oneRunLog(
        "entropy=9 burst=3 t=0.25 manifestation=StaleData "
        "resource=L2Cache outcome=SDC idx=0 burst=5",
        "z=1 y=3 x=2 dims=2",
        "expected=2 read=4 z=0 y=1 x=0 read=8"));
    CampaignRaw raw = readBeamLog(ss);
    ASSERT_EQ(raw.runs.size(), 1u);
    const RawRun &run = raw.runs[0];
    EXPECT_EQ(run.strike.burstBits, 5u);
    EXPECT_EQ(run.strike.entropy, 9u);
    EXPECT_EQ(run.strike.resource, ResourceKind::L2Cache);
    EXPECT_EQ(run.strike.manifestation, Manifestation::StaleData);
    EXPECT_EQ(run.record.extent[0], 2);
    ASSERT_EQ(run.record.elements.size(), 1u);
    EXPECT_EQ(run.record.elements[0].read, 8.0);
    EXPECT_EQ(run.record.elements[0].expected, 2.0);
}

/** @return the log parsed and written back. */
std::string
reserialized(const std::string &text)
{
    std::stringstream in(text);
    std::stringstream out;
    writeBeamLog(readBeamLog(in), out);
    return out.str();
}

TEST(BeamLogGrammar, ErrLineSpellingsParseLikeTheWriterLayout)
{
    // An #ERR line in the writer's layout is parsed in place; every
    // other spelling the grammar allows goes through the general
    // parser, and both must give the same element.
    const std::string layout = "x=1 y=2 z=0 read=1.5 expected=-0.25";
    const std::string want =
        reserialized(oneRunLog(goodRun, "dims=2 x=4 y=4 z=1", layout));
    ASSERT_NE(want.find("#ERR " + layout + "\n"), std::string::npos);
    for (const std::string err : {
             "expected=-0.25 read=1.5 z=0 y=2 x=1",
             "x=3 y=2 z=0 read=9 expected=-0.25 x=1 read=1.5",
             "x=1\ty=2\tz=0\tread=1.5\texpected=-0.25",
             "x=1  y=2 z=0 read=1.5 expected=-0.25",
             "x=1 y=2 z=0 read=1.5 expected=-0.25 note=extra",
             "x=1 y=2 z=0 read=1.5 expected=-0.25 ",
             "x=1 y=2 z=0 read=1.5 expected=-0.25\r",
         })
        EXPECT_EQ(reserialized(oneRunLog(
                      goodRun, "dims=2 x=4 y=4 z=1", err)),
                  want)
            << err;

    // CRLF line ends throughout, and a last line without '\n'.
    std::string crlf;
    for (char c : oneRunLog(goodRun, "dims=2 x=4 y=4 z=1", layout))
        crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
    EXPECT_EQ(reserialized(crlf), want);
    EXPECT_EQ(reserialized(want.substr(0, want.size() - 1)), want);
}

TEST(BeamLogGrammar, ErrLineInTheWriterLayoutKeepsItsDiagnostics)
{
    // A line that looks like the writer's layout but holds a number
    // that overflows, stops early or carries trailing bytes gets the
    // general parser's diagnostic, word for word.
    const std::vector<std::pair<std::string, std::string>> cases{
        {"x=99999999999999999999 y=2 z=0 read=1.5 expected=1",
         "bad integer '99999999999999999999'"},
        {"x=1 y=2 z=0 read=1e999 expected=1", "bad number '1e999'"},
        {"x=1 y=2 z=0 read=1.5 expected=1e", "bad number '1e'"},
        {"x=1 y=2 z=0 read=1.5 expected=1x", "bad number '1x'"},
        {"x=1 y=2 z=0 read=- expected=1", "bad number '-'"},
        {"x=1 y= z=0 read=1.5 expected=1", "bad integer ''"},
        {"x=1 y=2.5 z=0 read=1.5 expected=1", "bad integer '2.5'"},
        {"x=1 y=2 z=0 read=1.5 expected=+1", "bad number '+1'"},
    };
    for (const auto &[err, what] : cases)
        EXPECT_EQ(parseError(oneRunLog(goodRun, "dims=2 x=4 y=4 z=1",
                                       err)),
                  what + " in line: #ERR " + err);

    std::string text = oneRunLog(goodRun);
    size_t run = text.find("#RUN");
    std::string outside = text.substr(0, run) +
        "#ERR x=1 y=2 z=0 read=1.5 expected=1\n" + text.substr(run);
    EXPECT_EQ(parseError(outside),
              "#ERR outside a run: "
              "#ERR x=1 y=2 z=0 read=1.5 expected=1");
}

TEST(BeamLogGrammar, UnknownResourceIsADiagnostic)
{
    // Not fatal(): the store quarantines such an entry and
    // re-simulates it.
    std::string error = parseError(oneRunLog(
        "idx=0 outcome=SDC resource=Bogus "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=7"));
    EXPECT_NE(error.find("unknown resource 'Bogus'"),
              std::string::npos)
        << error;
}

TEST(BeamLogGrammar, EntropyMustBeANumber)
{
    std::string error = parseError(oneRunLog(
        "idx=0 outcome=SDC resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=1 entropy=xyz"));
    EXPECT_NE(error.find("bad integer 'xyz'"), std::string::npos)
        << error;
}

TEST(BeamLogGrammar, CoordinateMustBeAWholeToken)
{
    std::string error = parseError(oneRunLog(
        goodRun, "dims=2 x=4 y=4 z=1",
        "x=12abc y=2 z=0 read=1.5 expected=1"));
    EXPECT_NE(error.find("bad integer '12abc'"), std::string::npos)
        << error;
}

TEST(BeamLogGrammar, BurstMustFitItsField)
{
    std::string error = parseError(oneRunLog(
        "idx=0 outcome=SDC resource=RegisterFile "
        "manifestation=BitFlipValue t=0.5 burst=4294967296 "
        "entropy=7"));
    EXPECT_NE(error.find("bad integer '4294967296'"),
              std::string::npos)
        << error;
}

TEST(BeamLogGrammar, DimsMustFitAnInt)
{
    std::string error = parseError(
        oneRunLog(goodRun, "dims=2147483648 x=4 y=4 z=1"));
    EXPECT_NE(error.find("bad integer '2147483648'"),
              std::string::npos)
        << error;
}

TEST(BeamLogGrammar, DoublesMustBeWholeTokens)
{
    std::string error = parseError(oneRunLog(
        goodRun, "dims=2 x=4 y=4 z=1",
        "x=1 y=2 z=0 read=1.5x expected=1"));
    EXPECT_NE(error.find("bad number '1.5x'"), std::string::npos)
        << error;
}

TEST(BeamLogGrammar, EndMustCloseTheOpenRun)
{
    std::string text = oneRunLog(goodRun);
    text.replace(text.rfind("idx=0"), 5, "idx=3");
    std::string error = parseError(text);
    EXPECT_NE(error.find("#END does not close the open #RUN"),
              std::string::npos)
        << error;
}

TEST(BeamLogGrammar, HeaderMustComeFirst)
{
    std::string text = oneRunLog(goodRun);
    size_t eol = text.find('\n') + 1;
    std::string moved = text.substr(eol) + text.substr(0, eol);
    EXPECT_NE(parseError(moved).find("no #HEADER"),
              std::string::npos);
}

TEST(BeamLogGrammar, HugeDeclaredRunCountIsAMismatchNotAnAllocation)
{
    // A streamed read reserves batch room from the header's run
    // count; a hostile count must end as the count diagnostic.
    std::stringstream ss(
        "#HEADER version=2 device=K40 workload=DGEMM input=x "
        "seed=1 runs=18446744073709551615 sensitive_area_au=1\n" +
        oneRunLog(goodRun).substr(oneRunLog(goodRun).find('\n') + 1));
    BeamLogSource source(ss, 0);
    RunBatch batch;
    try {
        while (source.next(batch)) {
        }
        FAIL() << "accepted a log with a wrong run count";
    } catch (const BeamLogParseError &e) {
        EXPECT_NE(std::string(e.what()).find("contains 1"),
                  std::string::npos)
            << e.what();
    }
}

} // anonymous namespace
} // namespace radcrit
