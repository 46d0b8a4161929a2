/**
 * @file
 * Golden-snapshot regression of the figure CSV artifacts and the
 * per-run CSV rows. Each test rebuilds, in-process and at reduced
 * scale, exactly the rows the fig2-fig8 bench harnesses dump
 * (scatter: device/input/numIncorrect/meanRelErrPct; locality:
 * FIT-by-pattern with and without the filter) plus runRows(), and
 * compares them cell-by-cell against committed goldens in
 * tests/goldens/. Campaigns are bit-identical for any worker
 * count, so these snapshots are stable across machines and jobs
 * settings.
 *
 * Re-bless after an intentional change with tools/regen_goldens.sh
 * (drives RADCRIT_REGEN_GOLDENS=1 through this binary).
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/paperconfigs.hh"
#include "campaign/runner.hh"
#include "campaign/series.hh"
#include "check/golden.hh"
#include "common/table.hh"
#include "logs/beamlog.hh"
#include "kernels/clamr.hh"
#include "kernels/dgemm.hh"
#include "kernels/hotspot.hh"
#include "kernels/lavamd.hh"

#ifndef RADCRIT_GOLDEN_DIR
#define RADCRIT_GOLDEN_DIR "tests/goldens"
#endif

namespace radcrit
{
namespace
{

constexpr uint64_t kRuns = 120;

std::unique_ptr<Workload>
makeSmall(const std::string &name, const DeviceModel &device)
{
    if (name == "DGEMM")
        return std::make_unique<Dgemm>(device, 64, 42);
    if (name == "LavaMD")
        return std::make_unique<LavaMd>(device, 5, 42, 2, 4, 11);
    if (name == "HotSpot")
        return std::make_unique<HotSpot>(device, 64, 64, 42);
    return std::make_unique<Clamr>(device, 64, 64, 42);
}

/** One small campaign per device, cached across tests. */
const std::vector<CampaignResult> &
campaignsFor(const std::string &workload_name)
{
    static std::map<std::string, std::vector<CampaignResult>>
        cache;
    auto it = cache.find(workload_name);
    if (it != cache.end())
        return it->second;
    std::vector<CampaignResult> results;
    for (DeviceId id : {DeviceId::K40, DeviceId::XeonPhi}) {
        DeviceModel device = makeDevice(id);
        auto workload = makeSmall(workload_name, device);
        CampaignConfig cfg = defaultCampaign(
            kRuns, device.name, workload->name(),
            workload->inputLabel());
        results.push_back(runCampaign(device, *workload, cfg));
    }
    return cache.emplace(workload_name, std::move(results))
        .first->second;
}

std::string
goldenPath(const std::string &file)
{
    return check::goldenDir(RADCRIT_GOLDEN_DIR) + "/" + file;
}

/** The rows renderScatterFigure() writes as CSV. */
check::Table
scatterTable(const std::vector<CampaignResult> &results)
{
    check::Table rows;
    rows.push_back(
        {"device", "input", "numIncorrect", "meanRelErrPct"});
    for (const auto &res : results) {
        ScatterSeries s = scatterSeries(res);
        for (size_t i = 0; i < s.xs.size(); ++i) {
            rows.push_back({res.deviceName, res.inputLabel,
                            TextTable::num(s.xs[i], 0),
                            TextTable::num(s.ys[i], 4)});
        }
    }
    return rows;
}

/** The rows renderLocalityFigure() writes as CSV. */
check::Table
localityTable(const std::vector<CampaignResult> &results,
              const std::vector<Pattern> &patterns)
{
    check::Table rows;
    std::vector<std::string> header{"device", "input",
                                    "filtered"};
    for (Pattern p : patterns)
        header.push_back(patternName(p));
    header.push_back("total");
    rows.push_back(header);
    for (const auto &res : results) {
        for (bool filtered : {false, true}) {
            FitBreakdown bd = res.fitByPattern(filtered);
            std::vector<std::string> row{res.deviceName,
                                         res.inputLabel,
                                         filtered ? "yes" : "no"};
            for (Pattern p : patterns)
                row.push_back(TextTable::num(bd.of(p), 4));
            row.push_back(TextTable::num(bd.total(), 4));
            rows.push_back(row);
        }
    }
    return rows;
}

void
expectGolden(const std::string &file, const check::Table &actual)
{
    check::GoldenResult r =
        check::compareGolden(goldenPath(file), actual);
    EXPECT_TRUE(r) << r.message;
    if (r.regenerated)
        GTEST_SKIP() << r.message;
}

TEST(GoldenFigures, Fig2DgemmScatter)
{
    expectGolden("fig2_dgemm_scatter.csv",
                 scatterTable(campaignsFor("DGEMM")));
}

TEST(GoldenFigures, Fig3DgemmLocality)
{
    expectGolden("fig3_dgemm_locality.csv",
                 localityTable(campaignsFor("DGEMM"),
                               patterns2d()));
}

TEST(GoldenFigures, Fig4LavamdScatter)
{
    expectGolden("fig4_lavamd_scatter.csv",
                 scatterTable(campaignsFor("LavaMD")));
}

TEST(GoldenFigures, Fig5LavamdLocality)
{
    expectGolden("fig5_lavamd_locality.csv",
                 localityTable(campaignsFor("LavaMD"),
                               patterns3d()));
}

TEST(GoldenFigures, Fig6HotspotScatter)
{
    expectGolden("fig6_hotspot_scatter.csv",
                 scatterTable(campaignsFor("HotSpot")));
}

TEST(GoldenFigures, Fig7HotspotLocality)
{
    expectGolden("fig7_hotspot_locality.csv",
                 localityTable(campaignsFor("HotSpot"),
                               patterns2d()));
}

TEST(GoldenFigures, Fig8ClamrScatter)
{
    expectGolden("fig8_clamr_scatter.csv",
                 scatterTable(campaignsFor("CLAMR")));
}

TEST(GoldenRunRows, DgemmK40PerRunCsv)
{
    const CampaignResult &res = campaignsFor("DGEMM").front();
    check::Table rows;
    rows.push_back(runRowsHeader());
    for (auto &row : runRows(res))
        rows.push_back(std::move(row));
    expectGolden("runrows_dgemm_k40.csv", rows);
}

/**
 * One line per row of the serialized beam log of a campaign; a
 * non-zero `seed` replaces the label-derived campaign seed.
 */
check::Table
beamLogTable(DeviceId id, const std::string &workload_name,
             uint64_t runs, uint64_t seed = 0)
{
    DeviceModel device = makeDevice(id);
    auto workload = makeSmall(workload_name, device);
    CampaignConfig cfg = defaultCampaign(
        runs, device.name, workload->name(),
        workload->inputLabel());
    if (seed != 0)
        cfg.sim.seed = seed;
    CampaignRaw raw = simulateCampaign(device, *workload,
                                       cfg.sim);
    std::stringstream ss;
    writeBeamLog(raw, ss);
    check::Table rows;
    std::string line;
    while (std::getline(ss, line))
        rows.push_back({line});
    return rows;
}

TEST(GoldenBeamLog, DgemmK40Artifact)
{
    // The serialized beam log is itself a published artifact
    // (paper contribution 2): its textual form must stay stable
    // line for line, not just analysis-equivalent.
    expectGolden("beamlog_dgemm_k40.beamlog",
                 beamLogTable(DeviceId::K40, "DGEMM", 30));
}

TEST(GoldenBeamLog, HotSpotK40Artifact)
{
    // Every read/expected value at full precision (%.17g), so a
    // one-ulp drift in the stencil replay shows up here even where
    // the 4-decimal fig6 scatter golden cannot see it. Seed 86
    // keeps the log small and makes runs 0, 3, 6 and 7 replays
    // whose state reconverges to a golden checkpoint (logged as
    // Masked); runs 1, 2, 4 and 5 are non-empty SDC records.
    expectGolden("beamlog_hotspot_k40.beamlog",
                 beamLogTable(DeviceId::K40, "HotSpot", 8, 86));
}

TEST(GoldenBeamLog, ClamrXeonPhiArtifact)
{
    // Seed 68: two WrongOperation replays (runs 0 and 2, which
    // perturb height and both momenta) and one crash.
    expectGolden("beamlog_clamr_xeonphi.beamlog",
                 beamLogTable(DeviceId::XeonPhi, "CLAMR", 3, 68));
}

/**
 * A hand-built campaign whose values sit at the edges of what the
 * beam-log writer prints: signed zeros, infinities, both NaN signs,
 * the smallest subnormal, DBL_MAX, neighbours one ulp apart, and
 * integers at the limits of their fields. The input label needs
 * percent-encoding.
 */
CampaignRaw
specialValuesCampaign()
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    constexpr double tiny = std::numeric_limits<double>::denorm_min();
    constexpr int64_t i64max = std::numeric_limits<int64_t>::max();
    constexpr int64_t i64min = std::numeric_limits<int64_t>::min();

    CampaignRaw raw;
    raw.deviceName = "K40";
    raw.workloadName = "DGEMM";
    raw.inputLabel = "2x2 100%";
    raw.sim.seed = std::numeric_limits<uint64_t>::max();
    raw.sensitiveAreaAu = std::nextafter(1.0, 2.0);

    RawRun sdc;
    sdc.outcome = Outcome::Sdc;
    sdc.strike.resource = ResourceKind::L2Cache;
    sdc.strike.manifestation = Manifestation::BitFlipValue;
    sdc.strike.timeFraction = std::nextafter(1.0, 0.0);
    sdc.strike.burstBits = std::numeric_limits<uint32_t>::max();
    sdc.strike.entropy = std::numeric_limits<uint64_t>::max();
    sdc.record.dims = 3;
    sdc.record.extent = {i64max, 2, 1};
    const std::pair<double, double> values[] = {
        {0.0, -0.0},
        {inf, -inf},
        {nan, 1.0},
        {-nan, -1.0},
        {tiny, -tiny},
        {DBL_MAX, -DBL_MAX},
        {DBL_MIN, std::nextafter(DBL_MIN, 0.0)},
        {1.0, std::nextafter(1.0, 2.0)},
        {0.1, std::nextafter(0.1, 1.0)},
        {-1e-300, std::nextafter(-1e-300, 0.0)},
        {123456789.0, 1.0 / 3.0},
    };
    int64_t k = 0;
    for (const auto &[read, expected] : values) {
        CorruptedElement e;
        e.coord = {k == 0 ? i64min : k, k == 0 ? i64max : 1, 0};
        e.read = read;
        e.expected = expected;
        sdc.record.elements.push_back(e);
        ++k;
    }
    raw.runs.push_back(sdc);

    RawRun crash;
    crash.outcome = Outcome::Crash;
    crash.strike.resource = ResourceKind::Interconnect;
    crash.strike.manifestation = Manifestation::MisscheduledBlock;
    crash.strike.timeFraction = 0.0;
    crash.strike.burstBits = 0;
    crash.strike.entropy = 0;
    raw.runs.push_back(crash);

    RawRun empty_sdc;
    empty_sdc.outcome = Outcome::Sdc;
    empty_sdc.strike.timeFraction = -0.0;
    empty_sdc.record.dims = 1;
    empty_sdc.record.extent = {0, 1, 1};
    raw.runs.push_back(empty_sdc);

    RawRun masked;
    masked.strike.timeFraction = tiny;
    raw.runs.push_back(masked);

    raw.sim.faultyRuns = raw.runs.size();
    return raw;
}

TEST(GoldenBeamLog, SpecialValues)
{
    // Every value the writer can meet at the edge of its range
    // prints the same bytes as the golden, and parsing the text
    // back then writing it again is a fixed point.
    std::stringstream first;
    writeBeamLog(specialValuesCampaign(), first);
    const std::string text = first.str();
    check::Table rows;
    std::string line;
    while (std::getline(first, line))
        rows.push_back({line});
    expectGolden("beamlog_specials.beamlog", rows);

    std::stringstream in(text);
    std::string error;
    std::optional<CampaignRaw> back = tryReadBeamLog(in, &error);
    ASSERT_TRUE(back.has_value()) << error;
    std::stringstream second;
    writeBeamLog(*back, second);
    EXPECT_EQ(second.str(), text);
}

TEST(GoldenHarness, MissingGoldenExplainsItself)
{
    if (getenv("RADCRIT_REGEN_GOLDENS"))
        GTEST_SKIP() << "regen mode";
    check::GoldenResult r = check::compareGolden(
        goldenPath("no_such_golden.csv"), {{"a", "b"}});
    EXPECT_FALSE(r);
    EXPECT_NE(r.message.find("regen_goldens.sh"),
              std::string::npos)
        << r.message;
}

TEST(GoldenHarness, LongIntegersCompareExactly)
{
    if (getenv("RADCRIT_REGEN_GOLDENS"))
        GTEST_SKIP() << "regen mode";
    // 12-digit integers that share their first 10 digits.
    EXPECT_EQ(check::canonicalCell("317713377123"), "317713377123");
    EXPECT_EQ(check::canonicalCell("+0042"), "42");
    EXPECT_EQ(check::canonicalCell("-0"), "-0");
    EXPECT_EQ(check::canonicalCell("1.50"), "1.5");

    std::string path = ::testing::TempDir() + "radcrit_long_int_" +
        std::to_string(getpid()) + ".csv";
    {
        std::ofstream out(path);
        out << "count\n317713377123\n";
    }
    EXPECT_TRUE(check::compareGolden(path, {{"count"},
                                            {"317713377123"}}));
    check::GoldenResult r = check::compareGolden(
        path, {{"count"}, {"317713377149"}});
    EXPECT_FALSE(r);
    EXPECT_NE(r.message.find("317713377149"), std::string::npos)
        << r.message;
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace radcrit
