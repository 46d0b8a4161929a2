/**
 * @file
 * Property tests for the resilience layer: under ANY all-retryable
 * chaos plan (every fault's attempt budget below the executor's
 * retry budget) a campaign is bit-identical to the same campaign
 * run with no chaos at all, for any worker count — the injected
 * faults are fully absorbed. A second, deliberately falsified
 * property demonstrates that the shrinker reports a minimal
 * failing plan.
 *
 * A mutation fuzz feeds corrupted --chaos specs (sign, blanks,
 * out-of-range and wrapping counts) through parseChaosSpec(): each
 * mutant must either round-trip through chaosSpec() and build its
 * plan, or exit with a "chaos spec:" diagnostic.
 *
 * Each property case runs several full (small) campaigns, so the
 * case count is capped well below the framework default — CI runs
 * the proptest label with RADCRIT_PROPTEST_CASES=2000, which is
 * right for value-level properties but not campaign-level ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/series.hh"
#include "check/prop.hh"
#include "exec/chaos.hh"
#include "kernels/dgemm.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{
namespace
{

/** Campaign-level properties get few cases: each case simulates. */
check::PropConfig
campaignPropConfig(uint64_t max_cases)
{
    check::PropConfig cfg = check::defaultPropConfig();
    if (!cfg.replay)
        cfg.cases = std::min(cfg.cases, max_cases);
    return cfg;
}

std::string
flattenRows(const CampaignResult &res)
{
    std::string out;
    for (const auto &row : runRows(res)) {
        for (const auto &cell : row) {
            out += cell;
            out += '\x1f';
        }
        out += '\n';
    }
    return out;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
        s.compare(s.size() - suffix.size(), suffix.size(),
                  suffix) == 0;
}

/**
 * The deterministic, chaos-blind subset of a campaign stats
 * snapshot: wall-clock entries (".ns" counters, latency ".hist"
 * histograms) vary run to run, and "resilience.*" entries exist
 * precisely because chaos was injected — everything else must be
 * untouched by absorbed faults.
 */
std::vector<StatsSnapshot::Entry>
comparableStats(const StatsSnapshot &snap)
{
    std::vector<StatsSnapshot::Entry> out;
    for (const auto &e : snap.entries) {
        bool timing = endsWith(e.name, ".ns") ||
            endsWith(e.name, ".hist");
        bool resilience = e.name.rfind("resilience.", 0) == 0;
        if (!timing && !resilience)
            out.push_back(e);
    }
    return out;
}

bool
sameComparableStats(const StatsSnapshot &a, const StatsSnapshot &b)
{
    auto da = comparableStats(a);
    auto db = comparableStats(b);
    if (da.size() != db.size())
        return false;
    for (size_t i = 0; i < da.size(); ++i) {
        if (da[i].name != db[i].name ||
            da[i].kind != db[i].kind ||
            da[i].value != db[i].value ||
            da[i].count != db[i].count ||
            da[i].sum != db[i].sum ||
            da[i].buckets != db[i].buckets)
            return false;
    }
    return true;
}

constexpr uint64_t kRuns = 24;

CampaignConfig
campaignConfig(unsigned jobs)
{
    CampaignConfig cfg;
    cfg.sim.faultyRuns = kRuns;
    cfg.sim.seed = 7;
    cfg.sim.jobs = jobs;
    cfg.sim.resilience.maxAttempts = 3;
    cfg.sim.resilience.backoffBaseNs = 1000;
    return cfg;
}

TEST(ChaosProperties, RetryablePlansAreAbsorbedBitIdentically)
{
    DeviceModel device = makeK40();
    Dgemm clean(device, 64, 42);
    CampaignResult base =
        runCampaign(device, clean, campaignConfig(1));
    std::string base_rows = flattenRows(base);

    // (plan seed, throw count): every generated plan is transient
    // because attempts=1 is below the budget of 3.
    auto gen = check::gen::pairOf(
        check::gen::intRange(0, 1'000'000),
        check::gen::intRange(0, 5));

    check::PropResult result =
        check::forAll<std::pair<int64_t, int64_t>>(
            "retryable chaos is invisible", gen,
            std::function<bool(
                const std::pair<int64_t, int64_t> &)>(
                [&](const std::pair<int64_t, int64_t> &value) {
                    ChaosPlanParams params;
                    params.seed =
                        static_cast<uint64_t>(value.first);
                    params.runs = kRuns;
                    params.throws =
                        static_cast<uint64_t>(value.second);
                    params.attempts = 1;
                    for (unsigned jobs : {1u, 2u, 8u}) {
                        ChaosEngine engine(
                            makeChaosPlan(params));
                        setChaos(&engine);
                        Dgemm dgemm(device, 64, 42);
                        CampaignResult res = runCampaign(
                            device, dgemm,
                            campaignConfig(jobs));
                        setChaos(nullptr);
                        if (engine.thrown() !=
                            params.throws)
                            return false;
                        if (flattenRows(res) != base_rows)
                            return false;
                        if (res.count(Outcome::InfraError) ||
                            res.count(Outcome::InfraTimeout))
                            return false;
                        if (!sameComparableStats(base.stats,
                                                 res.stats))
                            return false;
                    }
                    return true;
                }),
            campaignPropConfig(6));
    EXPECT_TRUE(result.ok) << result.message;
    setChaos(nullptr);
}

TEST(ChaosProperties, ShrinkerReportsMinimalFailingPlan)
{
    // A deliberately false property — "a campaign under permanent
    // faults has no quarantined runs" — falsifies on every
    // generated plan; the shrinker must walk the counterexample
    // down to the minimal one: a single fault on run item 0.
    DeviceModel device = makeK40();

    auto items =
        check::gen::vectorOf(check::gen::intRange(0, 11), 1, 4);

    check::PropResult result =
        check::forAll<std::vector<int64_t>>(
            "permanent faults go unnoticed (false)", items,
            std::function<bool(const std::vector<int64_t> &)>(
                [&](const std::vector<int64_t> &value) {
                    ChaosPlan plan;
                    for (int64_t item : value) {
                        ChaosFault fault;
                        fault.kind = ChaosFaultKind::Throw;
                        fault.item =
                            static_cast<uint64_t>(item);
                        fault.attempts = 3; // never recovers
                        plan.faults.push_back(fault);
                    }
                    ChaosEngine engine(std::move(plan));
                    setChaos(&engine);
                    Dgemm dgemm(device, 64, 42);
                    CampaignConfig cfg = campaignConfig(2);
                    cfg.sim.faultyRuns = 12;
                    CampaignResult res =
                        runCampaign(device, dgemm, cfg);
                    setChaos(nullptr);
                    return res.count(Outcome::InfraError) ==
                        0;
                }),
            campaignPropConfig(1));

    ASSERT_FALSE(result.ok);
    // The minimized counterexample is the one-element plan [0],
    // and the report carries the replay seed for this case.
    EXPECT_NE(result.message.find("[0]"), std::string::npos)
        << result.message;
    EXPECT_NE(result.message.find("RADCRIT_PROPTEST_SEED"),
              std::string::npos)
        << result.message;
    setChaos(nullptr);
}

/**
 * Child body of one spec fuzz case: exits 0 when `spec` parses,
 * round-trips through chaosSpec() and builds a plan of the parsed
 * size; a rejected spec exits 1 through fatal() with its
 * "chaos spec:" diagnostic. Any other exit fails the case.
 */
[[noreturn]] void
acceptOrDiagnose(const std::string &spec)
{
    std::optional<ChaosPlanParams> params = parseChaosSpec(spec);
    if (params) {
        std::string canonical = chaosSpec(*params);
        std::optional<ChaosPlanParams> back =
            parseChaosSpec(canonical);
        if (!back || chaosSpec(*back) != canonical) {
            std::fprintf(stderr, "round trip broke: %s\n",
                         canonical.c_str());
            std::_Exit(2);
        }
        // Only parser-accepted params reach makeChaosPlan(), so the
        // plan's size is bounded by maxChaosFaults.
        ChaosPlan plan = makeChaosPlan(*params);
        if (plan.faults.size() !=
            params->throws + params->stalls + params->corrupts) {
            std::fprintf(stderr, "plan size mismatch\n");
            std::_Exit(2);
        }
    }
    std::fprintf(stderr, "chaos spec: accepted\n");
    std::exit(0);
}

bool
acceptedOrRejected(int status)
{
    return ::testing::ExitedWithCode(0)(status) ||
        ::testing::ExitedWithCode(1)(status);
}

TEST(ChaosSpecFuzz, MutantsRoundTripOrExitWithDiagnostic)
{
    const std::vector<std::string> valid = {
        "seed=42,runs=300,throws=3,stalls=1,corrupts=1,attempts=2,"
        "stall-ms=50",
        "throws=2", "runs=5,throws=2,stalls=3",
        "seed=18446744073709551615,attempts=4294967295,"
        "stall-ms=18446744073709",
        "corrupts=4096,runs=0"};
    // Edits that hit the known hazards: signs, blanks, separators,
    // letters, and digit runs that push a count past its range.
    const std::vector<std::string> inserts = {
        "-", "+", " ", "\t", ",", "=", "x", "0", "9", "99999",
        "18446744073709551616", "4294967296", "4097",
        "9223372036854775808", "runs=", ",stalls="};
    Rng rng(0xC4A05);
    uint64_t cases = std::min<uint64_t>(
        check::defaultPropConfig().cases, 300);
    for (uint64_t i = 0; i < cases; ++i) {
        std::string spec = valid[rng.uniformInt(valid.size())];
        uint64_t edits = 1 + rng.uniformInt(3);
        for (uint64_t e = 0; e < edits; ++e) {
            size_t pos = rng.uniformInt(spec.size() + 1);
            const std::string &ins =
                inserts[rng.uniformInt(inserts.size())];
            switch (rng.uniformInt(3)) {
              case 0: // insert
                spec.insert(pos, ins);
                break;
              case 1: // replace one byte
                if (pos < spec.size())
                    spec.replace(pos, 1, ins);
                break;
              default: // delete one byte
                if (pos < spec.size())
                    spec.erase(pos, 1);
                break;
            }
        }
        SCOPED_TRACE("spec: '" + spec + "'");
        EXPECT_EXIT(acceptOrDiagnose(spec), acceptedOrRejected,
                    "chaos spec: ");
    }
}

} // anonymous namespace
} // namespace radcrit
