/**
 * @file
 * Tests for the harness-fault injection layer: seeded chaos plans
 * (deterministic, distinct items, spec round-trip), the live
 * ChaosEngine hooks, runGuarded()'s retry/quarantine semantics,
 * the pool watchdog, and end-to-end campaign behavior under
 * transient and permanent injected faults.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/series.hh"
#include "exec/chaos.hh"
#include "exec/pool.hh"
#include "kernels/dgemm.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{
namespace
{

TEST(ChaosPlan, IdenticalParamsYieldIdenticalPlans)
{
    ChaosPlanParams params;
    params.seed = 42;
    params.runs = 300;
    params.throws = 3;
    params.stalls = 2;
    params.corrupts = 1;
    params.attempts = 2;
    ChaosPlan a = makeChaosPlan(params);
    ChaosPlan b = makeChaosPlan(params);
    ASSERT_EQ(a.faults.size(), 6u);
    ASSERT_EQ(a.faults.size(), b.faults.size());
    for (size_t i = 0; i < a.faults.size(); ++i) {
        EXPECT_EQ(a.faults[i].kind, b.faults[i].kind);
        EXPECT_EQ(a.faults[i].item, b.faults[i].item);
        EXPECT_EQ(a.faults[i].attempts, b.faults[i].attempts);
        EXPECT_EQ(a.faults[i].stallNs, b.faults[i].stallNs);
    }

    // The seed moves the plan.
    ChaosPlanParams other = params;
    other.seed = 43;
    ChaosPlan c = makeChaosPlan(other);
    bool differs = false;
    for (size_t i = 0; i < a.faults.size(); ++i)
        differs |= a.faults[i].item != c.faults[i].item;
    EXPECT_TRUE(differs);
}

TEST(ChaosPlan, RunFaultsLandOnDistinctItems)
{
    ChaosPlanParams params;
    params.seed = 7;
    params.runs = 10;
    params.throws = 5;
    params.stalls = 5;
    ChaosPlan plan = makeChaosPlan(params);
    std::set<uint64_t> items;
    for (const ChaosFault &fault : plan.faults) {
        EXPECT_LT(fault.item, params.runs);
        EXPECT_TRUE(items.insert(fault.item).second)
            << "item " << fault.item << " drawn twice";
    }
    EXPECT_EQ(items.size(), 10u);
}

TEST(ChaosPlan, CorruptWritesTakeLeadingOrdinals)
{
    ChaosPlanParams params;
    params.corrupts = 3;
    ChaosPlan plan = makeChaosPlan(params);
    std::vector<uint64_t> ordinals;
    for (const ChaosFault &fault : plan.faults) {
        if (fault.kind == ChaosFaultKind::CorruptWrite)
            ordinals.push_back(fault.item);
    }
    EXPECT_EQ(ordinals, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(ChaosPlan, MorefaultsThanRunsIsFatal)
{
    ChaosPlanParams params;
    params.runs = 3;
    params.throws = 2;
    params.stalls = 2;
    EXPECT_EXIT(makeChaosPlan(params),
                ::testing::ExitedWithCode(1), "run faults");
}

TEST(ChaosPlan, DescribeListsEveryFault)
{
    ChaosPlan plan;
    plan.faults.push_back(
        {ChaosFaultKind::Throw, 16, 2, 0});
    plan.faults.push_back(
        {ChaosFaultKind::CorruptWrite, 0, 1, 0});
    std::string desc = plan.describe();
    EXPECT_NE(desc.find("2 fault(s)"), std::string::npos);
    EXPECT_NE(desc.find("throw@16x2"), std::string::npos);
    EXPECT_NE(desc.find("corrupt-write@0"), std::string::npos);
    EXPECT_EQ(ChaosPlan{}.describe(), "chaos plan: empty");
}

TEST(ChaosSpec, RoundTripsThroughCanonicalString)
{
    ChaosPlanParams params;
    params.seed = 42;
    params.runs = 300;
    params.throws = 3;
    params.stalls = 1;
    params.corrupts = 1;
    params.attempts = 2;
    params.stallNs = 50'000'000;
    std::string spec = chaosSpec(params);
    std::optional<ChaosPlanParams> back = parseChaosSpec(spec);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->seed, params.seed);
    EXPECT_EQ(back->runs, params.runs);
    EXPECT_EQ(back->throws, params.throws);
    EXPECT_EQ(back->stalls, params.stalls);
    EXPECT_EQ(back->corrupts, params.corrupts);
    EXPECT_EQ(back->attempts, params.attempts);
    EXPECT_EQ(back->stallNs, params.stallNs);
}

TEST(ChaosSpec, EmptySpecMeansChaosOff)
{
    EXPECT_FALSE(parseChaosSpec("").has_value());
}

TEST(ChaosSpec, OmittedKeysKeepDefaults)
{
    std::optional<ChaosPlanParams> p =
        parseChaosSpec("throws=2");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->throws, 2u);
    ChaosPlanParams defaults;
    EXPECT_EQ(p->seed, defaults.seed);
    EXPECT_EQ(p->runs, defaults.runs);
    EXPECT_EQ(p->attempts, defaults.attempts);
    EXPECT_EQ(p->stallNs, defaults.stallNs);
}

TEST(ChaosSpec, UnknownKeyIsFatal)
{
    EXPECT_EXIT(parseChaosSpec("bogus=1"),
                ::testing::ExitedWithCode(1), "unknown key");
    EXPECT_EXIT(parseChaosSpec("seed"),
                ::testing::ExitedWithCode(1), "malformed");
    EXPECT_EXIT(parseChaosSpec("seed=banana"),
                ::testing::ExitedWithCode(1), "not a number");
}

TEST(ChaosSpec, HostileValuesAreFatal)
{
    auto rejects = [](const char *spec, const char *why) {
        EXPECT_EXIT(parseChaosSpec(spec),
                    ::testing::ExitedWithCode(1),
                    std::string("chaos spec: .*") + why)
            << spec;
    };
    // Whole unsigned tokens only: no sign, no blanks.
    rejects("runs=-1", "not a number");
    rejects("runs=+5", "not a number");
    rejects("runs= 5", "not a number");
    rejects("runs=5 ", "not a number");
    rejects("seed=18446744073709551616", "out of range");
    rejects("attempts=4294967296", "out of range");
    rejects("stall-ms=18446744073710", "out of range");
    // throws + stalls wraps to 0 in 64 bits.
    rejects("runs=10,throws=9223372036854775808,"
            "stalls=9223372036854775808",
            "run faults");
    rejects("runs=10000,throws=4000,stalls=97", "faults");
    rejects("corrupts=4097", "faults");
    std::optional<ChaosPlanParams> edge = parseChaosSpec(
        "attempts=4294967295,stall-ms=18446744073709,corrupts=4096");
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->attempts, 4294967295u);
    EXPECT_EQ(edge->stallNs, 18446744073709ULL * 1'000'000);
}

TEST(ChaosEngine, ThrowFaultFiresOnPlannedAttemptsOnly)
{
    ChaosPlan plan;
    plan.faults.push_back({ChaosFaultKind::Throw, 5, 2, 0});
    ChaosEngine engine(std::move(plan));

    EXPECT_THROW(engine.onRunAttempt(5, 1), ChaosError);
    EXPECT_THROW(engine.onRunAttempt(5, 2), ChaosError);
    // Attempt 3 is past the fault's budget: the item recovers.
    EXPECT_NO_THROW(engine.onRunAttempt(5, 3));
    // Other items never fire.
    EXPECT_NO_THROW(engine.onRunAttempt(4, 1));
    EXPECT_EQ(engine.thrown(), 2u);
}

TEST(ChaosEngine, FiringDependsOnlyOnItemAndAttempt)
{
    // The same (item, attempt) pair behaves the same no matter how
    // often or in what order the hooks are called — this is what
    // makes injected behavior independent of the worker count.
    ChaosPlan plan;
    plan.faults.push_back({ChaosFaultKind::Throw, 2, 1, 0});
    ChaosEngine engine(std::move(plan));
    EXPECT_NO_THROW(engine.onRunAttempt(0, 1));
    EXPECT_THROW(engine.onRunAttempt(2, 1), ChaosError);
    EXPECT_NO_THROW(engine.onRunAttempt(1, 1));
    EXPECT_THROW(engine.onRunAttempt(2, 1), ChaosError);
    EXPECT_NO_THROW(engine.onRunAttempt(2, 2));
}

TEST(ChaosEngine, CorruptWriteMatchesByOrdinal)
{
    ChaosPlan plan;
    plan.faults.push_back({ChaosFaultKind::CorruptWrite, 1, 1, 0});
    ChaosEngine engine(std::move(plan));
    EXPECT_FALSE(engine.shouldCorruptWrite("store"));
    EXPECT_TRUE(engine.shouldCorruptWrite("store"));
    EXPECT_FALSE(engine.shouldCorruptWrite("checkpoint"));
    EXPECT_EQ(engine.corrupted(), 1u);
}

TEST(ChaosGlobal, SetChaosInstallsAndClears)
{
    EXPECT_EQ(chaos(), nullptr);
    ChaosEngine engine{ChaosPlan{}};
    EXPECT_EQ(setChaos(&engine), nullptr);
    EXPECT_EQ(chaos(), &engine);
    EXPECT_EQ(setChaos(nullptr), &engine);
    EXPECT_EQ(chaos(), nullptr);
}

TEST(RunGuarded, CleanBodySucceedsFirstAttempt)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    unsigned calls = 0;
    GuardReport report =
        runGuarded(policy, [&](unsigned) { ++calls; });
    EXPECT_EQ(report.status, GuardStatus::Ok);
    EXPECT_EQ(report.attempts, 1u);
    EXPECT_EQ(report.retries(), 0u);
    EXPECT_EQ(calls, 1u);
    EXPECT_TRUE(report.error.empty());
}

TEST(RunGuarded, TransientErrorIsRetriedAndAbsorbed)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.backoffBaseNs = 1000; // keep the test fast
    std::vector<unsigned> attempts;
    GuardReport report = runGuarded(policy, [&](unsigned a) {
        attempts.push_back(a);
        if (a < 3)
            throw std::runtime_error("flaky");
    });
    EXPECT_EQ(report.status, GuardStatus::Ok);
    EXPECT_EQ(report.attempts, 3u);
    EXPECT_EQ(report.retries(), 2u);
    EXPECT_EQ(attempts, (std::vector<unsigned>{1, 2, 3}));
}

TEST(RunGuarded, ExhaustedBudgetQuarantinesWithLastError)
{
    RetryPolicy policy;
    policy.maxAttempts = 2;
    policy.backoffBaseNs = 1000;
    GuardReport report = runGuarded(policy, [](unsigned a) {
        throw std::runtime_error(
            "boom attempt " + std::to_string(a));
    });
    EXPECT_EQ(report.status, GuardStatus::Error);
    EXPECT_EQ(report.attempts, 2u);
    EXPECT_EQ(report.error, "boom attempt 2");
}

TEST(RunGuarded, DeadlineOverrunClassifiesAsTimeout)
{
    RetryPolicy policy;
    policy.maxAttempts = 2;
    policy.softDeadlineNs = 1; // any real body overruns this
    policy.backoffBaseNs = 1000;
    GuardReport report = runGuarded(policy, [](unsigned) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2));
    });
    EXPECT_EQ(report.status, GuardStatus::Timeout);
    EXPECT_EQ(report.attempts, 2u);
}

TEST(RunGuarded, StatusNamesAreStable)
{
    EXPECT_STREQ(guardStatusName(GuardStatus::Ok), "ok");
    EXPECT_STREQ(guardStatusName(GuardStatus::Error), "error");
    EXPECT_STREQ(guardStatusName(GuardStatus::Timeout),
                 "timeout");
}

TEST(WatchdogTest, FlagsItemStuckPastDeadline)
{
    uint64_t before = StatsRegistry::global()
                          .counter("resilience.watchdog.overdue")
                          .value();
    Watchdog dog(2, 5'000'000 /* 5 ms */, 1'000'000 /* 1 ms */);
    dog.beginItem(0, 17);
    // Give the monitor ample margin over deadline + poll interval:
    // it must flag the in-flight item at least once (and only
    // once — re-flagging the same in-flight item would inflate the
    // counter).
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    dog.endItem(0);
    EXPECT_EQ(dog.overdue(), 1u);
    EXPECT_EQ(StatsRegistry::global()
                  .counter("resilience.watchdog.overdue")
                  .value(),
              before + 1);
}

TEST(WatchdogTest, IdleAndFastWorkersAreNeverFlagged)
{
    Watchdog dog(2, 50'000'000 /* 50 ms */, 1'000'000);
    dog.beginItem(0, 3);
    dog.endItem(0); // finished well within the deadline
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(dog.overdue(), 0u);
}

class ChaosCampaignTest : public ::testing::Test
{
  protected:
    void TearDown() override { setChaos(nullptr); }

    CampaignConfig
    config(uint64_t runs, unsigned jobs)
    {
        CampaignConfig cfg;
        cfg.sim.faultyRuns = runs;
        cfg.sim.seed = 7;
        cfg.sim.jobs = jobs;
        return cfg;
    }

    DeviceModel device_ = makeK40();
};

/** One big string of every runRows() cell, for byte comparison. */
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

TEST_F(ChaosCampaignTest, TransientFaultsAreAbsorbedBitIdentically)
{
    Dgemm clean(device_, 64, 42);
    CampaignResult base =
        runCampaign(device_, clean, config(40, 2));

    ChaosPlanParams params;
    params.seed = 11;
    params.runs = 40;
    params.throws = 4;
    params.attempts = 2; // below the default budget of 3
    ChaosEngine engine(makeChaosPlan(params));
    setChaos(&engine);
    Dgemm faulty(device_, 64, 42);
    CampaignResult res =
        runCampaign(device_, faulty, config(40, 2));
    setChaos(nullptr);

    EXPECT_EQ(engine.thrown(), 8u); // 4 items x 2 attempts
    EXPECT_EQ(flattenRows(res), flattenRows(base));
    EXPECT_EQ(res.count(Outcome::InfraError), 0u);
    EXPECT_EQ(res.count(Outcome::InfraTimeout), 0u);
    // The absorbed retries are visible in the campaign stats.
    EXPECT_EQ(res.stats.value("resilience.retries"), 8.0);
}

TEST_F(ChaosCampaignTest, PermanentFaultsQuarantinePlannedItems)
{
    ChaosPlanParams params;
    params.seed = 11;
    params.runs = 40;
    params.throws = 3;
    params.attempts = 3; // equals the budget: never succeeds
    ChaosPlan plan = makeChaosPlan(params);
    std::set<uint64_t> doomed;
    for (const ChaosFault &fault : plan.faults)
        doomed.insert(fault.item);

    ChaosEngine engine(plan);
    setChaos(&engine);
    Dgemm dgemm(device_, 64, 42);
    CampaignResult res =
        runCampaign(device_, dgemm, config(40, 4));
    setChaos(nullptr);

    EXPECT_EQ(res.count(Outcome::InfraError), 3u);
    ASSERT_EQ(res.runs.size(), 40u);
    for (uint64_t i = 0; i < res.runs.size(); ++i) {
        if (doomed.count(i)) {
            EXPECT_EQ(res.runs[i].outcome, Outcome::InfraError)
                << "run " << i;
        } else {
            EXPECT_NE(res.runs[i].outcome, Outcome::InfraError)
                << "run " << i;
        }
    }
}

} // anonymous namespace
} // namespace radcrit
