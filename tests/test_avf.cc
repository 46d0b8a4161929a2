/**
 * @file
 * Tests for AVF estimation and the fault-injector coverage study
 * (paper Section IV-D).
 */

#include <gtest/gtest.h>

#include "avf/avf.hh"
#include "kernels/dgemm.hh"
#include "kernels/lavamd.hh"

namespace radcrit
{
namespace
{

CampaignResult
campaign(const DeviceModel &device, Workload &w,
         uint64_t runs = 300)
{
    CampaignConfig cfg;
    cfg.sim.faultyRuns = runs;
    cfg.sim.seed = 13;
    return runCampaign(device, w, cfg);
}

/**
 * @return the result with one InfraError and one InfraTimeout run
 * appended. Their strikes are the default RawRun strike, a register
 * file one, which no analysis may count.
 */
CampaignResult
withQuarantinedRuns(CampaignResult result)
{
    for (Outcome outcome : {Outcome::InfraError, Outcome::InfraTimeout}) {
        RunRecord run;
        run.index = result.runs.size();
        run.outcome = outcome;
        result.runs.push_back(run);
    }
    return result;
}

TEST(AvfTest, BoundsAndOrdering)
{
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 128, 42);
    auto avfs = computeAvf(withQuarantinedRuns(campaign(device, dgemm)));
    ASSERT_FALSE(avfs.empty());
    uint64_t strikes = 0;
    for (const auto &r : avfs) {
        strikes += r.strikes;
        EXPECT_GE(r.avfAny, 0.0);
        EXPECT_LE(r.avfAny, 1.0);
        // Nesting: critical <= sdc <= any.
        EXPECT_LE(r.avfCritical, r.avfSdc + 1e-12);
        EXPECT_LE(r.avfSdc, r.avfAny + 1e-12);
    }
    EXPECT_EQ(strikes, 300u);
}

TEST(AvfTest, StorageAvfReflectsOutcomeProfile)
{
    // Register-file upsets on the K40 almost always become SDCs
    // for DGEMM (crashExposure 1, pSdc 0.92).
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 128, 42);
    auto avfs = computeAvf(campaign(device, dgemm, 500));
    for (const auto &r : avfs) {
        if (r.resource != ResourceKind::RegisterFile)
            continue;
        ASSERT_GT(r.strikes, 50u);
        EXPECT_GT(r.avfSdc, 0.75);
    }
}

TEST(AvfTest, InjectorAccessibility)
{
    // Paper IV-D: schedulers, dispatchers and control logic are
    // inaccessible to software injectors.
    EXPECT_TRUE(injectorAccessible(ResourceKind::RegisterFile));
    EXPECT_TRUE(injectorAccessible(ResourceKind::SharedMemory));
    EXPECT_TRUE(injectorAccessible(ResourceKind::L2Cache));
    EXPECT_FALSE(injectorAccessible(ResourceKind::Scheduler));
    EXPECT_FALSE(injectorAccessible(ResourceKind::Dispatcher));
    EXPECT_FALSE(injectorAccessible(ResourceKind::ControlLogic));
    EXPECT_FALSE(injectorAccessible(ResourceKind::Sfu));
}

TEST(AvfTest, CoverageFractionsBounded)
{
    DeviceModel device = makeXeonPhi();
    LavaMd lava(device, 6, 42, 2, 4, 13);
    InjectorCoverage cov =
        injectorCoverage(campaign(device, lava));
    for (double f : {cov.strikeCoverage, cov.sdcCoverage,
                     cov.criticalFitCoverage,
                     cov.detectableCoverage}) {
        EXPECT_GE(f, 0.0);
        EXPECT_LE(f, 1.0);
    }
}

TEST(AvfTest, InjectorMissesCrashSources)
{
    // Crashes come mostly from scheduler/control logic, which an
    // injector cannot strike: its crash coverage must be far below
    // its SDC coverage on the K40.
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 128, 42);
    CampaignResult res = campaign(device, dgemm, 500);
    InjectorCoverage cov = injectorCoverage(res);
    EXPECT_GT(cov.sdcCoverage, 0.5);
    EXPECT_LT(cov.detectableCoverage, cov.sdcCoverage);

    // Quarantined runs are no strikes: the coverage is unchanged.
    InjectorCoverage quarantined =
        injectorCoverage(withQuarantinedRuns(res));
    EXPECT_EQ(quarantined.strikeCoverage, cov.strikeCoverage);
    EXPECT_EQ(quarantined.sdcCoverage, cov.sdcCoverage);
    EXPECT_EQ(quarantined.criticalFitCoverage, cov.criticalFitCoverage);
    EXPECT_EQ(quarantined.detectableCoverage, cov.detectableCoverage);
}

TEST(AvfTest, InjectorMissesK40LavamdCriticality)
{
    // K40 LavaMD critical errors are dominated by SFU/FPU logic
    // (paper V-E hypothesis): an injector-only study would
    // underestimate them substantially.
    DeviceModel device = makeK40();
    LavaMd lava(device, 7, 42, 2, 4, 15);
    InjectorCoverage cov =
        injectorCoverage(campaign(device, lava, 500));
    EXPECT_LT(cov.criticalFitCoverage, 0.7);
}

} // anonymous namespace
} // namespace radcrit
