/**
 * @file
 * Tests for criticality attribution and the selective-hardening
 * advisor (paper Section VI).
 */

#include <gtest/gtest.h>

#include "harden/advisor.hh"
#include "harden/attribution.hh"
#include "kernels/dgemm.hh"
#include "sim/sampler.hh"

namespace radcrit
{
namespace
{

CampaignResult
dgemmCampaign(const DeviceModel &device, uint64_t runs = 250)
{
    Dgemm dgemm(device, 128, 42);
    CampaignConfig cfg;
    cfg.sim.faultyRuns = runs;
    cfg.sim.seed = 5;
    return runCampaign(device, dgemm, cfg);
}

TEST(AttributionTest, SharesAndCountsConsistent)
{
    DeviceModel device = makeK40();
    CampaignResult res = dgemmCampaign(device);
    // A quarantined run's default strike is a register-file one,
    // which must not count: the strikes still sum to the clean runs.
    CampaignResult quarantined = res;
    RunRecord infra;
    infra.index = res.runs.size();
    infra.outcome = Outcome::InfraError;
    quarantined.runs.push_back(infra);
    auto attribution = attributeCriticality(quarantined, device);
    ASSERT_FALSE(attribution.empty());

    uint64_t strikes = 0;
    double weight_share = 0.0;
    for (const auto &r : attribution) {
        strikes += r.strikes;
        weight_share += r.weightShare;
        EXPECT_LE(r.sdcRuns, r.strikes);
        EXPECT_LE(r.criticalRuns, r.sdcRuns);
    }
    EXPECT_EQ(strikes, res.runs.size());
    EXPECT_LE(weight_share, 1.0 + 1e-9);

    // Sorted by descending critical FIT.
    for (size_t i = 1; i < attribution.size(); ++i)
        EXPECT_GE(attribution[i - 1].criticalFitAu,
                  attribution[i].criticalFitAu);
}

TEST(AttributionTest, K40DgemmTopContributorIsRegisterFile)
{
    // The K40's DGEMM critical errors come mostly from the huge
    // exposed register file (paper V-A).
    DeviceModel device = makeK40();
    auto attribution =
        attributeCriticality(dgemmCampaign(device, 400), device);
    EXPECT_EQ(attribution.front().resource,
              ResourceKind::RegisterFile);
}

TEST(AttributionTest, VariantSharesComeFromItsOwnModel)
{
    // A K40 variant under another name keeps the K40's resources:
    // its weight shares are its own sampler's, not another
    // device's picked by name.
    DeviceModel variant = makeK40();
    variant.name = "K40+OS-sched";
    variant.schedulerStrainExponent = 0.14;
    variant.registerResidencyExposure = false;
    CampaignResult res = dgemmCampaign(variant, 300);
    StrikeSampler sampler(variant, res.launch);
    auto attribution = attributeCriticality(res, variant);
    ASSERT_FALSE(attribution.empty());
    for (const auto &r : attribution) {
        EXPECT_DOUBLE_EQ(r.weightShare, sampler.weight(r.resource) /
                                            sampler.totalWeight())
            << resourceKindName(r.resource);
    }
}

TEST(HardeningTest, OptionsCoverDeviceResources)
{
    DeviceModel k40 = makeK40();
    auto options = standardOptions(k40);
    EXPECT_GE(options.size(), 8u);
    for (const auto &opt : options) {
        EXPECT_TRUE(k40.hasResource(opt.resource));
        EXPECT_GT(opt.survivalScale, 0.0);
        EXPECT_LT(opt.survivalScale, 1.0);
        EXPECT_GT(opt.areaCostPct, 0.0);
    }
    // No SFU option on the Phi.
    for (const auto &opt : standardOptions(makeXeonPhi()))
        EXPECT_NE(opt.resource, ResourceKind::Sfu);
}

TEST(HardeningTest, ApplyScalesSurvival)
{
    DeviceModel k40 = makeK40();
    HardeningOption ecc{ResourceKind::L2Cache, "test", 0.5, 1.0};
    DeviceModel hardened = applyHardening(k40, ecc);
    EXPECT_DOUBLE_EQ(
        hardened.resource(ResourceKind::L2Cache).eccSurvival,
        0.5 * k40.resource(ResourceKind::L2Cache).eccSurvival);
    // Logic hardening shrinks effective area instead.
    HardeningOption fpu{ResourceKind::Fpu, "test", 0.2, 1.0};
    DeviceModel hardened2 = applyHardening(k40, fpu);
    EXPECT_DOUBLE_EQ(
        hardened2.resource(ResourceKind::Fpu).sizeBits,
        0.2 * k40.resource(ResourceKind::Fpu).sizeBits);
    hardened2.validate();
}

TEST(HardeningTest, HardeningReducesCriticalFit)
{
    DeviceModel k40 = makeK40();
    CampaignResult before = dgemmCampaign(k40, 300);
    HardeningOption rf{ResourceKind::RegisterFile, "ECC", 0.1,
                       6.0};
    DeviceModel hardened = applyHardening(k40, rf);
    CampaignResult after = dgemmCampaign(hardened, 300);
    EXPECT_LT(after.fitTotalAu(true),
              before.fitTotalAu(true));
}

TEST(AdvisorTest, GreedyPlanRespectsBudgetAndImproves)
{
    DeviceModel k40 = makeK40();
    WorkloadFactory factory = [](const DeviceModel &d) {
        return std::make_unique<Dgemm>(d, 128, 42);
    };
    auto plan = advise(k40, factory, 12.0, 200, 9);
    ASSERT_FALSE(plan.empty());
    double last_cost = 0.0;
    for (const auto &step : plan) {
        EXPECT_LT(step.fitAfter, step.fitBefore);
        EXPECT_GT(step.cumulativeCostPct, last_cost);
        last_cost = step.cumulativeCostPct;
    }
    EXPECT_LE(last_cost, 12.0);
    // The overall plan removes a meaningful share of critical FIT.
    EXPECT_LT(plan.back().fitAfter,
              0.9 * plan.front().fitBefore);
}

TEST(AdvisorDeathTest, ZeroBudgetFatal)
{
    DeviceModel k40 = makeK40();
    WorkloadFactory factory = [](const DeviceModel &d) {
        return std::make_unique<Dgemm>(d, 128, 42);
    };
    EXPECT_EXIT(advise(k40, factory, 0.0, 10, 1),
                ::testing::ExitedWithCode(1), "budget");
}

TEST(HardeningDeathTest, MissingResourceFatal)
{
    DeviceModel phi = makeXeonPhi();
    HardeningOption sfu{ResourceKind::Sfu, "x", 0.1, 1.0};
    EXPECT_EXIT(applyHardening(phi, sfu),
                ::testing::ExitedWithCode(1), "no resource");
}

} // anonymous namespace
} // namespace radcrit
