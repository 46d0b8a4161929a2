/**
 * @file
 * Tests for the CLAMR shallow-water workload: conservation, wave
 * propagation of errors, and the mass-check invariant (paper
 * Section V-D).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "campaign/raw.hh"
#include "common/rng.hh"
#include "kernels/clamr.hh"
#include "logs/beamlog.hh"
#include "metrics/criticality.hh"

namespace radcrit
{
namespace
{

class ClamrTest : public ::testing::Test
{
  protected:
    DeviceModel device_ = makeXeonPhi();
    Clamr clamr_{device_, 64, 128, 42};
};

TEST_F(ClamrTest, Geometry)
{
    EXPECT_EQ(clamr_.grid(), 64);
    EXPECT_EQ(clamr_.steps(), 128);
    EXPECT_EQ(clamr_.goldenH().size(), 64u * 64u);
    EXPECT_EQ(clamr_.inputLabel(), "256x256 cells");
}

TEST_F(ClamrTest, GoldenStateIsPhysical)
{
    for (double h : clamr_.goldenH()) {
        EXPECT_TRUE(std::isfinite(h));
        EXPECT_GT(h, 0.0);
        EXPECT_LT(h, 50.0);
    }
}

TEST_F(ClamrTest, StepConservesMassExactly)
{
    // Flux-form update with reflective walls: total mass must be
    // conserved to FP rounding at every step.
    SweState cur;
    cur.resize(64 * 64);
    Rng rng(1);
    for (auto &h : cur.h)
        h = rng.uniform(0.5, 5.0);
    for (auto &hu : cur.hu)
        hu = rng.uniform(-1.0, 1.0);
    for (auto &hv : cur.hv)
        hv = rng.uniform(-1.0, 1.0);
    double m0 = Clamr::mass(cur);
    SweState nxt;
    nxt.resize(cur.h.size());
    for (int it = 0; it < 20; ++it) {
        clamr_.step(cur, nxt);
        std::swap(cur, nxt);
        EXPECT_NEAR(Clamr::mass(cur), m0, 1e-7 * m0);
    }
}

TEST_F(ClamrTest, LakeAtRestIsSteady)
{
    // Flat water with no momentum must stay exactly still (the
    // well-balanced sanity check of SWE solvers).
    SweState cur;
    cur.resize(64 * 64);
    for (auto &h : cur.h)
        h = 2.0;
    SweState nxt;
    nxt.resize(cur.h.size());
    clamr_.step(cur, nxt);
    for (size_t i = 0; i < cur.h.size(); ++i) {
        EXPECT_NEAR(nxt.h[i], 2.0, 1e-12);
        EXPECT_NEAR(nxt.hu[i], 0.0, 1e-12);
        EXPECT_NEAR(nxt.hv[i], 0.0, 1e-12);
    }
}

TEST_F(ClamrTest, ErrorsPropagateAsWave)
{
    // Paper Fig. 9: corruption spreads to the neighborhood and
    // propagates as a wave, growing with remaining run time.
    Rng rng(2);
    Strike s;
    s.resource = ResourceKind::Fpu;
    s.manifestation = Manifestation::WrongOperation;
    s.burstBits = 1;
    s.entropy = 9;
    s.timeFraction = 0.25;
    SdcRecord early = clamr_.inject(s, rng);
    s.timeFraction = 0.85;
    SdcRecord late = clamr_.inject(s, rng);
    EXPECT_GT(early.numIncorrect(), late.numIncorrect());
    EXPECT_GT(early.numIncorrect(), 500u);
}

TEST_F(ClamrTest, ErrorsAreSquarePatterns)
{
    // Paper: square errors amount to 99% for CLAMR.
    Rng rng(3);
    Strike s;
    s.resource = ResourceKind::Dispatcher;
    s.manifestation = Manifestation::WrongOperation;
    int square = 0, total = 0;
    for (int i = 0; i < 10; ++i) {
        s.entropy = rng.next64();
        s.timeFraction = rng.uniform(0.2, 0.8);
        SdcRecord rec = clamr_.inject(s, rng);
        if (rec.numIncorrect() < 10)
            continue;
        ++total;
        square += classifyLocality(rec) == Pattern::Square;
    }
    ASSERT_GT(total, 5);
    EXPECT_GE(square, total - 1);
}

TEST_F(ClamrTest, MassCheckDetectsHeightCorruption)
{
    // Height corruption violates the conserved invariant and stays
    // detectable at the end of the run (paper V-D).
    Rng rng(4);
    Strike s;
    s.resource = ResourceKind::Fpu;
    s.manifestation = Manifestation::WrongOperation;
    s.timeFraction = 0.3;
    s.entropy = 21;
    SdcRecord rec = clamr_.inject(s, rng);
    ASSERT_FALSE(rec.empty());
    double drift = std::abs(clamr_.lastInjectedMass() -
                            clamr_.goldenMass()) /
        clamr_.goldenMass();
    EXPECT_GT(drift, 1e-9);
}

TEST_F(ClamrTest, MomentumOnlyCorruptionEvadesMassCheck)
{
    // Momentum corruption leaves the mass invariant intact — the
    // escape path that caps the mass-check coverage at ~82%
    // (paper ref. [4]).
    Rng rng(5);
    Strike s;
    s.resource = ResourceKind::RegisterFile;
    s.manifestation = Manifestation::BitFlipValue;
    s.burstBits = 2;
    bool found_undetected_sdc = false;
    for (int i = 0; i < 40 && !found_undetected_sdc; ++i) {
        s.entropy = rng.next64();
        s.timeFraction = rng.uniform(0.2, 0.8);
        SdcRecord rec = clamr_.inject(s, rng);
        if (rec.empty())
            continue;
        double drift = std::abs(clamr_.lastInjectedMass() -
                                clamr_.goldenMass()) /
            clamr_.goldenMass();
        if (drift < 1e-12)
            found_undetected_sdc = true;
    }
    EXPECT_TRUE(found_undetected_sdc);
}

TEST_F(ClamrTest, AmrSeriesVaries)
{
    // Paper IV-B: CLAMR changes the number of threads between
    // time steps to re-balance the load.
    const auto &series = clamr_.amrCellSeries();
    ASSERT_GT(series.size(), 4u);
    uint64_t base = 64 * 64;
    bool varies = false;
    for (size_t i = 1; i < series.size(); ++i) {
        EXPECT_GE(series[i], base);
        if (series[i] != series[i - 1])
            varies = true;
    }
    EXPECT_TRUE(varies);
}

TEST_F(ClamrTest, ControlHeavyTraits)
{
    EXPECT_GT(clamr_.traits().controlFlowIntensity, 0.5);
    EXPECT_EQ(clamr_.traits().kernelInvocations,
              static_cast<uint64_t>(clamr_.steps()));
    EXPECT_GT(clamr_.traits().util(ResourceKind::ControlLogic),
              0.5);
}

TEST_F(ClamrTest, DeterministicPerStrike)
{
    Strike s;
    s.resource = ResourceKind::L2Cache;
    s.manifestation = Manifestation::BitFlipInputLine;
    s.timeFraction = 0.5;
    s.entropy = 404;
    Rng r1(8), r2(8);
    SdcRecord a = clamr_.inject(s, r1);
    SdcRecord b = clamr_.inject(s, r2);
    ASSERT_EQ(a.numIncorrect(), b.numIncorrect());
    for (size_t i = 0; i < a.elements.size(); ++i)
        EXPECT_EQ(a.elements[i].read, b.elements[i].read);
}

TEST(ClamrNanTest, NanReadsAreLoggedCanonically)
{
    // A late wrong-operation strike on the canonical K40 grid that
    // leaves NaN heights. Which NaN each step propagates, and so its
    // sign, follows operand order in the generated code; the record
    // holds the canonical quiet NaN, so the log only reads "nan".
    Clamr clamr(makeK40(), 128);
    Strike s;
    s.resource = ResourceKind::Sfu;
    s.manifestation = Manifestation::WrongOperation;
    s.timeFraction = 0.83134644960954474;
    s.burstBits = 1;
    s.entropy = 9607457984167169673ULL;
    Rng rng(0);
    CampaignRaw raw;
    raw.deviceName = "K40";
    raw.workloadName = clamr.name();
    raw.inputLabel = clamr.inputLabel();
    raw.runs.push_back({0, s, Outcome::Sdc, clamr.inject(s, rng)});

    const double canonical = std::numeric_limits<double>::quiet_NaN();
    size_t nans = 0;
    for (const auto &e : raw.runs[0].record.elements) {
        if (!std::isnan(e.read))
            continue;
        ++nans;
        EXPECT_EQ(std::memcmp(&e.read, &canonical, sizeof(double)), 0);
    }
    ASSERT_GT(nans, 0u);
    std::stringstream log;
    writeBeamLog(raw, log);
    EXPECT_NE(log.str().find("read=nan "), std::string::npos);
    EXPECT_EQ(log.str().find("read=-nan"), std::string::npos);
}

TEST(ClamrDeathTest, BadConfigFatal)
{
    DeviceModel d = makeXeonPhi();
    EXPECT_EXIT(Clamr(d, 60), ::testing::ExitedWithCode(1),
                "multiple of 8");
    EXPECT_EXIT(Clamr(d, 64, 4), ::testing::ExitedWithCode(1),
                "at least 16");
}

} // anonymous namespace
} // namespace radcrit
