/**
 * @file
 * Tests for the HotSpot stencil workload: dynamics, dissipation and
 * injection behaviour (paper Section V-C).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "kernels/hotspot.hh"
#include "metrics/criticality.hh"
#include "metrics/relative_error.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{
namespace
{

class HotSpotTest : public ::testing::Test
{
  protected:
    DeviceModel device_ = makeK40();
    HotSpot hotspot_{device_, 64, 96, 42};
};

TEST_F(HotSpotTest, Geometry)
{
    EXPECT_EQ(hotspot_.grid(), 64);
    EXPECT_EQ(hotspot_.iterations(), 96);
    EXPECT_EQ(hotspot_.goldenTemp().size(), 64u * 64u);
    EXPECT_EQ(hotspot_.inputLabel(), "256x256");
}

TEST_F(HotSpotTest, GoldenIsFiniteAndPhysical)
{
    for (float t : hotspot_.goldenTemp()) {
        EXPECT_TRUE(std::isfinite(t));
        EXPECT_GT(t, HotSpot::ambient);
        EXPECT_LT(t, 1000.0f);
    }
}

TEST_F(HotSpotTest, StepMovesTowardEquilibrium)
{
    // Starting from the golden state, further iterations change
    // the field less and less ("results tend to reach an
    // equilibrium").
    std::vector<float> cur = hotspot_.goldenTemp();
    std::vector<float> nxt(cur.size());
    auto delta = [&](const std::vector<float> &a,
                     const std::vector<float> &b) {
        double d = 0.0;
        for (size_t i = 0; i < a.size(); ++i)
            d += std::abs(static_cast<double>(a[i]) - b[i]);
        return d;
    };
    hotspot_.step(cur, nxt);
    double d1 = delta(cur, nxt);
    std::vector<float> nxt2(cur.size());
    for (int it = 0; it < 50; ++it) {
        hotspot_.step(cur, nxt);
        cur.swap(nxt);
    }
    hotspot_.step(cur, nxt2);
    EXPECT_LT(delta(cur, nxt2), d1);
}

TEST_F(HotSpotTest, PerturbationDissipates)
{
    // Inject early vs late: the early strike's corruption has more
    // iterations to dissipate, so its relative error vs the number
    // of elements is milder — the paper's core stencil finding.
    Rng rng(1);
    Strike s;
    s.resource = ResourceKind::L1Cache;
    s.manifestation = Manifestation::BitFlipValue;
    s.burstBits = 1;

    double early_max = 0.0, late_max = 0.0;
    for (int i = 0; i < 12; ++i) {
        s.entropy = 1000 + i;
        s.timeFraction = 0.05;
        SdcRecord early = hotspot_.inject(s, rng);
        s.timeFraction = 0.95;
        SdcRecord late = hotspot_.inject(s, rng);
        early_max = std::max(early_max,
                             maxRelativeErrorPct(early));
        late_max = std::max(late_max, maxRelativeErrorPct(late));
    }
    EXPECT_LT(early_max, late_max + 1e-9);
}

TEST_F(HotSpotTest, ErrorsSpreadAsSquares)
{
    Rng rng(2);
    Strike s;
    s.resource = ResourceKind::SharedMemory;
    s.manifestation = Manifestation::BitFlipValue;
    s.timeFraction = 0.3;
    s.burstBits = 1;
    int squares = 0, total = 0;
    for (int i = 0; i < 20; ++i) {
        s.entropy = rng.next64();
        SdcRecord rec = hotspot_.inject(s, rng);
        if (rec.numIncorrect() < 4)
            continue;
        ++total;
        Pattern p = classifyLocality(rec);
        squares += p == Pattern::Square;
        // Paper: HotSpot shows only square and line errors.
        EXPECT_TRUE(p == Pattern::Square || p == Pattern::Line)
            << patternName(p);
    }
    ASSERT_GT(total, 5);
    EXPECT_GT(squares, total / 2);
}

TEST_F(HotSpotTest, MeanRelativeErrorStaysLow)
{
    // Paper Fig. 6: mean relative error below 25% in all cases.
    Rng rng(3);
    Strike s;
    s.manifestation = Manifestation::WrongOperation;
    s.resource = ResourceKind::Fpu;
    for (int i = 0; i < 10; ++i) {
        s.entropy = rng.next64();
        s.timeFraction = rng.uniform();
        SdcRecord rec = hotspot_.inject(s, rng);
        if (rec.empty())
            continue;
        EXPECT_LT(meanRelativeErrorPct(rec), 25.0);
    }
}

TEST_F(HotSpotTest, PhiL2LinesSpreadFurther)
{
    DeviceModel phi = makeXeonPhi();
    HotSpot on_phi(phi, 64, 96, 42);
    Rng rng(4);
    Strike s;
    s.manifestation = Manifestation::BitFlipInputLine;
    s.resource = ResourceKind::L2Cache;
    s.timeFraction = 0.3;
    s.burstBits = 2;
    double k40_mean = 0.0, phi_mean = 0.0;
    int n = 12;
    for (int i = 0; i < n; ++i) {
        s.entropy = 500 + i;
        k40_mean += static_cast<double>(
            hotspot_.inject(s, rng).numIncorrect());
        phi_mean += static_cast<double>(
            on_phi.inject(s, rng).numIncorrect());
    }
    // Paper V-C: the Phi shows a greater tendency to multiple
    // errors (longer L2 line residency).
    EXPECT_GT(phi_mean, k40_mean);
}

TEST_F(HotSpotTest, SkippedChunkIsMild)
{
    Rng rng(5);
    Strike s;
    s.manifestation = Manifestation::SkippedChunk;
    s.resource = ResourceKind::Dispatcher;
    s.timeFraction = 0.5;
    s.entropy = 31;
    SdcRecord rec = hotspot_.inject(s, rng);
    if (!rec.empty()) {
        EXPECT_LT(meanRelativeErrorPct(rec), 5.0);
    }
}

TEST_F(HotSpotTest, DeterministicPerStrike)
{
    Strike s;
    s.manifestation = Manifestation::MisscheduledBlock;
    s.resource = ResourceKind::Scheduler;
    s.timeFraction = 0.4;
    s.entropy = 2024;
    Rng r1(6), r2(6);
    SdcRecord a = hotspot_.inject(s, r1);
    SdcRecord b = hotspot_.inject(s, r2);
    ASSERT_EQ(a.numIncorrect(), b.numIncorrect());
    for (size_t i = 0; i < a.elements.size(); ++i)
        EXPECT_EQ(a.elements[i].read, b.elements[i].read);
}

TEST_F(HotSpotTest, ReconvergedReplaysStopMasked)
{
    // Single low-order bit flips diffuse and round away; once the
    // state equals a golden checkpoint again the replay stops
    // there, and the record must be empty.
    Counter &reconverged = StatsRegistry::global().counter(
        "kernel.hotspot.reconverged");
    uint64_t exits = 0;
    for (uint64_t entropy = 0; entropy < 40; ++entropy) {
        Strike s;
        s.manifestation = Manifestation::BitFlipValue;
        s.resource = ResourceKind::RegisterFile;
        s.timeFraction = 0.3;
        s.burstBits = 1;
        s.entropy = entropy;
        Rng rng(entropy);
        uint64_t before = reconverged.value();
        SdcRecord rec = hotspot_.inject(s, rng);
        if (reconverged.value() > before) {
            ++exits;
            EXPECT_TRUE(rec.empty()) << "entropy " << entropy;
        }
    }
    EXPECT_GT(exits, 0u);
}

TEST_F(HotSpotTest, HighOccupancyTraits)
{
    // Paper IV-B: HotSpot achieves the highest occupancy among
    // the tested codes (small local-memory footprint).
    EXPECT_LT(hotspot_.traits().perBlockLocalBytes, 4096u);
    EXPECT_FALSE(hotspot_.traits().doublePrecision);
    EXPECT_LT(hotspot_.traits().crashExposure, 0.5);
}

TEST(HotSpotDeathTest, BadConfigFatal)
{
    DeviceModel d = makeK40();
    EXPECT_EXIT(HotSpot(d, 63), ::testing::ExitedWithCode(1),
                "multiple");
    EXPECT_EXIT(HotSpot(d, 64, 2), ::testing::ExitedWithCode(1),
                "at least 8");
}

} // anonymous namespace
} // namespace radcrit
