/**
 * @file
 * Tests for the DGEMM workload and its injection hooks.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "kernels/dgemm.hh"
#include "metrics/criticality.hh"
#include "metrics/relative_error.hh"

namespace radcrit
{
namespace
{

class DgemmTest : public ::testing::Test
{
  protected:
    DeviceModel device_ = makeK40();
    Dgemm dgemm_{device_, 128, 42};
};

TEST_F(DgemmTest, GoldenMatchesNaiveMultiply)
{
    int64_t n = dgemm_.n();
    const auto &a = dgemm_.a();
    const auto &b = dgemm_.b();
    const auto &c = dgemm_.goldenC();
    Rng rng(11);
    for (int probe = 0; probe < 50; ++probe) {
        int64_t i = rng.uniformRange(0, n - 1);
        int64_t j = rng.uniformRange(0, n - 1);
        double sum = 0.0;
        for (int64_t k = 0; k < n; ++k)
            sum += a[i * n + k] * b[k * n + j];
        EXPECT_NEAR(c[i * n + j], sum,
                    1e-12 * std::max(1.0, std::abs(sum)));
    }
}

TEST_F(DgemmTest, InputsAreSignBalanced)
{
    double mean = 0.0;
    for (double v : dgemm_.a())
        mean += v;
    mean /= static_cast<double>(dgemm_.a().size());
    EXPECT_LT(std::abs(mean), 0.02);
}

TEST_F(DgemmTest, TraitsMatchTableII)
{
    // Table II: side^2 / 16 threads at paper-equivalent scale.
    int64_t n_eff = 128 * 8;
    EXPECT_EQ(dgemm_.traits().totalThreads,
              static_cast<uint64_t>(n_eff) * n_eff / 16);
    EXPECT_EQ(dgemm_.inputLabel(), "1024x1024");
    EXPECT_DOUBLE_EQ(dgemm_.traits().util(ResourceKind::Sfu), 0.0);
}

TEST_F(DgemmTest, AccumulatorFlipIsSingle)
{
    Rng rng(1);
    Strike s;
    s.resource = ResourceKind::RegisterFile;
    s.manifestation = Manifestation::BitFlipValue;
    s.timeFraction = 0.5;
    s.burstBits = 1;
    for (int i = 0; i < 20; ++i) {
        s.entropy = rng.next64();
        SdcRecord rec = dgemm_.inject(s, rng);
        EXPECT_LE(rec.numIncorrect(), 1u);
        if (!rec.empty()) {
            EXPECT_EQ(classifyLocality(rec), Pattern::Single);
        }
    }
}

TEST_F(DgemmTest, L2LineFlipIsLine)
{
    Rng rng(2);
    Strike s;
    s.resource = ResourceKind::L2Cache;
    s.manifestation = Manifestation::BitFlipInputLine;
    s.timeFraction = 0.0; // full row consumed
    s.burstBits = 1;
    int lines = 0;
    for (int i = 0; i < 20; ++i) {
        s.entropy = rng.next64();
        SdcRecord rec = dgemm_.inject(s, rng);
        if (rec.numIncorrect() < 2)
            continue;
        Pattern p = classifyLocality(rec);
        lines += p == Pattern::Line;
        // A corrupted input line corrupts one row or one column.
        EXPECT_TRUE(p == Pattern::Line || p == Pattern::Single);
    }
    EXPECT_GT(lines, 10);
}

TEST_F(DgemmTest, MisscheduledBlockIsSquare)
{
    Rng rng(3);
    Strike s;
    s.resource = ResourceKind::Scheduler;
    s.manifestation = Manifestation::MisscheduledBlock;
    s.entropy = 99;
    SdcRecord rec = dgemm_.inject(s, rng);
    EXPECT_GT(rec.numIncorrect(), 100u);
    EXPECT_EQ(classifyLocality(rec), Pattern::Square);
}

TEST_F(DgemmTest, WrongOperationIsDenseChunk)
{
    Rng rng(4);
    Strike s;
    s.resource = ResourceKind::Fpu;
    s.manifestation = Manifestation::WrongOperation;
    s.entropy = 7;
    SdcRecord rec = dgemm_.inject(s, rng);
    EXPECT_EQ(rec.numIncorrect(),
              static_cast<size_t>(Dgemm::chunkRows *
                                  Dgemm::chunkCols));
    EXPECT_EQ(classifyLocality(rec), Pattern::Square);
    // Garbage values are far from correct.
    EXPECT_GT(meanRelativeErrorPct(rec), 100.0);
}

TEST_F(DgemmTest, StaleDataIsScattered)
{
    Rng rng(5);
    Strike s;
    s.resource = ResourceKind::L2Cache;
    s.manifestation = Manifestation::StaleData;
    int random_or_square = 0;
    for (int i = 0; i < 10; ++i) {
        s.entropy = rng.next64();
        SdcRecord rec = dgemm_.inject(s, rng);
        EXPECT_GT(rec.numIncorrect(), 0u);
        Pattern p = classifyLocality(rec);
        random_or_square +=
            p == Pattern::Random || p == Pattern::Square;
    }
    EXPECT_GE(random_or_square, 7);
}

TEST_F(DgemmTest, SkippedBlockKeepsPartialSums)
{
    Rng rng(6);
    Strike s;
    s.resource = ResourceKind::Scheduler;
    s.manifestation = Manifestation::SkippedChunk;
    s.timeFraction = 0.0; // nothing accumulated at all
    s.entropy = 11;
    SdcRecord rec = dgemm_.inject(s, rng);
    EXPECT_EQ(rec.numIncorrect(),
              static_cast<size_t>(Dgemm::blockTile *
                                  Dgemm::blockTile));
    for (const auto &e : rec.elements)
        EXPECT_EQ(e.read, 0.0);
}

TEST_F(DgemmTest, InjectionIsDeterministicPerStrike)
{
    Strike s;
    s.resource = ResourceKind::L2Cache;
    s.manifestation = Manifestation::BitFlipInputLine;
    s.timeFraction = 0.3;
    s.entropy = 1234;
    Rng rng1(5), rng2(5);
    SdcRecord r1 = dgemm_.inject(s, rng1);
    SdcRecord r2 = dgemm_.inject(s, rng2);
    ASSERT_EQ(r1.numIncorrect(), r2.numIncorrect());
    for (size_t i = 0; i < r1.elements.size(); ++i) {
        EXPECT_EQ(r1.elements[i].coord, r2.elements[i].coord);
        EXPECT_EQ(r1.elements[i].read, r2.elements[i].read);
    }
}

TEST_F(DgemmTest, MaterializeOutputAppliesRecord)
{
    SdcRecord rec = dgemm_.emptyRecord();
    rec.elements.push_back({{3, 4, 0}, 99.5,
                            dgemm_.goldenC()[3 * 128 + 4]});
    auto out = materializeField(dgemm_.goldenC(), rec, 128);
    EXPECT_EQ(out[3 * 128 + 4], 99.5);
    EXPECT_EQ(out[0], dgemm_.goldenC()[0]);
}

TEST(DgemmTraitsTest, PhiLateralDifferences)
{
    DeviceModel phi = makeXeonPhi();
    Dgemm d(phi, 128);
    // DGEMM is compute-bound: tiny LLC liveness on the Phi.
    EXPECT_LT(d.traits().util(ResourceKind::L2Cache), 0.1);
    EXPECT_LT(d.traits().util(ResourceKind::RegisterFile), 0.2);
}

class DgemmTimeSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(DgemmTimeSweep, LateStrikesAffectFewerColumns)
{
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 128, 42);
    Strike s;
    s.resource = ResourceKind::L2Cache;
    s.manifestation = Manifestation::BitFlipInputLine;
    s.timeFraction = GetParam();
    s.entropy = 555;
    Rng rng(6);
    SdcRecord rec = dgemm.inject(s, rng);
    auto expected = static_cast<size_t>(
        std::ceil(128.0 * (1.0 - GetParam())));
    EXPECT_LE(rec.numIncorrect(), std::max<size_t>(expected, 1));
}

INSTANTIATE_TEST_SUITE_P(Times, DgemmTimeSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75,
                                           0.95));

TEST(DgemmDeathTest, BadSizeFatal)
{
    DeviceModel d = makeK40();
    EXPECT_EXIT(Dgemm(d, 100), ::testing::ExitedWithCode(1),
                "multiple");
    EXPECT_EXIT(Dgemm(d, 0), ::testing::ExitedWithCode(1),
                "multiple");
}

} // anonymous namespace
} // namespace radcrit
