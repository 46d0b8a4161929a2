/**
 * @file
 * Tests for the Huang-Abraham ABFT DGEMM checker/corrector.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "abft/abft_dgemm.hh"
#include "common/rng.hh"
#include "kernels/dgemm.hh"

namespace radcrit
{
namespace
{

class AbftTest : public ::testing::Test
{
  protected:
    DeviceModel device_ = makeK40();
    Dgemm dgemm_{device_, 64, 42};
    AbftDgemm abft_{dgemm_.a(), dgemm_.b(), 64};
};

TEST_F(AbftTest, CleanOutputPasses)
{
    std::vector<double> c = dgemm_.goldenC();
    auto verdict = abft_.checkAndCorrect(c);
    EXPECT_EQ(verdict.status, AbftDgemm::Status::Clean);
    EXPECT_EQ(verdict.correctedElements, 0u);
}

TEST_F(AbftTest, SingleErrorCorrected)
{
    std::vector<double> c = dgemm_.goldenC();
    double golden = c[5 * 64 + 9];
    c[5 * 64 + 9] += 3.5;
    auto verdict = abft_.checkAndCorrect(c);
    EXPECT_EQ(verdict.status, AbftDgemm::Status::Corrected);
    EXPECT_EQ(verdict.correctedElements, 1u);
    EXPECT_NEAR(c[5 * 64 + 9], golden, 1e-9);
}

TEST_F(AbftTest, RowLineErrorCorrected)
{
    std::vector<double> c = dgemm_.goldenC();
    std::vector<double> golden = c;
    Rng rng(1);
    for (int64_t j = 0; j < 64; ++j)
        c[17 * 64 + j] += rng.uniform(0.5, 2.0);
    auto verdict = abft_.checkAndCorrect(c);
    EXPECT_EQ(verdict.status, AbftDgemm::Status::Corrected);
    EXPECT_EQ(verdict.correctedElements, 64u);
    for (int64_t j = 0; j < 64; ++j)
        EXPECT_NEAR(c[17 * 64 + j], golden[17 * 64 + j], 1e-8);
}

TEST_F(AbftTest, ColumnLineErrorCorrected)
{
    std::vector<double> c = dgemm_.goldenC();
    std::vector<double> golden = c;
    for (int64_t i = 10; i < 30; ++i)
        c[i * 64 + 3] -= 1.25;
    auto verdict = abft_.checkAndCorrect(c);
    EXPECT_EQ(verdict.status, AbftDgemm::Status::Corrected);
    EXPECT_EQ(verdict.correctedElements, 20u);
    for (int64_t i = 10; i < 30; ++i)
        EXPECT_NEAR(c[i * 64 + 3], golden[i * 64 + 3], 1e-8);
}

TEST_F(AbftTest, SquareErrorDetectedNotCorrected)
{
    // Paper Section III: ABFT corrects single and line errors
    // "but not square errors".
    std::vector<double> c = dgemm_.goldenC();
    for (int64_t i = 8; i < 12; ++i)
        for (int64_t j = 20; j < 24; ++j)
            c[i * 64 + j] *= 2.0;
    auto verdict = abft_.checkAndCorrect(c);
    EXPECT_EQ(verdict.status,
              AbftDgemm::Status::DetectedUncorrectable);
    EXPECT_EQ(verdict.badRows, 4u);
    EXPECT_EQ(verdict.badCols, 4u);
}

TEST_F(AbftTest, RandomErrorsDetected)
{
    std::vector<double> c = dgemm_.goldenC();
    c[3 * 64 + 7] += 1.0;
    c[40 * 64 + 50] -= 2.0;
    c[60 * 64 + 1] += 0.5;
    auto verdict = abft_.checkAndCorrect(c);
    EXPECT_EQ(verdict.status,
              AbftDgemm::Status::DetectedUncorrectable);
}

TEST_F(AbftTest, TinyErrorBelowToleranceInvisible)
{
    // Rounding-scale corruption hides below the checksum
    // tolerance — honest ABFT behaviour.
    std::vector<double> c = dgemm_.goldenC();
    c[1] += 1e-13;
    auto verdict = abft_.checkAndCorrect(c);
    EXPECT_EQ(verdict.status, AbftDgemm::Status::Clean);
}

TEST_F(AbftTest, NanDetected)
{
    std::vector<double> c = dgemm_.goldenC();
    c[2 * 64 + 2] = std::nan("");
    auto verdict = abft_.checkAndCorrect(c);
    EXPECT_NE(verdict.status, AbftDgemm::Status::Clean);
}

TEST(AbftEndToEndTest, InjectedStrikesMatchPatternClasses)
{
    // Inject real strikes and check ABFT's verdict matches the
    // pattern class: single/line corrected or detected,
    // square/random only detected (paper Section V-A). A 128-side
    // matrix gives the block manifestations multiple tiles.
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 128, 42);
    AbftDgemm abft(dgemm.a(), dgemm.b(), 128);
    Rng rng(2);

    Strike line_strike;
    line_strike.resource = ResourceKind::L2Cache;
    line_strike.manifestation = Manifestation::BitFlipInputLine;
    line_strike.timeFraction = 0.0;
    int meaningful = 0, flagged = 0;
    for (int i = 0; i < 10; ++i) {
        line_strike.entropy = rng.next64();
        SdcRecord rec = dgemm.inject(line_strike, rng);
        // Rounding-scale corruption legitimately hides below the
        // checksum tolerance; count only meaningful corruption.
        double worst = 0.0;
        for (const auto &e : rec.elements)
            worst = std::max(worst,
                             std::abs(e.read - e.expected));
        if (worst < 1e-6)
            continue;
        ++meaningful;
        auto c = materializeField(dgemm.goldenC(), rec, dgemm.n());
        flagged += abft.checkAndCorrect(c).status !=
            AbftDgemm::Status::Clean;
    }
    ASSERT_GT(meaningful, 0);
    EXPECT_EQ(flagged, meaningful);

    Strike block_strike;
    block_strike.resource = ResourceKind::Scheduler;
    block_strike.manifestation = Manifestation::MisscheduledBlock;
    block_strike.entropy = 6;
    SdcRecord sq = dgemm.inject(block_strike, rng);
    ASSERT_FALSE(sq.empty());
    auto c2 = materializeField(dgemm.goldenC(), sq, dgemm.n());
    auto verdict2 = abft.checkAndCorrect(c2);
    EXPECT_EQ(verdict2.status,
              AbftDgemm::Status::DetectedUncorrectable);
}

TEST(AbftDeathTest, MismatchedInputsFatal)
{
    std::vector<double> a(16, 1.0), b(9, 1.0);
    EXPECT_EXIT(AbftDgemm(a, b, 4), ::testing::ExitedWithCode(1),
                "must be");
}

} // anonymous namespace
} // namespace radcrit
