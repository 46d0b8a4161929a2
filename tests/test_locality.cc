/**
 * @file
 * Tests for the spatial-locality classifier (paper metric 4).
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hh"
#include "metrics/locality.hh"

namespace radcrit
{
namespace
{

SdcRecord
make2d(std::initializer_list<std::pair<int64_t, int64_t>> coords,
       int64_t extent = 100)
{
    SdcRecord rec;
    rec.dims = 2;
    rec.extent = {extent, extent, 1};
    for (auto [r, c] : coords)
        rec.elements.push_back({{r, c, 0}, 1.0, 2.0});
    return rec;
}

SdcRecord
make3d(std::initializer_list<std::array<int64_t, 3>> coords,
       int64_t extent = 20)
{
    SdcRecord rec;
    rec.dims = 3;
    rec.extent = {extent, extent, extent};
    for (auto c : coords)
        rec.elements.push_back({c, 1.0, 2.0});
    return rec;
}

TEST(LocalityTest, EmptyIsNone)
{
    EXPECT_EQ(classifyLocality(make2d({})), Pattern::None);
}

TEST(LocalityTest, OneElementIsSingle)
{
    EXPECT_EQ(classifyLocality(make2d({{3, 4}})),
              Pattern::Single);
}

TEST(LocalityTest, DuplicateCoordsAreSingle)
{
    // Several LavaMD particles in the same box share coordinates.
    SdcRecord rec = make3d({{1, 2, 3}, {1, 2, 3}, {1, 2, 3}});
    EXPECT_EQ(rec.numIncorrect(), 3u);
    EXPECT_EQ(uniquePositions(rec), 1u);
    EXPECT_EQ(classifyLocality(rec), Pattern::Single);
}

TEST(LocalityTest, RowIsLine)
{
    EXPECT_EQ(classifyLocality(make2d({{5, 1}, {5, 7}, {5, 50}})),
              Pattern::Line);
}

TEST(LocalityTest, ColumnIsLine)
{
    EXPECT_EQ(classifyLocality(make2d({{1, 9}, {30, 9}, {80, 9}})),
              Pattern::Line);
}

TEST(LocalityTest, AxisLineIn3d)
{
    EXPECT_EQ(classifyLocality(make3d({{2, 5, 1}, {2, 5, 9},
                                       {2, 5, 4}})),
              Pattern::Line);
}

TEST(LocalityTest, DenseBlockIsSquare)
{
    std::initializer_list<std::pair<int64_t, int64_t>> blk = {
        {0, 0}, {0, 1}, {0, 2},
        {1, 0}, {1, 1}, {1, 2},
        {2, 0}, {2, 1}, {2, 2}};
    EXPECT_EQ(classifyLocality(make2d(blk)), Pattern::Square);
}

TEST(LocalityTest, ScatteredIsRandom)
{
    EXPECT_EQ(classifyLocality(make2d({{1, 2}, {50, 70}, {90, 5},
                                       {20, 99}})),
              Pattern::Random);
}

TEST(LocalityTest, DenseCubeIsCubic)
{
    std::vector<std::array<int64_t, 3>> coords;
    SdcRecord rec;
    rec.dims = 3;
    rec.extent = {20, 20, 20};
    for (int64_t x = 4; x < 7; ++x)
        for (int64_t y = 4; y < 7; ++y)
            for (int64_t z = 4; z < 7; ++z)
                rec.elements.push_back({{x, y, z}, 1.0, 2.0});
    EXPECT_EQ(classifyLocality(rec), Pattern::Cubic);
}

TEST(LocalityTest, Scattered3dIsRandom)
{
    EXPECT_EQ(classifyLocality(make3d({{0, 0, 0}, {19, 3, 7},
                                       {5, 18, 1}, {11, 2, 15}})),
              Pattern::Random);
}

TEST(LocalityTest, PlanarClusterIn3dIsSquare)
{
    // A dense patch confined to one z-plane.
    SdcRecord rec;
    rec.dims = 3;
    rec.extent = {20, 20, 20};
    for (int64_t x = 2; x < 5; ++x)
        for (int64_t y = 2; y < 5; ++y)
            rec.elements.push_back({{x, y, 7}, 1.0, 2.0});
    EXPECT_EQ(classifyLocality(rec), Pattern::Square);
}

TEST(LocalityTest, TwoAdjacentRowsAreSquare)
{
    SdcRecord rec;
    rec.dims = 2;
    rec.extent = {100, 100, 1};
    for (int64_t c = 0; c < 100; ++c) {
        rec.elements.push_back({{10, c, 0}, 1.0, 2.0});
        rec.elements.push_back({{11, c, 0}, 1.0, 2.0});
    }
    EXPECT_EQ(classifyLocality(rec), Pattern::Square);
}

TEST(LocalityTest, TwoDistantRowsAreRandom)
{
    SdcRecord rec;
    rec.dims = 2;
    rec.extent = {100, 100, 1};
    for (int64_t c = 0; c < 100; ++c) {
        rec.elements.push_back({{5, c, 0}, 1.0, 2.0});
        rec.elements.push_back({{95, c, 0}, 1.0, 2.0});
    }
    EXPECT_EQ(classifyLocality(rec), Pattern::Random);
}

TEST(LocalityTest, DensityThresholdRespected)
{
    // 4 points on the corners of a 10x10 box: density 0.04.
    auto corners = make2d({{0, 0}, {0, 9}, {9, 0}, {9, 9}});
    LocalityParams loose;
    loose.squareDensity = 0.03;
    LocalityParams tight;
    tight.squareDensity = 0.05;
    EXPECT_EQ(classifyLocality(corners, loose), Pattern::Square);
    EXPECT_EQ(classifyLocality(corners, tight), Pattern::Random);
}

TEST(LocalityTest, FullInt64ExtentIsRandom)
{
    // A hostile beam log may hold any int64_t coordinate: the box
    // spanning the whole range must neither overflow nor look
    // dense.
    constexpr int64_t lo = std::numeric_limits<int64_t>::min();
    constexpr int64_t hi = std::numeric_limits<int64_t>::max();
    EXPECT_EQ(classifyLocality(make2d({{lo, 0}, {hi, 1}})),
              Pattern::Random);
    EXPECT_EQ(classifyLocality(make3d({{lo, lo, lo}, {hi, hi, hi}})),
              Pattern::Random);
}

TEST(LocalityTest, UniquePositionsCounts)
{
    SdcRecord rec = make2d({{1, 1}, {1, 1}, {2, 2}});
    EXPECT_EQ(uniquePositions(rec), 2u);
}

TEST(LocalityTest, PatternNames)
{
    EXPECT_STREQ(patternName(Pattern::Cubic), "Cubic");
    EXPECT_STREQ(patternName(Pattern::None), "None");
    EXPECT_STREQ(patternName(Pattern::Random), "Random");
}

/**
 * Property: random uniformly scattered large samples classify as
 * Random, never Square (density of k points in [0,n)^2 box).
 */
class ScatterPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ScatterPropertyTest, UniformScatterIsRandom)
{
    Rng rng(GetParam());
    SdcRecord rec;
    rec.dims = 2;
    rec.extent = {1000, 1000, 1};
    for (int i = 0; i < 30; ++i) {
        rec.elements.push_back({{rng.uniformRange(0, 999),
                                 rng.uniformRange(0, 999), 0},
                                1.0, 2.0});
    }
    Pattern p = classifyLocality(rec);
    EXPECT_TRUE(p == Pattern::Random || p == Pattern::Line)
        << patternName(p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScatterPropertyTest,
                         ::testing::Range(1, 9));

} // anonymous namespace
} // namespace radcrit
