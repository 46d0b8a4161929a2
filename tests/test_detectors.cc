/**
 * @file
 * Tests for the entropy and mass-conservation detectors, and for
 * the detector inputs the `detectors` experiment rebuilds from a
 * campaign's SDC records.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "abft/detectors.hh"
#include "campaign/paperconfigs.hh"
#include "common/rng.hh"
#include "kernels/clamr.hh"
#include "kernels/hotspot.hh"
#include "sim/fault.hh"
#include "sim/sampler.hh"

namespace radcrit
{
namespace
{

TEST(EntropyDetectorTest, GoldenFieldPasses)
{
    std::vector<float> golden(1024);
    Rng rng(1);
    for (auto &v : golden)
        v = static_cast<float>(rng.normal(320.0, 10.0));
    EntropyDetector det(golden);
    EXPECT_FALSE(det.detect(golden));
    EXPECT_GT(det.goldenEntropyBits(), 1.0);
}

TEST(EntropyDetectorTest, WidespreadShiftDetected)
{
    std::vector<float> golden(4096);
    Rng rng(2);
    for (auto &v : golden)
        v = static_cast<float>(rng.normal(320.0, 10.0));
    EntropyDetector det(golden, 64, 0.02);
    // Widespread low-magnitude corruption narrows/reshapes the
    // distribution (paper V-C: check entropy, not elements).
    std::vector<float> corrupted = golden;
    for (size_t i = 0; i < corrupted.size(); i += 2)
        corrupted[i] = 320.0f;
    EXPECT_TRUE(det.detect(corrupted));
}

TEST(EntropyDetectorTest, SingleElementBelowThreshold)
{
    std::vector<float> golden(4096);
    Rng rng(3);
    for (auto &v : golden)
        v = static_cast<float>(rng.normal(320.0, 10.0));
    EntropyDetector det(golden, 64, 0.02);
    std::vector<float> corrupted = golden;
    corrupted[5] += 2.0f;
    // One mildly wrong element cannot move the whole entropy.
    EXPECT_FALSE(det.detect(corrupted));
}

TEST(EntropyDetectorTest, EndToEndOnHotSpot)
{
    DeviceModel device = makeK40();
    HotSpot hotspot(device, 64, 96, 42);
    EntropyDetector det(hotspot.goldenTemp(), 64, 0.02);
    EXPECT_FALSE(det.detect(hotspot.goldenTemp()));
}

TEST(EntropyDetectorDeathTest, EmptyGoldenFatal)
{
    std::vector<float> empty;
    EXPECT_EXIT(EntropyDetector det(empty),
                ::testing::ExitedWithCode(1), "non-empty");
}

TEST(MassCheckerTest, ExactMassPasses)
{
    MassChecker mc(1000.0);
    EXPECT_FALSE(mc.detect(1000.0));
    EXPECT_FALSE(mc.detect(1000.0 + 1e-7));
}

TEST(MassCheckerTest, DriftDetected)
{
    MassChecker mc(1000.0, 1e-9);
    EXPECT_TRUE(mc.detect(1000.1));
    EXPECT_TRUE(mc.detect(999.0));
    EXPECT_NEAR(mc.relativeDrift(1001.0), 1e-3, 1e-12);
}

TEST(MassCheckerTest, NanDetected)
{
    MassChecker mc(1000.0);
    EXPECT_TRUE(mc.detect(std::nan("")));
}

TEST(MassCheckerDeathTest, NonPositiveMassFatal)
{
    EXPECT_EXIT(MassChecker(0.0), ::testing::ExitedWithCode(1),
                "positive");
}

/** Bitwise equality, with every NaN equal to every NaN. */
bool
sameDouble(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(DetectorInputs, ClamrRecordMassIsTheInjectedMass)
{
    // The mass check reads a stored record: the golden heights with
    // the record's reads substituted must sum to the mass of the
    // corrupted final state, NaN included.
    for (DeviceId id : allDevices()) {
        DeviceModel device = makeDevice(id);
        Clamr clamr(device, 64, 128);
        StrikeSampler sampler(device,
                              buildLaunch(device, clamr.traits()));
        Rng rng(17);
        uint64_t sdc = 0, nan = 0;
        for (int i = 0; i < 4000 && (sdc < 60 || nan == 0); ++i) {
            Strike strike = sampler.sampleStrike(rng);
            SdcRecord rec = clamr.inject(strike, rng);
            if (rec.empty())
                continue;
            ++sdc;
            nan += std::isnan(clamr.lastInjectedMass());
            EXPECT_TRUE(sameDouble(clamr.recordMass(rec),
                                   clamr.lastInjectedMass()))
                << device.name << " strike " << i << ": "
                << clamr.recordMass(rec) << " vs "
                << clamr.lastInjectedMass();
        }
        EXPECT_GE(sdc, 50u) << device.name;
        EXPECT_GE(nan, 1u) << device.name;
        EXPECT_TRUE(sameDouble(clamr.recordMass(clamr.emptyRecord()),
                               clamr.goldenMass()));
    }
}

TEST(DetectorInputs, HotSpotFieldFromRecord)
{
    // The entropy check sees the golden field with each record
    // element's read (narrowed to float) in its cell.
    DeviceModel device = makeK40();
    HotSpot hotspot(device, 64, 96, 42);
    StrikeSampler sampler(device,
                          buildLaunch(device, hotspot.traits()));
    Rng rng(23);
    uint64_t sdc = 0;
    for (int i = 0; i < 4000 && sdc < 60; ++i) {
        SdcRecord rec =
            hotspot.inject(sampler.sampleStrike(rng), rng);
        if (rec.empty())
            continue;
        ++sdc;
        std::vector<float> expected = hotspot.goldenTemp();
        for (const auto &e : rec.elements) {
            expected[e.coord[0] * hotspot.grid() + e.coord[1]] =
                static_cast<float>(e.read);
        }
        std::vector<float> field = materializeField(
            hotspot.goldenTemp(), rec, hotspot.grid());
        ASSERT_EQ(field.size(), expected.size());
        EXPECT_EQ(std::memcmp(field.data(), expected.data(),
                              field.size() * sizeof(float)),
                  0)
            << "strike " << i;
    }
    EXPECT_GE(sdc, 50u);
}

TEST(DetectorInputsDeathTest, RecordOutsideTheOutputFatal)
{
    // A stored record is untrusted: an element outside the output
    // must not write past the field.
    std::vector<float> golden(64 * 64, 1.0f);
    SdcRecord rec;
    rec.elements.push_back({{64, 0, 0}, 2.0, 1.0});
    EXPECT_EXIT(materializeField(golden, rec, 64),
                ::testing::ExitedWithCode(1), "outside");
    rec.elements[0].coord = {0, -1, 0};
    EXPECT_EXIT(materializeField(golden, rec, 64),
                ::testing::ExitedWithCode(1), "outside");
}

} // anonymous namespace
} // namespace radcrit
