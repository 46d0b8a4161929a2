/**
 * @file
 * Banded golden computation is bit-identical for every job count:
 * DGEMM, LavaMD and CLAMR built with an attached build pool of 1, 2,
 * 3, 5 or 8 jobs (uneven bands included) produce the same inputs
 * and golden outputs, byte for byte, as a build with nothing
 * attached, and a campaign over any of them writes the same beam
 * log. CLAMR bands every time step, so its AMR series is compared
 * too, and its beam log replays strikes from the banded checkpoints.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/paperconfigs.hh"
#include "campaign/runner.hh"
#include "exec/pool.hh"
#include "kernels/clamr.hh"
#include "kernels/dgemm.hh"
#include "kernels/lavamd.hh"
#include "logs/beamlog.hh"

namespace radcrit
{
namespace
{

template <typename T>
bool
sameBytes(const std::vector<T> &x, const std::vector<T> &y)
{
    return x.size() == y.size() &&
        std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) ==
        0;
}

/** Beam log of a 48-run campaign over `workload`. */
std::string
beamLogOf(const DeviceModel &device, Workload &workload)
{
    CampaignConfig cfg = defaultCampaign(
        48, device.name, workload.name(), workload.inputLabel());
    std::stringstream ss;
    writeBeamLog(simulateCampaign(device, workload, cfg.sim), ss);
    return ss.str();
}

/** Build `make()` with a pool of `jobs` attached to this thread. */
template <typename Make>
auto
buildWith(unsigned jobs, Make make)
{
    WorkerPool pool(jobs);
    ScopedBuildPool attach(pool);
    return make();
}

class GoldenBands : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GoldenBands, DgemmMatchesUnattachedBuild)
{
    DeviceModel device = makeK40();
    for (int64_t n : {64, 192}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        Dgemm ref(device, n);
        auto banded = buildWith(GetParam(), [&] {
            return std::make_unique<Dgemm>(device, n);
        });
        EXPECT_TRUE(sameBytes(banded->a(), ref.a()));
        EXPECT_TRUE(sameBytes(banded->b(), ref.b()));
        EXPECT_TRUE(sameBytes(banded->goldenC(), ref.goldenC()));
        EXPECT_EQ(beamLogOf(device, *banded), beamLogOf(device, ref));
    }
}

TEST_P(GoldenBands, LavaMdMatchesUnattachedBuild)
{
    DeviceModel device = makeXeonPhi();
    for (int64_t boxes : {2, 5}) {
        SCOPED_TRACE("boxes=" + std::to_string(boxes));
        LavaMd ref(device, boxes);
        auto banded = buildWith(GetParam(), [&] {
            return std::make_unique<LavaMd>(device, boxes);
        });
        EXPECT_TRUE(sameBytes(banded->goldenForce(),
                              ref.goldenForce()));
        EXPECT_EQ(beamLogOf(device, *banded), beamLogOf(device, ref));
    }
}

TEST_P(GoldenBands, ClamrMatchesUnattachedBuild)
{
    DeviceModel device = makeK40();
    for (int64_t grid : {64, 72}) {
        SCOPED_TRACE("grid=" + std::to_string(grid));
        Clamr ref(device, grid, 64);
        auto banded = buildWith(GetParam(), [&] {
            return std::make_unique<Clamr>(device, grid, 64);
        });
        EXPECT_TRUE(sameBytes(banded->goldenH(), ref.goldenH()));
        double mass = banded->goldenMass();
        double ref_mass = ref.goldenMass();
        EXPECT_EQ(std::memcmp(&mass, &ref_mass, sizeof(double)), 0);
        EXPECT_TRUE(sameBytes(banded->amrCellSeries(),
                              ref.amrCellSeries()));
        EXPECT_EQ(beamLogOf(device, *banded), beamLogOf(device, ref));
    }
}

INSTANTIATE_TEST_SUITE_P(Jobs, GoldenBands,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

} // anonymous namespace
} // namespace radcrit
