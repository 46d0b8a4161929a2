/**
 * @file
 * Banded golden computation is bit-identical for every job count:
 * DGEMM and LavaMD built with an attached build pool of 1, 2, 3, 5
 * or 8 jobs (uneven bands included) produce the same inputs and
 * golden outputs, byte for byte, as a build with nothing attached,
 * and a campaign over either workload writes the same beam log.
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
#include "kernels/dgemm.hh"
#include "kernels/lavamd.hh"
#include "logs/beamlog.hh"

namespace radcrit
{
namespace
{

bool
sameBytes(const std::vector<double> &x, const std::vector<double> &y)
{
    return x.size() == y.size() &&
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) ==
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

INSTANTIATE_TEST_SUITE_P(Jobs, GoldenBands,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

} // anonymous namespace
} // namespace radcrit
