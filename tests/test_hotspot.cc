/**
 * @file
 * Tests for the HotSpot stencil workload: dynamics, dissipation and
 * injection behaviour (paper Section V-C).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "check/golden.hh"
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

// --- Replay equivalence pin ---------------------------------------
//
// A fixed strike set whose records were recorded, one line per
// strike, in tests/goldens/hotspot_replay_pin.csv with the full-grid
// replay, before the replay was restricted to the dirty box. Any
// later replay must reproduce every record bit for bit. The set
// covers both devices, all six manifestations, a strike in every
// checkpoint window (including the partial last window of a
// 100-iteration run, whose checkpoint interval 8 does not divide
// it), struck cells, lines and tiles at every corner and edge, and
// the XeonPhi L2 input line that stays corrupted for 8 iterations,
// across a checkpoint.

/** Row and column side a struck box touches: 0 low edge, 1 inside,
 *  2 high edge. */
struct Spot
{
    int row, col;
};

const char *const spotRow[] = {"top", "mid", "bottom"};
const char *const spotCol[] = {"left", "mid", "right"};

/**
 * The box a strike corrupts, from the first two draws every HotSpot
 * injector takes from the strike's own entropy (row, then column),
 * reduced to the grid sides it touches.
 */
Spot
spotOf(Manifestation m, uint64_t entropy, int64_t n,
       int64_t line_cells)
{
    Rng srng(Rng::hashCombine(entropy, 0x407507ULL));
    int64_t r0, r1, c0, c1;
    switch (m) {
      case Manifestation::BitFlipValue:
        r0 = r1 = srng.uniformRange(0, n - 1);
        c0 = c1 = srng.uniformRange(0, n - 1);
        break;
      case Manifestation::BitFlipInputLine:
        r0 = r1 = srng.uniformRange(0, n - 1);
        c0 = srng.uniformRange(0, n - 1) / line_cells * line_cells;
        c1 = std::min(n, c0 + line_cells) - 1;
        break;
      case Manifestation::StaleData:
        r0 = r1 = srng.uniformRange(0, n - 1);
        c0 = srng.uniformRange(0, n - 4 * HotSpot::tile - 1);
        c1 = c0 + 4 * HotSpot::tile - 1;
        break;
      default: // one tile
        r0 = srng.uniformRange(0, n / HotSpot::tile - 1) *
            HotSpot::tile;
        c0 = srng.uniformRange(0, n / HotSpot::tile - 1) *
            HotSpot::tile;
        r1 = r0 + HotSpot::tile - 1;
        c1 = c0 + HotSpot::tile - 1;
        break;
    }
    auto side = [n](int64_t lo, int64_t hi) {
        return lo == 0 ? 0 : hi == n - 1 ? 2 : 1;
    };
    return {side(r0, r1), side(c0, c1)};
}

struct PinStrike
{
    Strike strike;
    int64_t it0;
    Spot spot;
};

/**
 * One strike per manifestation and checkpoint window, at a varying
 * offset inside the window, on a cell, line or tile at a varying
 * corner, edge or interior spot. (A stale row segment never reaches
 * the right edge, so StaleData cycles through left and inside.)
 */
std::vector<PinStrike>
pinStrikes(const DeviceModel &device, int64_t n, int64_t iters)
{
    const int64_t interval = std::max<int64_t>(iters / 12, 1);
    const int64_t windows = (iters + interval - 1) / interval;
    const int64_t line_cells = device.cacheLineBytes / 4;
    std::vector<PinStrike> out;
    for (size_t mi = 0; mi < numManifestations; ++mi) {
        auto m = static_cast<Manifestation>(mi);
        std::vector<Spot> spots;
        for (int row = 0; row < 3; ++row) {
            for (int col = 0; col < 3; ++col) {
                if (m != Manifestation::StaleData || col < 2)
                    spots.push_back({row, col});
            }
        }
        for (int64_t w = 0; w < windows; ++w) {
            int64_t len = std::min(interval, iters - w * interval);
            PinStrike p;
            // The second-to-last window is struck at its last
            // iteration, so the whole corruption enters the final
            // window (at 100 iterations, a partial one of 4) at
            // full strength.
            p.it0 = w * interval +
                (w == windows - 2
                     ? len - 1
                     : (w * 7 + 3 + static_cast<int64_t>(mi)) % len);
            p.spot = spots[static_cast<size_t>(w + mi) % spots.size()];
            Strike &s = p.strike;
            s.manifestation = m;
            s.resource = m == Manifestation::BitFlipInputLine
                ? ResourceKind::L2Cache
                : ResourceKind::RegisterFile;
            s.timeFraction = (static_cast<double>(p.it0) + 0.5) /
                static_cast<double>(iters);
            s.burstBits = static_cast<uint32_t>(1 + w % 3);
            s.entropy = Rng::hashCombine(
                static_cast<uint64_t>(iters) * 1000 + mi * 100 + w,
                device.name == "K40" ? 1u : 2u);
            for (;;) {
                Spot got = spotOf(m, s.entropy, n, line_cells);
                if (got.row == p.spot.row && got.col == p.spot.col)
                    break;
                ++s.entropy;
            }
            out.push_back(p);
        }
    }
    return out;
}

/** FNV-1a over each element's position and the bits of both values. */
uint64_t
recordHash(const SdcRecord &rec)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *p, size_t len) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < len; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    };
    for (const CorruptedElement &e : rec.elements) {
        mix(e.coord.data(), sizeof(e.coord[0]) * e.coord.size());
        mix(&e.read, sizeof(e.read));
        mix(&e.expected, sizeof(e.expected));
    }
    return h;
}

TEST(HotSpotReplayPin, RecordsMatchFullGridReplay)
{
    Counter &reconverged = StatsRegistry::global().counter(
        "kernel.hotspot.reconverged");
    Counter &cell_steps = StatsRegistry::global().counter(
        "kernel.hotspot.cell_steps");
    const uint64_t cell_steps_before = cell_steps.value();
    // What replaying every strike on the whole grid, from its
    // checkpoint to the last iteration, would step.
    uint64_t full_grid_steps = 0;
    check::Table rows{{"device", "grid", "iters", "manifestation",
                       "it0", "burst", "entropy", "spot", "elements",
                       "hash", "reconverged"}};
    const int64_t n = 256;
    for (DeviceModel device : {makeK40(), makeXeonPhi()}) {
        for (int64_t iters : {192, 100}) {
            HotSpot hs(device, n, iters, 42);
            const int64_t interval = std::max<int64_t>(iters / 12, 1);
            const int64_t last_snap = (iters - 1) / interval;
            for (const PinStrike &p : pinStrikes(device, n, iters)) {
                int64_t start =
                    std::min(p.it0 / interval, last_snap) * interval;
                full_grid_steps +=
                    static_cast<uint64_t>((iters - start) * n * n);
                Rng rng(0);
                uint64_t before = reconverged.value();
                SdcRecord rec = hs.inject(p.strike, rng);
                char entropy[24], hash[24];
                std::snprintf(entropy, sizeof(entropy), "e%" PRIu64,
                              p.strike.entropy);
                std::snprintf(hash, sizeof(hash), "h%016" PRIx64,
                              recordHash(rec));
                rows.push_back(
                    {device.name, std::to_string(n),
                     std::to_string(iters),
                     manifestationName(p.strike.manifestation),
                     std::to_string(p.it0),
                     std::to_string(p.strike.burstBits),
                     entropy,
                     std::string(spotRow[p.spot.row]) + "-" +
                         spotCol[p.spot.col],
                     std::to_string(rec.numIncorrect()), hash,
                     std::to_string(reconverged.value() - before)});
            }
        }
    }
    check::GoldenResult r = check::compareGolden(
        check::goldenDir(RADCRIT_GOLDEN_DIR) +
            "/hotspot_replay_pin.csv",
        rows);
    EXPECT_TRUE(r) << r.message;

    // The dirty-box replay's saving, as a count.
    const uint64_t stepped = cell_steps.value() - cell_steps_before;
    EXPECT_GT(stepped, 0u);
    EXPECT_LT(static_cast<double>(stepped),
              0.4 * static_cast<double>(full_grid_steps))
        << stepped << " of " << full_grid_steps
        << " full-grid cell-steps";
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
