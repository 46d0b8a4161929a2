#include "kernels/hotspot.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "kernels/inject_util.hh"

namespace radcrit
{

namespace
{

/** Lateral coupling per axis and ambient coupling per step. */
constexpr float cLat = 0.12f;
constexpr float cAmb = 0.02f;
constexpr float cPow = 0.5f;

double
cacheUtil(double ws_bits, double cache_bits, double liveness)
{
    return std::min(1.0, ws_bits / cache_bits) * liveness;
}

} // anonymous namespace

HotSpot::HotSpot(const DeviceModel &device, int64_t grid,
                 int64_t iterations, uint64_t seed,
                 int64_t paper_scale)
    : device_(device), n_(grid), iters_(iterations),
      paperScale_(paper_scale)
{
    if (grid < 64 || grid % tile != 0)
        fatal("HotSpot grid %lld must be a multiple of %lld "
              ">= 64", static_cast<long long>(grid),
              static_cast<long long>(tile));
    if (iterations < 8)
        fatal("HotSpot needs at least 8 iterations");
    if (paper_scale <= 0)
        fatal("HotSpot paper_scale must be positive");

    ScopedTimer golden_timer(StatsRegistry::global(),
                             "kernel.hotspot.golden");

    snapInterval_ = std::max<int64_t>(iters_ / 12, 1);

    // Power map: smooth background plus a few hot functional units,
    // mimicking the architectural floor plan input.
    Rng rng(seed);
    auto cells = static_cast<size_t>(n_) * n_;
    power_.resize(cells);
    tempInit_.resize(cells);
    for (size_t i = 0; i < cells; ++i) {
        power_[i] = static_cast<float>(rng.uniform(0.0, 0.4));
        tempInit_[i] = 323.0f +
            static_cast<float>(rng.uniform(0.0, 1.0));
    }
    int hot_blocks = 6;
    for (int hb = 0; hb < hot_blocks; ++hb) {
        int64_t r0 = rng.uniformRange(0, n_ - n_ / 8 - 1);
        int64_t c0 = rng.uniformRange(0, n_ - n_ / 8 - 1);
        for (int64_t r = r0; r < r0 + n_ / 8; ++r) {
            for (int64_t c = c0; c < c0 + n_ / 8; ++c)
                power_[r * n_ + c] += 1.5f;
        }
    }

    // Golden run with checkpoints.
    std::vector<float> cur = tempInit_;
    std::vector<float> nxt(cells);
    std::vector<std::vector<float>> snaps;
    snaps.push_back(cur);
    for (int64_t it = 0; it < iters_; ++it) {
        step(cur, nxt);
        cur.swap(nxt);
        if ((it + 1) % snapInterval_ == 0 && it + 1 < iters_)
            snaps.push_back(cur);
    }
    snaps_ = std::make_shared<
        const std::vector<std::vector<float>>>(std::move(snaps));
    golden_ = cur;

    traits_ = traitsFor(device_, n_, iters_, paperScale_);
}

std::string
HotSpot::inputLabel() const
{
    return labelFor(n_, paperScale_);
}

std::string
HotSpot::labelFor(int64_t grid, int64_t paper_scale)
{
    int64_t n_eff = grid * paper_scale;
    return std::to_string(n_eff) + "x" + std::to_string(n_eff);
}

WorkloadTraits
HotSpot::traitsFor(const DeviceModel &device, int64_t grid,
                   int64_t iterations, int64_t paper_scale)
{
    // Launch traits at paper-equivalent scale.
    WorkloadTraits traits;
    int64_t n_eff = grid * paper_scale;
    traits.name = "HotSpot";
    traits.totalThreads = static_cast<uint64_t>(n_eff) * n_eff;
    traits.blockThreads = tile * tile;
    // Small local-memory footprint: highest occupancy of the
    // tested codes (paper IV-B).
    traits.perBlockLocalBytes = tile * tile * 4 * 2;
    traits.registersPerThread = 24;
    traits.flopsPerThread = static_cast<double>(iterations) * 12.0;
    traits.controlFlowIntensity = 0.05;
    traits.sfuIntensity = 0.0;
    traits.kernelInvocations = static_cast<uint64_t>(iterations);
    traits.doublePrecision = false;
    // Small resident footprint keeps corrupted addresses mapped on
    // the K40; the Phi's 57 coherent L2s + ring carry much more
    // tag/coherence state, so its storage strikes escalate more
    // often (paper Section V: HotSpot SDC:det is ~7x on the K40
    // but only ~3x on the Phi).
    traits.crashExposure =
        device.schedulerKind == SchedulerKind::Hardware ? 0.25
                                                        : 0.65;

    double ws_bits = 2.0 * static_cast<double>(n_eff) * n_eff *
        32.0;
    bool gpu = device.schedulerKind == SchedulerKind::Hardware;

    traits.setUtil(ResourceKind::RegisterFile, 0.5);
    if (device.hasResource(ResourceKind::L1Cache)) {
        traits.setUtil(ResourceKind::L1Cache, cacheUtil(
            ws_bits, device.resource(ResourceKind::L1Cache)
            .sizeBits, 0.8));
    }
    if (device.hasResource(ResourceKind::SharedMemory))
        traits.setUtil(ResourceKind::SharedMemory, 0.7);
    if (device.hasResource(ResourceKind::L2Cache)) {
        // Memory-bound (Table I): the whole grid streams through
        // the LLC every iteration.
        traits.setUtil(ResourceKind::L2Cache, cacheUtil(
            ws_bits, device.resource(ResourceKind::L2Cache)
            .sizeBits, gpu ? 0.8 : 0.9));
    }
    // Iterative re-launches of an identical, perfectly regular grid
    // let the scheduler reuse its dispatch state, and a
    // mis-schedule only lags one tile by an iteration (absorbed by
    // the next relaunch): the scheduler is barely a criticality
    // source for stencils, which is why HotSpot shows the highest
    // SDC:(crash+hang) ratio on the K40 (paper Section V).
    traits.setUtil(ResourceKind::Scheduler, 0.1);
    traits.setUtil(ResourceKind::Dispatcher, 0.6);
    traits.setUtil(ResourceKind::Fpu, 0.5);
    if (device.hasResource(ResourceKind::Sfu))
        traits.setUtil(ResourceKind::Sfu, 0.0);
    traits.setUtil(ResourceKind::ControlLogic, 0.15);
    traits.setUtil(ResourceKind::PipelineLatch, 0.6);
    if (device.hasResource(ResourceKind::Interconnect))
        traits.setUtil(ResourceKind::Interconnect, 0.6);
    return traits;
}

SdcRecord
HotSpot::emptyRecord() const
{
    SdcRecord rec;
    rec.dims = 2;
    rec.extent = {n_, n_, 1};
    return rec;
}

void
HotSpot::step(const std::vector<float> &src, std::vector<float> &dst,
              const Box &box) const
{
    // Each cell relaxes toward its four neighbours, with the grid
    // edge replicated (clamped reads). The edge clamp is resolved
    // once per row (the up/down row pointers) and once per column
    // side (columns 0 and n-1 are peeled when the box holds them),
    // so the interior loop is branch-free and the compiler
    // vectorizes it. The per-cell expression and its evaluation
    // order are unchanged, and the build enables neither FP
    // contraction nor fast-math, so every lane rounds exactly like
    // the scalar code (DESIGN.md, kernels), whatever the box.
    auto update = [](float t, float up, float dn, float left,
                     float right, float p) {
        float lap_r = up + dn - 2.0f * t;
        float lap_c = left + right - 2.0f * t;
        return t + cPow * p + cLat * (lap_r + lap_c) +
            cAmb * (ambient - t);
    };
    const int64_t n = n_;
    const int64_t c_begin = std::max<int64_t>(box.c0, 1);
    const int64_t c_end = std::min<int64_t>(box.c1, n - 1);
    for (int64_t r = box.r0; r < box.r1; ++r) {
        const float *mid = src.data() + r * n;
        const float *up =
            src.data() + std::max<int64_t>(r - 1, 0) * n;
        const float *dn =
            src.data() + std::min<int64_t>(r + 1, n - 1) * n;
        const float *p = power_.data() + r * n;
        float *out = dst.data() + r * n;
        if (box.c0 == 0) {
            out[0] = update(mid[0], up[0], dn[0], mid[0], mid[1],
                            p[0]);
        }
        for (int64_t c = c_begin; c < c_end; ++c) {
            out[c] = update(mid[c], up[c], dn[c], mid[c - 1],
                            mid[c + 1], p[c]);
        }
        if (box.c1 == n) {
            out[n - 1] = update(mid[n - 1], up[n - 1], dn[n - 1],
                                mid[n - 2], mid[n - 1], p[n - 1]);
        }
    }
}

int64_t
HotSpot::strikeIteration(const Strike &strike) const
{
    auto it = static_cast<int64_t>(strike.timeFraction *
                                   static_cast<double>(iters_));
    return std::clamp<int64_t>(it, 0, iters_ - 1);
}

namespace
{

/** @return `box` grown by `by` cells on every side, clamped to n x n. */
HotSpot::Box
grow(const HotSpot::Box &box, int64_t by, int64_t n)
{
    return {std::max<int64_t>(box.r0 - by, 0),
            std::min<int64_t>(box.r1 + by, n),
            std::max<int64_t>(box.c0 - by, 0),
            std::min<int64_t>(box.c1 + by, n)};
}

/**
 * @return the bounding box of the cells inside `within` whose bytes
 * differ between `a` and `b` (empty when none do). A byte compare,
 * not ==, which would call -0.0 equal to +0.0 and a NaN unequal to
 * itself.
 */
HotSpot::Box
diffBox(const std::vector<float> &a, const std::vector<float> &b,
        const HotSpot::Box &within, int64_t n)
{
    HotSpot::Box d{within.r1, within.r0, within.c1, within.c0};
    const size_t width = static_cast<size_t>(within.c1 - within.c0);
    for (int64_t r = within.r0; r < within.r1; ++r) {
        const float *x = a.data() + r * n;
        const float *y = b.data() + r * n;
        if (std::memcmp(x + within.c0, y + within.c0,
                        width * sizeof(float)) == 0)
            continue;
        int64_t lo = within.c0;
        while (std::memcmp(x + lo, y + lo, sizeof(float)) == 0)
            ++lo;
        int64_t hi = within.c1 - 1;
        while (std::memcmp(x + hi, y + hi, sizeof(float)) == 0)
            --hi;
        d.r0 = std::min(d.r0, r);
        d.r1 = r + 1;
        d.c0 = std::min(d.c0, lo);
        d.c1 = std::max(d.c1, hi + 1);
    }
    return d;
}

} // anonymous namespace

void
HotSpot::runWithCorruption(int64_t it0, int64_t persist,
                           const Corruptor &corrupt,
                           SdcRecord &out) const
{
    const auto &snaps = *snaps_;
    int64_t snap = std::min<int64_t>(it0 / snapInterval_,
                                     static_cast<int64_t>(
                                         snaps.size()) - 1);
    std::vector<float> cur = snaps[static_cast<size_t>(snap)];
    std::vector<float> nxt(cur.size());
    const Box grid{0, n_, 0, n_};
    int64_t it_end = std::min(iters_, it0 + persist);
    // `cur` holds the replay's state inside `valid`; outside it the
    // state equals the golden run.
    Box valid = grid;
    uint64_t cells = 0;
    // One window per checkpoint interval. A window that applies
    // corruption steps the whole grid; every later window starts at
    // a checkpoint and steps only around the dirty box there.
    for (int64_t start = snap * snapInterval_; start < iters_;) {
        const int64_t k = std::min(snapInterval_, iters_ - start);
        const bool clean = start >= it_end;
        Box dirty = grid;
        if (clean) {
            const auto &golden_snap =
                snaps[static_cast<size_t>(start / snapInterval_)];
            dirty = diffBox(cur, golden_snap, valid, n_);
            if (dirty.empty()) {
                // Bitwise golden again: the strike was digested and
                // the output is golden, so stop here.
                reconverged_.inc();
                cellSteps_.inc(cells);
                return;
            }
            // The window's first step reads dirty + 2k; outside
            // the dirty box that is the checkpoint.
            Box reach = grow(dirty, 2 * k, n_);
            for (int64_t r = reach.r0; r < reach.r1; ++r) {
                bool in_rows = r >= dirty.r0 && r < dirty.r1;
                int64_t skip0 = in_rows ? dirty.c0 : reach.c1;
                int64_t skip1 = in_rows ? dirty.c1 : reach.c1;
                const float *g = golden_snap.data() + r * n_;
                float *dst = cur.data() + r * n_;
                std::copy(g + reach.c0, g + skip0, dst + reach.c0);
                std::copy(g + skip1, g + reach.c1, dst + skip1);
            }
        }
        for (int64_t j = 1; j <= k; ++j) {
            int64_t it = start + j - 1;
            if (it >= it0 && it < it_end)
                corrupt(cur, it);
            Box box = clean ? grow(dirty, 2 * k - j, n_) : grid;
            step(cur, nxt, box);
            cells += static_cast<uint64_t>(box.cells());
            cur.swap(nxt);
        }
        valid = clean ? grow(dirty, k, n_) : grid;
        start += k;
    }
    cellSteps_.inc(cells);
    for (int64_t r = valid.r0; r < valid.r1; ++r) {
        for (int64_t c = valid.c0; c < valid.c1; ++c) {
            float read = cur[r * n_ + c];
            float expected = golden_[r * n_ + c];
            if (read != expected || std::isnan(read)) {
                out.elements.push_back({{r, c, 0},
                                        static_cast<double>(read),
                                        static_cast<double>(
                                            expected)});
            }
        }
    }
}

SdcRecord
HotSpot::inject(const Strike &strike, Rng &rng)
{
    ScopedTick tick(injectTimer_);
    SdcRecord out = emptyRecord();
    // Strike-local randomness derives only from the strike's own
    // entropy: the injected record is a pure function of the
    // Strike, which lets beam logs replay campaigns exactly.
    (void)rng;
    Rng srng(Rng::hashCombine(strike.entropy, 0x407507ULL));
    switch (strike.manifestation) {
      case Manifestation::BitFlipValue:
        injectValueFlip(strike, srng, out);
        break;
      case Manifestation::BitFlipInputLine:
        injectInputLineFlip(strike, srng, out);
        break;
      case Manifestation::WrongOperation:
        injectWrongOperation(strike, srng, out);
        break;
      case Manifestation::SkippedChunk:
        injectSkippedChunk(strike, srng, out);
        break;
      case Manifestation::StaleData:
        injectStaleData(strike, srng, out);
        break;
      case Manifestation::MisscheduledBlock:
        injectMisscheduledBlock(strike, srng, out);
        break;
      default:
        panic("HotSpot: unhandled manifestation %d",
              static_cast<int>(strike.manifestation));
    }
    return out;
}

void
HotSpot::injectValueFlip(const Strike &strike, Rng &rng,
                         SdcRecord &out) const
{
    int64_t it0 = strikeIteration(strike);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c = rng.uniformRange(0, n_ - 1);
    uint32_t bits = strike.burstBits;
    // Bounded-excursion flips: mantissa plus two low exponent bits
    // (see file comment).
    Rng flip_rng = rng.split(1);
    Corruptor corrupt = [=, this, &flip_rng](
        std::vector<float> &state, int64_t) {
        state[r * n_ + c] = flipBitsFloatBounded(
            state[r * n_ + c], bits, 20, flip_rng);
    };
    runWithCorruption(it0, 1, corrupt, out);
}

void
HotSpot::injectInputLineFlip(const Strike &strike, Rng &rng,
                             SdcRecord &out) const
{
    int64_t it0 = strikeIteration(strike);
    int64_t line_cells = std::max<uint32_t>(
        device_.cacheLineBytes / 4, 1);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c0 = rng.uniformRange(0, n_ - 1) / line_cells *
        line_cells;
    int64_t c1 = std::min(n_, c0 + line_cells);

    // The Phi's long L2 residency keeps re-serving the corrupted
    // line across several iterations; the K40 evicts it quickly.
    bool gpu = device_.schedulerKind == SchedulerKind::Hardware;
    int64_t persist = strike.resource == ResourceKind::L2Cache
        ? (gpu ? 1 : 8) : 1;

    // Capture the corrupted values at first application; stale
    // re-reads re-impose the same values.
    auto values = std::make_shared<std::vector<float>>();
    uint32_t bits = strike.burstBits;
    Rng flip_rng = rng.split(2);
    Corruptor corrupt = [=, this, &flip_rng](
        std::vector<float> &state, int64_t) {
        if (values->empty()) {
            for (int64_t c = c0; c < c1; ++c)
                values->push_back(state[r * n_ + c]);
            for (uint32_t bflip = 0; bflip < bits; ++bflip) {
                auto idx = flip_rng.uniformInt(values->size());
                (*values)[idx] = flipBitsFloatBounded(
                    (*values)[idx], 1, 20, flip_rng);
            }
        }
        for (int64_t c = c0; c < c1; ++c)
            state[r * n_ + c] = (*values)[c - c0];
    };
    runWithCorruption(it0, persist, corrupt, out);
}

void
HotSpot::injectWrongOperation(const Strike &strike, Rng &rng,
                              SdcRecord &out) const
{
    // One block computes a wrong update for one iteration: its tile
    // receives bounded-garbage temperatures.
    int64_t it0 = strikeIteration(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    Rng noise_rng = rng.split(3);
    Corruptor corrupt = [=, this, &noise_rng](
        std::vector<float> &state, int64_t) {
        for (int64_t r = tr; r < tr + tile; ++r) {
            for (int64_t c = tc; c < tc + tile; ++c) {
                state[r * n_ + c] += static_cast<float>(
                    noise_rng.normal(0.0, 18.0));
            }
        }
    };
    runWithCorruption(it0, 1, corrupt, out);
}

void
HotSpot::injectSkippedChunk(const Strike &strike, Rng &rng,
                            SdcRecord &out) const
{
    // One block's update silently skipped: its tile lags one
    // iteration behind (re-imposing the previous-iteration values).
    int64_t it0 = strikeIteration(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    auto stale = std::make_shared<std::vector<float>>();
    Corruptor capture_then_lag = [=, this](
        std::vector<float> &state, int64_t) {
        if (stale->empty()) {
            for (int64_t r = tr; r < tr + tile; ++r) {
                for (int64_t c = tc; c < tc + tile; ++c)
                    stale->push_back(state[r * n_ + c]);
            }
            return; // first corrupted iteration: capture only
        }
        size_t k = 0;
        for (int64_t r = tr; r < tr + tile; ++r) {
            for (int64_t c = tc; c < tc + tile; ++c)
                state[r * n_ + c] = (*stale)[k++];
        }
    };
    runWithCorruption(it0, 2, capture_then_lag, out);
}

void
HotSpot::injectStaleData(const Strike &strike, Rng &rng,
                         SdcRecord &out) const
{
    // A halo row segment is served stale for a couple of
    // iterations.
    int64_t it0 = strikeIteration(strike);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c0 = rng.uniformRange(0, std::max<int64_t>(
        n_ - 4 * tile, 1) - 1);
    int64_t c1 = std::min(n_, c0 + 4 * tile);
    auto stale = std::make_shared<std::vector<float>>();
    Corruptor corrupt = [=, this](std::vector<float> &state,
                                  int64_t) {
        if (stale->empty()) {
            for (int64_t c = c0; c < c1; ++c)
                stale->push_back(state[r * n_ + c]);
            return;
        }
        for (int64_t c = c0; c < c1; ++c)
            state[r * n_ + c] = (*stale)[c - c0];
    };
    runWithCorruption(it0, 3, corrupt, out);
}

void
HotSpot::injectMisscheduledBlock(const Strike &strike, Rng &rng,
                                 SdcRecord &out) const
{
    // One block writes the tile computed for another region.
    int64_t it0 = strikeIteration(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    int64_t sr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t sc = rng.uniformRange(0, tiles - 1) * tile;
    if (sr == tr && sc == tc)
        sc = (sc + tile) % n_;
    Corruptor corrupt = [=, this](std::vector<float> &state,
                                  int64_t) {
        for (int64_t dr = 0; dr < tile; ++dr) {
            for (int64_t dc = 0; dc < tile; ++dc) {
                state[(tr + dr) * n_ + tc + dc] =
                    state[(sr + dr) * n_ + sc + dc];
            }
        }
    };
    runWithCorruption(it0, 1, corrupt, out);
}

} // namespace radcrit
