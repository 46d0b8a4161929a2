#include "kernels/dgemm.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "exec/pool.hh"
#include "kernels/inject_util.hh"

namespace radcrit
{

namespace
{

/** Cache utilization = residency fraction x liveness. */
double
cacheUtil(double working_set_bits, double cache_bits,
          double liveness)
{
    return std::min(1.0, working_set_bits / cache_bits) * liveness;
}

/**
 * Accumulate rows [row_begin, row_end) of C = A * B (n x n,
 * row-major, C zeroed). Each element sums its products in
 * ascending k whatever the row band, so banding the rows across
 * threads leaves every byte of C unchanged. The restrict-qualified
 * pointers let the compiler keep the inner loop as tight as when
 * it indexed the vectors inline, and keeping the function out of
 * line gives the loop the registers to itself: inlined into the
 * band callback, its bounds spilled to the stack and the one-band
 * build ran ~12% slower.
 */
[[gnu::noinline]] void
goldenRows(const double *__restrict a, const double *__restrict b,
           double *__restrict c, int64_t n, int64_t row_begin,
           int64_t row_end)
{
    constexpr int64_t kb = 64;
    for (int64_t k0 = 0; k0 < n; k0 += kb) {
        int64_t k1 = std::min(n, k0 + kb);
        for (int64_t i = row_begin; i < row_end; ++i) {
            double *crow = c + i * n;
            for (int64_t k = k0; k < k1; ++k) {
                double aik = a[i * n + k];
                const double *brow = b + k * n;
                for (int64_t j = 0; j < n; ++j)
                    crow[j] += aik * brow[j];
            }
        }
    }
}

} // anonymous namespace

Dgemm::Dgemm(const DeviceModel &device, int64_t n, uint64_t seed,
             int64_t paper_scale)
    : device_(device), n_(n), paperScale_(paper_scale)
{
    if (n <= 0 || n % blockTile != 0)
        fatal("DGEMM side %lld must be a positive multiple of %lld",
              static_cast<long long>(n),
              static_cast<long long>(blockTile));
    if (paper_scale <= 0)
        fatal("DGEMM paper_scale must be positive");

    ScopedTimer golden_timer(StatsRegistry::global(),
                             "kernel.dgemm.golden");

    // Sign-balanced inputs in (-1, 1): small enough to avoid
    // overflow, representative magnitude, balanced bit population
    // (paper Section IV-D).
    Rng rng(seed);
    Golden gold;
    gold.a.resize(static_cast<size_t>(n_) * n_);
    gold.b.resize(static_cast<size_t>(n_) * n_);
    for (auto &v : gold.a)
        v = rng.uniform(-1.0, 1.0);
    for (auto &v : gold.b)
        v = rng.uniform(-1.0, 1.0);

    // Golden output on the very same code path used at injection
    // time (paper IV-D: golden outputs calculated on the device
    // under test to avoid precision and round-off drift), one
    // contiguous row band per job of the attached build pool.
    gold.c.assign(static_cast<size_t>(n_) * n_, 0.0);
    const double *a = gold.a.data();
    const double *b = gold.b.data();
    double *c = gold.c.data();
    forBands(static_cast<uint64_t>(n),
             [a, b, c, n](uint64_t begin, uint64_t end) {
                 goldenRows(a, b, c, n, static_cast<int64_t>(begin),
                            static_cast<int64_t>(end));
             });

    double sumsq = 0.0;
    for (double v : gold.c)
        sumsq += v * v;
    gold.cRms = std::sqrt(sumsq /
                          static_cast<double>(gold.c.size()));
    if (gold.cRms <= 0.0)
        gold.cRms = 1.0;
    gold_ = std::make_shared<const Golden>(std::move(gold));

    traits_ = traitsFor(device_, n_, paperScale_);
}

std::string
Dgemm::inputLabel() const
{
    return labelFor(n_, paperScale_);
}

std::string
Dgemm::labelFor(int64_t n, int64_t paper_scale)
{
    int64_t n_eff = n * paper_scale;
    return std::to_string(n_eff) + "x" + std::to_string(n_eff);
}

WorkloadTraits
Dgemm::traitsFor(const DeviceModel &device, int64_t n,
                 int64_t paper_scale)
{
    // Launch traits at paper-equivalent scale.
    WorkloadTraits traits;
    int64_t n_eff = n * paper_scale;
    traits.name = "DGEMM";
    // Table II: side^2 / 16 threads.
    traits.totalThreads =
        static_cast<uint64_t>(n_eff) * n_eff / 16;
    traits.blockThreads = (blockTile * blockTile) / 16; // 256
    // Two 64x8 double panels double-buffered per block: the small
    // footprint keeps occupancy high (the paper reports >97.5%
    // multiprocessor activity for the selected inputs).
    traits.perBlockLocalBytes = 2 * blockTile * 8 * 8;
    traits.registersPerThread = 64;
    traits.flopsPerThread = 2.0 * static_cast<double>(n_eff) * 16.0;
    traits.controlFlowIntensity = 0.05;
    traits.sfuIntensity = 0.0;
    traits.kernelInvocations = 1;
    traits.doublePrecision = true;

    double ws_bits = 3.0 * static_cast<double>(n_eff) * n_eff * 64.0;
    bool gpu = device.schedulerKind == SchedulerKind::Hardware;

    // Register liveness is the paper's V-A reason (2): the K40
    // time-multiplexes thousands of resident threads, so accumulator
    // values sit idle in the register file for long stretches. The
    // Phi's four hardware threads touch their accumulators every few
    // cycles, leaving almost no idle window.
    traits.setUtil(ResourceKind::RegisterFile, gpu ? 1.0 : 0.1);
    if (device.hasResource(ResourceKind::L1Cache)) {
        traits.setUtil(ResourceKind::L1Cache, cacheUtil(
            ws_bits, device.resource(ResourceKind::L1Cache)
            .sizeBits, gpu ? 0.5 : 0.15));
    }
    if (device.hasResource(ResourceKind::SharedMemory))
        traits.setUtil(ResourceKind::SharedMemory, 0.8);
    if (device.hasResource(ResourceKind::L2Cache)) {
        // DGEMM is compute-bound (Table I): panels stream through
        // the LLC with short liveness, especially on the Phi whose
        // blocking targets L1/registers.
        traits.setUtil(ResourceKind::L2Cache, cacheUtil(
            ws_bits, device.resource(ResourceKind::L2Cache)
            .sizeBits, gpu ? 0.6 : 0.08));
    }
    traits.setUtil(ResourceKind::Scheduler, 1.0);
    traits.setUtil(ResourceKind::Dispatcher, 0.8);
    traits.setUtil(ResourceKind::Fpu, 1.0);
    if (device.hasResource(ResourceKind::Sfu))
        traits.setUtil(ResourceKind::Sfu, 0.0);
    traits.setUtil(ResourceKind::ControlLogic, 0.2);
    traits.setUtil(ResourceKind::PipelineLatch, 0.9);
    if (device.hasResource(ResourceKind::Interconnect))
        traits.setUtil(ResourceKind::Interconnect, 0.3);
    return traits;
}

SdcRecord
Dgemm::emptyRecord() const
{
    SdcRecord rec;
    rec.dims = 2;
    rec.extent = {n_, n_, 1};
    return rec;
}

double
Dgemm::dot(int64_t i, int64_t j) const
{
    return gold_->c[i * n_ + j];
}

double
Dgemm::partialDot(int64_t i, int64_t j, int64_t k_end) const
{
    double sum = 0.0;
    const double *arow = &gold_->a[i * n_];
    for (int64_t k = 0; k < k_end; ++k)
        sum += arow[k] * gold_->b[k * n_ + j];
    return sum;
}

void
Dgemm::record(SdcRecord &out, int64_t i, int64_t j,
              double read) const
{
    double expected = gold_->c[i * n_ + j];
    if (read != expected || std::isnan(read))
        out.elements.push_back({{i, j, 0}, read, expected});
}

SdcRecord
Dgemm::inject(const Strike &strike, Rng &rng)
{
    ScopedTick tick(injectTimer_);
    SdcRecord out = emptyRecord();
    // Strike-local randomness derives only from the strike's own
    // entropy: the injected record is a pure function of the
    // Strike, which lets beam logs replay campaigns exactly.
    (void)rng;
    Rng srng(Rng::hashCombine(strike.entropy, 0xD6E44ULL));
    switch (strike.manifestation) {
      case Manifestation::BitFlipValue:
        injectAccumulatorFlip(strike, srng, out);
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
        panic("DGEMM: unhandled manifestation %d",
              static_cast<int>(strike.manifestation));
    }
    return out;
}

void
Dgemm::injectAccumulatorFlip(const Strike &strike, Rng &rng,
                             SdcRecord &out) const
{
    // One thread's accumulator for element (i, j) is upset when the
    // k-loop has consumed timeFraction of the inner dimension; the
    // remaining products accumulate on top of the flipped partial.
    int64_t i = rng.uniformRange(0, n_ - 1);
    int64_t j = rng.uniformRange(0, n_ - 1);
    auto k0 = static_cast<int64_t>(strike.timeFraction *
                                   static_cast<double>(n_));
    k0 = std::clamp<int64_t>(k0, 0, n_);
    double partial = partialDot(i, j, k0);
    double flipped = flipBits(partial, strike.burstBits, rng);
    double rest = dot(i, j) - partial;
    record(out, i, j, flipped + rest);
}

void
Dgemm::injectInputLineFlip(const Strike &strike, Rng &rng,
                           SdcRecord &out) const
{
    // A cache line of input data is corrupted; every output element
    // whose dot product consumes the line after the strike reads
    // the flipped values. The consumer scope depends on which level
    // held the line: L1/shared lines serve one block tile, the L2
    // line serves every block that touches it before eviction.
    int64_t line_vals = std::max<uint32_t>(
        device_.cacheLineBytes / 8, 1);
    bool corrupt_a = rng.bernoulli(0.5);

    int64_t row = rng.uniformRange(0, n_ - 1);
    int64_t k_start = rng.uniformRange(0, n_ - 1) / line_vals *
        line_vals;
    int64_t k_end = std::min(n_, k_start + line_vals);

    // Distribute the burst over the line.
    std::vector<std::pair<int64_t, double>> deltas;
    for (uint32_t bflip = 0; bflip < strike.burstBits; ++bflip) {
        int64_t k = rng.uniformRange(k_start, k_end - 1);
        double orig = corrupt_a ? gold_->a[row * n_ + k]
                                : gold_->b[k * n_ + row];
        double bad = flipBits(orig, 1, rng);
        deltas.emplace_back(k, bad - orig);
    }

    int64_t scope;
    if (strike.resource == ResourceKind::L2Cache ||
        strike.resource == ResourceKind::Interconnect) {
        scope = n_;
    } else {
        scope = blockTile;
    }
    auto consumed = static_cast<int64_t>(
        std::ceil(static_cast<double>(scope) *
                  (1.0 - strike.timeFraction)));
    consumed = std::clamp<int64_t>(consumed, 1, n_);
    int64_t start = consumed >= n_
        ? 0 : rng.uniformRange(0, n_ - consumed);

    for (int64_t idx = start; idx < start + consumed; ++idx) {
        double delta = 0.0;
        for (const auto &[k, dv] : deltas) {
            delta += corrupt_a ? dv * gold_->b[k * n_ + idx]
                               : dv * gold_->a[idx * n_ + k];
        }
        if (delta == 0.0)
            continue;
        if (corrupt_a)
            record(out, row, idx, gold_->c[row * n_ + idx] + delta);
        else
            record(out, idx, row, gold_->c[idx * n_ + row] + delta);
    }
}

void
Dgemm::injectWrongOperation(const Strike &strike, Rng &rng,
                            SdcRecord &out) const
{
    // One warp/vector chunk executes a garbled instruction window:
    // its slice of the C tile is numerically garbage.
    (void)strike;
    int64_t i0 = rng.uniformRange(0, n_ / chunkRows - 1) * chunkRows;
    int64_t j0 = rng.uniformRange(0, n_ / chunkCols - 1) * chunkCols;
    for (int64_t i = i0; i < i0 + chunkRows; ++i) {
        for (int64_t j = j0; j < j0 + chunkCols; ++j)
            record(out, i, j, garbageValue(gold_->cRms, rng));
    }
}

void
Dgemm::injectSkippedChunk(const Strike &strike, Rng &rng,
                          SdcRecord &out) const
{
    // Work silently dropped at timeFraction: the affected elements
    // keep only the partial sums accumulated so far. Scheduler and
    // control-logic strikes drop whole blocks; dispatcher-level
    // strikes drop one warp slice.
    bool whole_block =
        strike.resource == ResourceKind::Scheduler ||
        strike.resource == ResourceKind::ControlLogic;
    int64_t rows = whole_block ? blockTile : chunkRows;
    int64_t cols = whole_block ? blockTile : chunkCols;
    int64_t i0 = rng.uniformRange(0, n_ / rows - 1) * rows;
    int64_t j0 = rng.uniformRange(0, n_ / cols - 1) * cols;
    auto k0 = static_cast<int64_t>(strike.timeFraction *
                                   static_cast<double>(n_));
    k0 = std::clamp<int64_t>(k0, 0, n_);
    for (int64_t i = i0; i < i0 + rows; ++i) {
        for (int64_t j = j0; j < j0 + cols; ++j)
            record(out, i, j, partialDot(i, j, k0));
    }
}

void
Dgemm::injectStaleData(const Strike &strike, Rng &rng,
                       SdcRecord &out) const
{
    // Several scattered chunks consume a stale B panel (the panel
    // from the previous k-step) for one rank-kb update.
    (void)strike;
    // The stale panel is the one from the previous k-step, so k0
    // must start at the second panel; shrink the panel width for
    // matrices smaller than two default panels.
    const int64_t kb = std::min<int64_t>(64, n_ / 2);
    if (kb == 0)
        return;
    int64_t chunks = rng.uniformRange(2, 6);
    int64_t k0 = rng.uniformRange(1, n_ / kb - 1) * kb;
    if (k0 + kb > n_)
        k0 = n_ - kb;
    std::vector<std::pair<int64_t, int64_t>> chosen;
    for (int64_t c = 0; c < chunks; ++c) {
        int64_t i0 = rng.uniformRange(0, n_ / chunkRows - 1) *
            chunkRows;
        int64_t j0 = rng.uniformRange(0, n_ / chunkCols - 1) *
            chunkCols;
        // Distinct consumers only: a chunk reads the stale panel
        // once.
        if (std::find(chosen.begin(), chosen.end(),
                      std::make_pair(i0, j0)) != chosen.end()) {
            continue;
        }
        chosen.emplace_back(i0, j0);
        for (int64_t i = i0; i < i0 + chunkRows; ++i) {
            for (int64_t j = j0; j < j0 + chunkCols; ++j) {
                double delta = 0.0;
                for (int64_t k = k0; k < std::min(n_, k0 + kb);
                     ++k) {
                    double stale = gold_->b[(k - kb) * n_ + j];
                    delta += gold_->a[i * n_ + k] *
                        (stale - gold_->b[k * n_ + j]);
                }
                if (delta != 0.0) {
                    record(out, i, j,
                           gold_->c[i * n_ + j] + delta);
                }
            }
        }
    }
}

void
Dgemm::injectMisscheduledBlock(const Strike &strike, Rng &rng,
                               SdcRecord &out) const
{
    // A block launches with wrong coordinates and writes the tile
    // computed for another region of C over its own tile.
    (void)strike;
    int64_t tiles = n_ / blockTile;
    int64_t bi = rng.uniformRange(0, tiles - 1);
    int64_t bj = rng.uniformRange(0, tiles - 1);
    int64_t si = rng.uniformRange(0, tiles - 1);
    int64_t sj = rng.uniformRange(0, tiles - 1);
    if (si == bi && sj == bj)
        sj = (sj + 1) % tiles;
    for (int64_t di = 0; di < blockTile; ++di) {
        for (int64_t dj = 0; dj < blockTile; ++dj) {
            double read = gold_->c[(si * blockTile + di) * n_ +
                                   sj * blockTile + dj];
            record(out, bi * blockTile + di, bj * blockTile + dj,
                   read);
        }
    }
}

} // namespace radcrit
