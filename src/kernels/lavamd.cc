#include "kernels/lavamd.hh"

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

double
cacheUtil(double ws_bits, double cache_bits, double liveness)
{
    return std::min(1.0, ws_bits / cache_bits) * liveness;
}

} // anonymous namespace

LavaMd::LavaMd(const DeviceModel &device, int64_t boxes1d,
               uint64_t seed, int64_t paper_scale,
               int64_t particle_scale, int64_t paper_boxes1d)
    : device_(device), nb_(boxes1d), paperScale_(paper_scale),
      paperBoxes_(paper_boxes1d > 0 ? paper_boxes1d
                                    : boxes1d * paper_scale)
{
    if (boxes1d < 2)
        fatal("LavaMD needs at least 2 boxes per dimension");
    if (paper_scale <= 0 || particle_scale <= 0)
        fatal("LavaMD scales must be positive");
    if (device_.particlesPerBoxHint == 0)
        fatal("device %s has no LavaMD particle tuning",
              device_.name.c_str());

    ScopedTimer golden_timer(StatsRegistry::global(),
                             "kernel.lavamd.golden");

    p_ = std::max<int64_t>(
        device_.particlesPerBoxHint / particle_scale, 4);

    int64_t boxes = nb_ * nb_ * nb_;
    auto total = static_cast<size_t>(boxes * p_);
    posx_.resize(total);
    posy_.resize(total);
    posz_.resize(total);
    charge_.resize(total);

    Rng rng(seed);
    for (int64_t b = 0; b < boxes; ++b) {
        auto bc = boxCoord(b);
        for (int64_t p = 0; p < p_; ++p) {
            size_t gi = b * p_ + p;
            posx_[gi] = static_cast<double>(bc[0]) + rng.uniform();
            posy_[gi] = static_cast<double>(bc[1]) + rng.uniform();
            posz_[gi] = static_cast<double>(bc[2]) + rng.uniform();
            charge_[gi] = rng.uniform(0.1, 1.0);
        }
    }
    curx_ = posx_;
    cury_ = posy_;
    curz_ = posz_;
    curq_ = charge_;

    // One contiguous box band per job of the attached build pool:
    // each force keeps its neighbour/particle summation order and
    // bands write disjoint boxes, so the bytes match a serial run.
    fGolden_.resize(total);
    forBands(static_cast<uint64_t>(boxes),
             [this](uint64_t begin, uint64_t end) {
                 for (auto b = static_cast<int64_t>(begin);
                      b < static_cast<int64_t>(end); ++b) {
                     auto neigh = neighbors(b);
                     for (int64_t p = 0; p < p_; ++p) {
                         int64_t gi = b * p_ + p;
                         fGolden_[gi] = forceOver(gi, neigh);
                     }
                 }
             });
    double sumsq = 0.0;
    for (double f : fGolden_)
        sumsq += f * f;
    fRms_ = std::sqrt(sumsq / static_cast<double>(total));
    if (fRms_ <= 0.0)
        fRms_ = 1.0;

    traits_ = traitsFor(device_, paperBoxes_);
}

std::string
LavaMd::inputLabel() const
{
    return labelFor(paperBoxes_);
}

std::string
LavaMd::labelFor(int64_t paper_boxes1d)
{
    return std::to_string(paper_boxes1d) + " boxes/dim";
}

WorkloadTraits
LavaMd::traitsFor(const DeviceModel &device, int64_t paper_boxes1d)
{
    // Launch traits at paper-equivalent scale.
    WorkloadTraits traits;
    int64_t nb_eff = paper_boxes1d;
    uint64_t p_eff = device.particlesPerBoxHint;
    traits.name = "LavaMD";
    traits.totalThreads =
        static_cast<uint64_t>(nb_eff) * nb_eff * nb_eff * p_eff;
    traits.blockThreads = p_eff;
    // Home box + one neighbor box staged locally: 2 * P * 4 doubles
    // (~12-14 KB per block on the K40, as the paper notes).
    traits.perBlockLocalBytes = 2 * p_eff * 4 * 8;
    traits.registersPerThread = 48;
    traits.flopsPerThread = 27.0 * static_cast<double>(p_eff) *
        10.0;
    traits.controlFlowIntensity = 0.15;
    traits.sfuIntensity = 0.9;
    traits.kernelInvocations = 1;
    traits.doublePrecision = true;

    double ws_bits = static_cast<double>(nb_eff) * nb_eff * nb_eff *
        static_cast<double>(p_eff) * 4.0 * 64.0;
    bool gpu = device.schedulerKind == SchedulerKind::Hardware;

    // The inner interaction loop touches its registers every cycle
    // (short idle windows) and the low occupancy keeps the
    // multiplexing depth shallow: small register liveness.
    traits.setUtil(ResourceKind::RegisterFile, 0.04);
    if (device.hasResource(ResourceKind::L1Cache)) {
        traits.setUtil(ResourceKind::L1Cache, cacheUtil(
            ws_bits, device.resource(ResourceKind::L1Cache)
            .sizeBits, 0.35));
    }
    if (device.hasResource(ResourceKind::SharedMemory))
        traits.setUtil(ResourceKind::SharedMemory, 0.5);
    if (device.hasResource(ResourceKind::L2Cache)) {
        // Memory-bound (Table I): boxes live long in the LLC. The
        // Phi's huge coherent L2 keeps most of the dataset resident
        // (paper V-E), and its utilization grows with input size;
        // the K40's small L2 evicts quickly (short liveness).
        traits.setUtil(ResourceKind::L2Cache, cacheUtil(
            ws_bits, device.resource(ResourceKind::L2Cache)
            .sizeBits, gpu ? 0.5 : 0.9));
    }
    // Few, heavy, long-lived blocks: the dispatch duty cycle of
    // the scheduler is low even though the block count is large.
    traits.setUtil(ResourceKind::Scheduler, 0.12);
    traits.setUtil(ResourceKind::Dispatcher, 0.7);
    traits.setUtil(ResourceKind::Fpu, 1.0);
    if (device.hasResource(ResourceKind::Sfu))
        traits.setUtil(ResourceKind::Sfu, 1.0);
    traits.setUtil(ResourceKind::ControlLogic, 0.2);
    traits.setUtil(ResourceKind::PipelineLatch, 0.8);
    if (device.hasResource(ResourceKind::Interconnect))
        traits.setUtil(ResourceKind::Interconnect, 0.7);
    return traits;
}

SdcRecord
LavaMd::emptyRecord() const
{
    SdcRecord rec;
    rec.dims = 3;
    rec.extent = {nb_, nb_, nb_};
    return rec;
}

int64_t
LavaMd::boxIndex(int64_t bx, int64_t by, int64_t bz) const
{
    return (bz * nb_ + by) * nb_ + bx;
}

std::array<int64_t, 3>
LavaMd::boxCoord(int64_t b) const
{
    return {b % nb_, (b / nb_) % nb_, b / (nb_ * nb_)};
}

std::vector<int64_t>
LavaMd::neighbors(int64_t b) const
{
    auto bc = boxCoord(b);
    std::vector<int64_t> out;
    out.reserve(27);
    for (int64_t dz = -1; dz <= 1; ++dz) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
            for (int64_t dx = -1; dx <= 1; ++dx) {
                int64_t x = bc[0] + dx;
                int64_t y = bc[1] + dy;
                int64_t z = bc[2] + dz;
                if (x < 0 || x >= nb_ || y < 0 || y >= nb_ ||
                    z < 0 || z >= nb_) {
                    continue; // border boxes have fewer neighbors
                }
                out.push_back(boxIndex(x, y, z));
            }
        }
    }
    return out;
}

double
LavaMd::pairForce(int64_t gi, int64_t gj) const
{
    double dx = curx_[gi] - curx_[gj];
    double dy = cury_[gi] - cury_[gj];
    double dz = curz_[gi] - curz_[gj];
    double r2 = dx * dx + dy * dy + dz * dz;
    return curq_[gj] * 2.0 * std::exp(-a2 * r2) * dx;
}

// Kept out of line: inlined into the golden band loop, the loop's
// extra live values spill around every exp() call, and the golden
// build ran ~20% slower on one thread.
[[gnu::noinline]] double
LavaMd::forceOver(int64_t gi,
                  const std::vector<int64_t> &boxes) const
{
    double f = 0.0;
    for (int64_t b : boxes) {
        int64_t base = b * p_;
        for (int64_t p = 0; p < p_; ++p) {
            int64_t gj = base + p;
            if (gj == gi)
                continue;
            f += pairForce(gi, gj);
        }
    }
    return f;
}

int64_t
LavaMd::consumerBoxes(ResourceKind resource, size_t neigh,
                      Rng &rng) const
{
    auto n = static_cast<int64_t>(neigh);
    switch (resource) {
      case ResourceKind::RegisterFile:
      case ResourceKind::PipelineLatch:
        return 1;
      case ResourceKind::SharedMemory:
        return 1; // the staging copy serves one home box
      case ResourceKind::L1Cache:
        // blocks co-resident on one SM / threads on one core
        return std::min<int64_t>(n, 2 + rng.uniformRange(0, 2));
      case ResourceKind::L2Cache:
      case ResourceKind::Interconnect: {
        // Residency: fraction of the neighborhood served before the
        // line is evicted, shrinking as the working set outgrows
        // the LLC (paper V-B: larger inputs increase isolation
        // between blocks on the K40; the Phi's L2 keeps serving).
        double l2 = device_.resource(ResourceKind::L2Cache)
            .sizeBits;
        int64_t nb_eff = paperBoxes_;
        double ws = static_cast<double>(nb_eff) * nb_eff * nb_eff *
            static_cast<double>(device_.particlesPerBoxHint) * 4.0 *
            64.0;
        double frac = std::clamp(4.0 * l2 / ws, 0.08, 1.0);
        return std::max<int64_t>(
            1, static_cast<int64_t>(std::lround(
                static_cast<double>(n) * frac)));
      }
      default:
        return 1;
    }
}

void
LavaMd::record(SdcRecord &out, int64_t gi, double read) const
{
    double expected = fGolden_[gi];
    if (read != expected || std::isnan(read)) {
        auto bc = boxCoord(gi / p_);
        out.elements.push_back({{bc[0], bc[1], bc[2]}, read,
                                expected});
    }
}

void
LavaMd::recomputeBoxWith(int64_t box,
                         const std::vector<int64_t> &corrupted_gi,
                         SdcRecord &out)
{
    auto neigh = neighbors(box);
    for (int64_t p = 0; p < p_; ++p) {
        int64_t gi = box * p_ + p;
        bool self_corrupted = std::find(corrupted_gi.begin(),
                                        corrupted_gi.end(), gi) !=
            corrupted_gi.end();
        double f;
        if (self_corrupted) {
            // Its own position changed: every term differs.
            f = forceOver(gi, neigh);
        } else {
            // Delta update: only terms against corrupted particles
            // change — but only when those particles are inside
            // this box's neighborhood.
            f = fGolden_[gi];
            for (int64_t gj : corrupted_gi) {
                if (gj == gi)
                    continue;
                int64_t gj_box = gj / p_;
                if (std::find(neigh.begin(), neigh.end(), gj_box) ==
                    neigh.end()) {
                    continue;
                }
                // Original term recomputed from pristine inputs.
                double dx = posx_[gi] - posx_[gj];
                double dy = posy_[gi] - posy_[gj];
                double dz = posz_[gi] - posz_[gj];
                double r2 = dx * dx + dy * dy + dz * dz;
                double orig = charge_[gj] * 2.0 *
                    std::exp(-a2 * r2) * dx;
                f += pairForce(gi, gj) - orig;
            }
        }
        record(out, gi, f);
    }
}

SdcRecord
LavaMd::inject(const Strike &strike, Rng &rng)
{
    ScopedTick tick(injectTimer_);
    SdcRecord out = emptyRecord();
    // Strike-local randomness derives only from the strike's own
    // entropy: the injected record is a pure function of the
    // Strike, which lets beam logs replay campaigns exactly.
    (void)rng;
    Rng srng(Rng::hashCombine(strike.entropy, 0x1A7A3DULL));
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
        panic("LavaMD: unhandled manifestation %d",
              static_cast<int>(strike.manifestation));
    }
    // Restore pristine inputs for the next injection.
    curx_ = posx_;
    cury_ = posy_;
    curz_ = posz_;
    curq_ = charge_;
    return out;
}

void
LavaMd::injectValueFlip(const Strike &strike, Rng &rng,
                        SdcRecord &out)
{
    auto total = static_cast<int64_t>(fGolden_.size());
    bool thread_private =
        strike.resource == ResourceKind::RegisterFile ||
        strike.resource == ResourceKind::PipelineLatch;

    if (thread_private && rng.bernoulli(0.25)) {
        // Accumulator upset: the partial potential of one particle
        // is flipped mid-accumulation; the rest accumulates on top.
        int64_t gi = rng.uniformRange(0, total - 1);
        auto neigh = neighbors(gi / p_);
        auto k0 = static_cast<size_t>(strike.timeFraction *
                                      static_cast<double>(
                                          neigh.size()));
        k0 = std::min(k0, neigh.size());
        std::vector<int64_t> head(neigh.begin(),
                                  neigh.begin() +
                                  static_cast<long>(k0));
        double partial = forceOver(gi, head);
        double flipped = flipBits(partial, strike.burstBits, rng);
        record(out, gi, flipped + (fGolden_[gi] - partial));
        return;
    }

    // An input value (position component or charge) is corrupted;
    // consumers that read it after the strike compute wrong terms.
    // The exponentiation magnifies even small perturbations.
    int64_t gj = rng.uniformRange(0, total - 1);
    // Thread-private copies hold the thread's own position; shared
    // copies may also hold the charge.
    int comp = static_cast<int>(
        rng.uniformRange(0, thread_private ? 2 : 3));
    std::vector<double> *arr =
        comp == 0 ? &curx_ : comp == 1 ? &cury_
        : comp == 2 ? &curz_ : &curq_;
    (*arr)[gj] = flipBits((*arr)[gj], strike.burstBits, rng);

    if (thread_private) {
        // The corrupted copy is the thread's own position register,
        // read once per pair term: every interaction computed after
        // the strike uses it, so the whole tail of the accumulation
        // is wrong (and exp-magnified).
        auto neigh = neighbors(gj / p_);
        auto k0 = static_cast<size_t>(strike.timeFraction *
                                      static_cast<double>(
                                          neigh.size()));
        k0 = std::min(k0, neigh.size());
        std::vector<int64_t> head(neigh.begin(),
                                  neigh.begin() +
                                  static_cast<long>(k0));
        std::vector<int64_t> tail(neigh.begin() +
                                  static_cast<long>(k0),
                                  neigh.end());
        // Golden partial over the already-processed boxes...
        double f = fGolden_[gj];
        for (int64_t b : tail) {
            for (int64_t p = 0; p < p_; ++p) {
                int64_t go = b * p_ + p;
                if (go == gj)
                    continue;
                double dx = posx_[gj] - posx_[go];
                double dy = posy_[gj] - posy_[go];
                double dz = posz_[gj] - posz_[go];
                double r2 = dx * dx + dy * dy + dz * dz;
                f -= charge_[go] * 2.0 * std::exp(-a2 * r2) * dx;
            }
        }
        // ...plus the tail recomputed with the corrupted own
        // position (only gj's entry of the cur arrays differs).
        for (int64_t b : tail) {
            for (int64_t p = 0; p < p_; ++p) {
                int64_t go = b * p_ + p;
                if (go == gj)
                    continue;
                double dx = curx_[gj] - posx_[go];
                double dy = cury_[gj] - posy_[go];
                double dz = curz_[gj] - posz_[go];
                double r2 = dx * dx + dy * dy + dz * dz;
                f += charge_[go] * 2.0 * std::exp(-a2 * r2) * dx;
            }
        }
        record(out, gj, f);
        return;
    }

    auto neigh = neighbors(gj / p_);
    int64_t scope = consumerBoxes(strike.resource, neigh.size(),
                                  rng);
    auto after = static_cast<int64_t>(
        std::ceil((1.0 - strike.timeFraction) *
                  static_cast<double>(neigh.size())));
    int64_t count = std::clamp<int64_t>(
        std::min(scope, after), 1,
        static_cast<int64_t>(neigh.size()));
    std::vector<int64_t> corrupted{gj};
    for (int64_t k = 0; k < count; ++k) {
        // Boxes scheduled last consume the corruption.
        recomputeBoxWith(neigh[neigh.size() - 1 - k], corrupted,
                         out);
    }
}

void
LavaMd::injectInputLineFlip(const Strike &strike, Rng &rng,
                            SdcRecord &out)
{
    auto total = static_cast<int64_t>(fGolden_.size());
    int64_t line_vals = std::max<uint32_t>(
        device_.cacheLineBytes / 8, 1);
    int64_t start = rng.uniformRange(0, total - 1) / line_vals *
        line_vals;
    int64_t end = std::min(total, start + line_vals);

    int comp = static_cast<int>(rng.uniformRange(0, 3));
    std::vector<double> *arr =
        comp == 0 ? &curx_ : comp == 1 ? &cury_
        : comp == 2 ? &curz_ : &curq_;

    std::vector<int64_t> corrupted;
    for (uint32_t bflip = 0; bflip < strike.burstBits; ++bflip) {
        int64_t gi = rng.uniformRange(start, end - 1);
        (*arr)[gi] = flipBits((*arr)[gi], 1, rng);
        if (std::find(corrupted.begin(), corrupted.end(), gi) ==
            corrupted.end()) {
            corrupted.push_back(gi);
        }
    }

    // Affected boxes: the union neighborhood of the corrupted
    // particles, limited by the line's cache residency.
    std::vector<int64_t> boxes;
    for (int64_t gi : corrupted) {
        for (int64_t b : neighbors(gi / p_)) {
            if (std::find(boxes.begin(), boxes.end(), b) ==
                boxes.end()) {
                boxes.push_back(b);
            }
        }
    }
    int64_t scope = consumerBoxes(strike.resource, boxes.size(),
                                  rng);
    auto after = static_cast<int64_t>(
        std::ceil((1.0 - strike.timeFraction) *
                  static_cast<double>(boxes.size())));
    int64_t count = std::clamp<int64_t>(
        std::min(scope, after), 1,
        static_cast<int64_t>(boxes.size()));
    for (int64_t k = 0; k < count; ++k)
        recomputeBoxWith(boxes[boxes.size() - 1 - k], corrupted,
                         out);
}

void
LavaMd::injectWrongOperation(const Strike &strike, Rng &rng,
                             SdcRecord &out)
{
    // Garbled transcendental/FMA window: the potentials produced
    // for one box are numeric garbage. SM persistence occasionally
    // corrupts further boxes scheduled on the same unit (strided
    // through the grid).
    (void)strike;
    int64_t boxes = nb_ * nb_ * nb_;
    int64_t extra = rng.bernoulli(0.35)
        ? rng.uniformRange(1, 2) : 0;
    int64_t stride = std::max<int64_t>(1, boxes /
                                       device_.computeUnits);
    int64_t b0 = rng.uniformRange(0, boxes - 1);
    for (int64_t e = 0; e <= extra; ++e) {
        int64_t b = (b0 + e * stride) % boxes;
        for (int64_t p = 0; p < p_; ++p)
            record(out, b * p_ + p, garbageValue(fRms_, rng));
    }
}

void
LavaMd::injectSkippedChunk(const Strike &strike, Rng &rng,
                           SdcRecord &out)
{
    // Accumulation truncated at the strike time for all particles
    // of the affected box(es); grid-level control strikes drop a
    // run of consecutively scheduled boxes.
    int64_t boxes = nb_ * nb_ * nb_;
    int64_t run = strike.resource == ResourceKind::ControlLogic
        ? rng.uniformRange(1, 4) : 1;
    int64_t b0 = rng.uniformRange(0, boxes - 1);
    for (int64_t e = 0; e < run; ++e) {
        int64_t b = (b0 + e) % boxes;
        auto neigh = neighbors(b);
        auto k0 = static_cast<size_t>(strike.timeFraction *
                                      static_cast<double>(
                                          neigh.size()));
        k0 = std::min(k0, neigh.size());
        std::vector<int64_t> head(neigh.begin(),
                                  neigh.begin() +
                                  static_cast<long>(k0));
        for (int64_t p = 0; p < p_; ++p) {
            int64_t gi = b * p_ + p;
            record(out, gi, forceOver(gi, head));
        }
    }
}

void
LavaMd::injectStaleData(const Strike &strike, Rng &rng,
                        SdcRecord &out)
{
    // Consumers read a stale copy of a victim box's positions (the
    // state before the last relocation).
    int64_t boxes = nb_ * nb_ * nb_;
    int64_t victim = rng.uniformRange(0, boxes - 1);

    std::vector<int64_t> corrupted;
    for (int64_t p = 0; p < p_; ++p) {
        int64_t gi = victim * p_ + p;
        // Wrong/stale line served: positions off by box-scale
        // distances, not rounding-scale ones.
        curx_[gi] += rng.uniform(-2.0, 2.0);
        cury_[gi] += rng.uniform(-2.0, 2.0);
        curz_[gi] += rng.uniform(-2.0, 2.0);
        corrupted.push_back(gi);
    }

    auto neigh = neighbors(victim);
    // Partial Fisher-Yates: pick distinct consumer boxes. The
    // stale line reaches as many boxes as its residency allows
    // (Phi: most of the neighborhood; K40: a few).
    for (size_t k = neigh.size(); k > 1; --k) {
        std::swap(neigh[k - 1],
                  neigh[rng.uniformInt(k)]);
    }
    int64_t consumers = std::clamp<int64_t>(
        consumerBoxes(strike.resource, neigh.size(), rng), 2,
        static_cast<int64_t>(neigh.size()));
    for (int64_t k = 0; k < consumers; ++k)
        recomputeBoxWith(neigh[k], corrupted, out);
}

void
LavaMd::injectMisscheduledBlock(const Strike &strike, Rng &rng,
                                SdcRecord &out)
{
    // One box receives the potentials computed for another box.
    (void)strike;
    int64_t boxes = nb_ * nb_ * nb_;
    int64_t b = rng.uniformRange(0, boxes - 1);
    int64_t src = rng.uniformRange(0, boxes - 1);
    if (src == b)
        src = (src + 1) % boxes;
    for (int64_t p = 0; p < p_; ++p)
        record(out, b * p_ + p, fGolden_[src * p_ + p]);
}

} // namespace radcrit
