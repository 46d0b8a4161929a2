#include "kernels/clamr.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "kernels/inject_util.hh"

namespace radcrit
{

namespace
{

/** Height floor used when dividing by h (desingularization). */
constexpr double hFloor = 1e-8;

double
cacheUtil(double ws_bits, double cache_bits, double liveness)
{
    return std::min(1.0, ws_bits / cache_bits) * liveness;
}

/** Rusanov numerical flux for the 1D-split shallow-water system. */
struct Flux
{
    double fh, fhu, fhv;
};

Flux
rusanovX(double hl, double hul, double hvl, double hr, double hur,
         double hvr)
{
    double ul = hul / std::max(hl, hFloor);
    double ur = hur / std::max(hr, hFloor);
    double cl = std::abs(ul) + std::sqrt(Clamr::g *
                                         std::max(hl, 0.0));
    double cr = std::abs(ur) + std::sqrt(Clamr::g *
                                         std::max(hr, 0.0));
    double a = std::max(cl, cr);

    double fl_h = hul;
    double fl_hu = hul * ul + 0.5 * Clamr::g * hl * hl;
    double fl_hv = hvl * ul;
    double fr_h = hur;
    double fr_hu = hur * ur + 0.5 * Clamr::g * hr * hr;
    double fr_hv = hvr * ur;

    Flux f;
    f.fh = 0.5 * (fl_h + fr_h) - 0.5 * a * (hr - hl);
    f.fhu = 0.5 * (fl_hu + fr_hu) - 0.5 * a * (hur - hul);
    f.fhv = 0.5 * (fl_hv + fr_hv) - 0.5 * a * (hvr - hvl);
    return f;
}

/**
 * Minmod slope limiter: the smaller-magnitude slope, or +0.0 when
 * the slopes disagree in sign. Written as two selects so the
 * reconstruction loops stay branch-free.
 */
double
minmod(double a, double b)
{
    double smaller = std::abs(a) < std::abs(b) ? a : b;
    return a * b <= 0.0 ? 0.0 : smaller;
}

/**
 * States (depth, normal momentum, tangential momentum) on one side
 * of a run of interfaces, or the three Rusanov fluxes through them.
 * "Normal" is the momentum across the interfaces being swept.
 */
struct Edges
{
    std::vector<double> h, n, t;

    explicit Edges(size_t count) : h(count), n(count), t(count) {}
};

/**
 * MUSCL reconstruction of one cell from its lower neighbour (hm,
 * nm, tm), itself (h0, n0, t0) and its upper neighbour (hp, np,
 * tp): the minus edge (facing the lower neighbour) goes to
 * minus[mi], the plus edge to plus[pi]. Each slope is limited once
 * and shared by both edges; reconstruction must not drive the
 * depth negative.
 */
inline void
reconstruct(Edges &minus, size_t mi, Edges &plus, size_t pi,
            double hm, double h0, double hp, double nm, double n0,
            double np, double tm, double t0, double tp)
{
    double sh = minmod(h0 - hm, hp - h0);
    double sn = minmod(n0 - nm, np - n0);
    double st = minmod(t0 - tm, tp - t0);
    minus.h[mi] = std::max(h0 + -0.5 * sh, hFloor);
    minus.n[mi] = n0 + -0.5 * sn;
    minus.t[mi] = t0 + -0.5 * st;
    plus.h[pi] = std::max(h0 + 0.5 * sh, hFloor);
    plus.n[pi] = n0 + 0.5 * sn;
    plus.t[pi] = t0 + 0.5 * st;
}

/**
 * Wall ghost: to[j] mirrors the reconstructed interior edge from[i]
 * with the normal momentum negated, making the wall mass flux
 * exactly zero.
 */
inline void
mirror(Edges &to, size_t j, const Edges &from, size_t i)
{
    to.h[j] = from.h[i];
    to.n[j] = -from.n[i];
    to.t[j] = from.t[i];
}

/** Rusanov fluxes through `count` interfaces into f. */
void
fluxes(const Edges &left, const Edges &right, size_t count,
       Edges &f)
{
    for (size_t k = 0; k < count; ++k) {
        Flux x = rusanovX(left.h[k], left.n[k], left.t[k],
                          right.h[k], right.n[k], right.t[k]);
        f.h[k] = x.fh;
        f.n[k] = x.fhu;
        f.t[k] = x.fhv;
    }
}

} // anonymous namespace

void
SweState::resize(size_t cells)
{
    h.assign(cells, 0.0);
    hu.assign(cells, 0.0);
    hv.assign(cells, 0.0);
}

Clamr::Clamr(const DeviceModel &device, int64_t grid, int64_t steps,
             uint64_t seed, int64_t paper_scale)
    : device_(device), n_(grid), steps_(steps),
      paperScale_(paper_scale)
{
    if (grid < 64 || grid % 8 != 0)
        fatal("CLAMR grid %lld must be a multiple of 8 >= 64",
              static_cast<long long>(grid));
    if (steps < 16)
        fatal("CLAMR needs at least 16 steps");
    if (paper_scale <= 0)
        fatal("CLAMR paper_scale must be positive");

    ScopedTimer golden_timer(StatsRegistry::global(),
                             "kernel.clamr.golden");

    snapInterval_ = std::max<int64_t>(steps_ / 16, 1);

    // Circular dam break (the standard CLAMR test problem): a
    // column of deep water at the centre over a shallow background.
    // The paper's runs last 5000 steps, so almost every strike
    // lands on a fully developed wave field; our scaled runs are
    // shorter, so we seed satellite columns and a mild sloshing
    // momentum so the whole domain is wave-active at every strike
    // time (documented in DESIGN.md).
    Rng rng(seed);
    auto cells = static_cast<size_t>(n_) * n_;
    init_.resize(cells);
    double cx = static_cast<double>(n_) / 2.0;
    double cy = static_cast<double>(n_) / 2.0;
    double radius = static_cast<double>(n_) / 8.0;
    struct Column { double r, c, rad, height; };
    std::vector<Column> columns{{cy, cx, radius, 10.0}};
    for (int sat = 0; sat < 6; ++sat) {
        columns.push_back({
            rng.uniform(0.1, 0.9) * static_cast<double>(n_),
            rng.uniform(0.1, 0.9) * static_cast<double>(n_),
            static_cast<double>(n_) / 16.0,
            rng.uniform(3.0, 6.0)});
    }
    for (int64_t r = 0; r < n_; ++r) {
        for (int64_t c = 0; c < n_; ++c) {
            double h = 1.0;
            for (const auto &col : columns) {
                double dr = static_cast<double>(r) + 0.5 - col.r;
                double dc = static_cast<double>(c) + 0.5 - col.c;
                if (dr * dr + dc * dc < col.rad * col.rad)
                    h = std::max(h, col.height);
            }
            size_t i = r * n_ + c;
            init_.h[i] = h;
            // Smooth long-wavelength slosh.
            double ph = 2.0 * M_PI / static_cast<double>(n_);
            init_.hu[i] = 0.3 * h *
                std::sin(ph * static_cast<double>(c) * 2.0);
            init_.hv[i] = 0.3 * h *
                std::cos(ph * static_cast<double>(r) * 3.0);
        }
    }

    // Golden run with checkpoints and AMR cell-count series.
    AmrMap amr(n_, 0.5);
    SweState cur = init_;
    SweState nxt;
    nxt.resize(cells);
    std::vector<SweState> snaps;
    snaps.push_back(cur);
    amr.update(cur.h);
    amrSeries_.push_back(amr.effectiveCells());
    for (int64_t it = 0; it < steps_; ++it) {
        step(cur, nxt);
        std::swap(cur, nxt);
        if ((it + 1) % snapInterval_ == 0 && it + 1 < steps_) {
            snaps.push_back(cur);
            amr.update(cur.h);
            amrSeries_.push_back(amr.effectiveCells());
        }
    }
    snaps_ = std::make_shared<const std::vector<SweState>>(
        std::move(snaps));
    golden_ = cur;
    goldenMass_ = mass(golden_);
    lastMass_ = goldenMass_;

    // --- Launch traits at paper-equivalent scale -------------------
    int64_t n_eff = n_ * paperScale_;
    uint64_t mean_amr = 0;
    for (uint64_t v : amrSeries_)
        mean_amr += v;
    mean_amr /= amrSeries_.size();
    double amr_factor = static_cast<double>(mean_amr) /
        (static_cast<double>(n_) * static_cast<double>(n_));

    traits_.name = name_;
    traits_.totalThreads = static_cast<uint64_t>(
        static_cast<double>(n_eff) * static_cast<double>(n_eff) *
        amr_factor);
    traits_.blockThreads = tile * tile;
    traits_.perBlockLocalBytes = tile * tile * 3 * 8;
    traits_.registersPerThread = 56;
    traits_.flopsPerThread = static_cast<double>(steps_) * 60.0;
    // Many branch-heavy border/refinement tests (Table I:
    // irregular) and one kernel call per step.
    traits_.controlFlowIntensity = 0.8;
    traits_.sfuIntensity = 0.4; // sqrt in the wave speeds
    traits_.kernelInvocations = static_cast<uint64_t>(steps_);
    traits_.doublePrecision = true;

    double ws_bits = 3.0 * static_cast<double>(n_eff) * n_eff *
        64.0;
    bool gpu = device_.schedulerKind == SchedulerKind::Hardware;

    // Compute-bound with irregular accesses (Table I): state is
    // reloaded and overwritten constantly, so storage liveness is
    // short; the criticality mass sits in the control-heavy logic.
    traits_.setUtil(ResourceKind::RegisterFile, 0.15);
    if (device_.hasResource(ResourceKind::L1Cache)) {
        traits_.setUtil(ResourceKind::L1Cache, cacheUtil(
            ws_bits, device_.resource(ResourceKind::L1Cache)
            .sizeBits, 0.15));
    }
    if (device_.hasResource(ResourceKind::SharedMemory))
        traits_.setUtil(ResourceKind::SharedMemory, 0.15);
    if (device_.hasResource(ResourceKind::L2Cache)) {
        traits_.setUtil(ResourceKind::L2Cache, cacheUtil(
            ws_bits, device_.resource(ResourceKind::L2Cache)
            .sizeBits, gpu ? 0.2 : 0.2));
    }
    traits_.setUtil(ResourceKind::Scheduler, 1.0);
    traits_.setUtil(ResourceKind::Dispatcher, 0.9);
    traits_.setUtil(ResourceKind::Fpu, 0.9);
    if (device_.hasResource(ResourceKind::Sfu))
        traits_.setUtil(ResourceKind::Sfu, 0.5);
    traits_.setUtil(ResourceKind::ControlLogic, 0.9);
    traits_.setUtil(ResourceKind::PipelineLatch, 0.9);
    if (device_.hasResource(ResourceKind::Interconnect))
        traits_.setUtil(ResourceKind::Interconnect, 0.5);
}

std::string
Clamr::inputLabel() const
{
    int64_t n_eff = n_ * paperScale_;
    return std::to_string(n_eff) + "x" + std::to_string(n_eff) +
        " cells";
}

SdcRecord
Clamr::emptyRecord() const
{
    SdcRecord rec;
    rec.dims = 2;
    rec.extent = {n_, n_, 1};
    return rec;
}

double
Clamr::mass(const SweState &state)
{
    double m = 0.0;
    for (double h : state.h)
        m += h;
    return m;
}

void
Clamr::step(const SweState &src, SweState &dst) const
{
    // Second-order MUSCL reconstruction (minmod limiter) with
    // Rusanov interface fluxes, unsplit 2D update, reflective
    // boundaries (ghosts mirror the interior cell with the normal
    // momentum negated). The low numerical diffusion of the
    // second-order scheme is what lets injected perturbations
    // persist and propagate as waves instead of being smeared away
    // — the behaviour the paper reports for CLAMR.
    //
    // Interface fluxes are evaluated once per interface and
    // accumulated with opposite signs into both neighbouring
    // cells, so total mass is conserved to the rounding of the
    // per-cell additions. Every cell takes its four flux terms in
    // one fixed order, which the results depend on bit for bit:
    // X +f(c), X -f(c+1), Y +g(r), Y -g(r+1).
    //
    // Each cell is reconstructed once per sweep, and the Y sweep
    // walks rows with rolling edge buffers, so scratch is O(n) and
    // local to the call (step() runs concurrently on clones).
    const double lam = dt_; // dx = dy = 1
    const int64_t n = n_;
    const auto cells = static_cast<size_t>(n) * n;
    const auto un = static_cast<size_t>(n);
    dst.h.resize(cells);
    dst.hu.resize(cells);
    dst.hv.resize(cells);
    auto row = [n](auto &field, int64_t r) {
        return field.data() + r * n;
    };

    // X sweep, row by row. Interface k lies between cells k-1 and
    // k, k in [0, n]: its left state is the plus edge of cell k-1,
    // its right state the minus edge of cell k. Normal momentum hu,
    // tangential hv; the ghost beyond either wall mirrors the cell
    // itself with hu negated.
    Edges left(un + 1), right(un + 1), flux(un + 1);
    for (int64_t r = 0; r < n; ++r) {
        const double *h = row(src.h, r);
        const double *hu = row(src.hu, r);
        const double *hv = row(src.hv, r);
        reconstruct(right, 0, left, 1, h[0], h[0], h[1], -hu[0],
                    hu[0], hu[1], hv[0], hv[0], hv[1]);
        for (int64_t c = 1; c < n - 1; ++c) {
            reconstruct(right, c, left, c + 1, h[c - 1], h[c],
                        h[c + 1], hu[c - 1], hu[c], hu[c + 1],
                        hv[c - 1], hv[c], hv[c + 1]);
        }
        reconstruct(right, un - 1, left, un, h[n - 2], h[n - 1],
                    h[n - 1], hu[n - 2], hu[n - 1], -hu[n - 1],
                    hv[n - 2], hv[n - 1], hv[n - 1]);
        mirror(left, 0, right, 0);
        mirror(right, un, left, un);
        fluxes(left, right, un + 1, flux);

        const double *fh = flux.h.data();
        const double *fn = flux.n.data();
        const double *ft = flux.t.data();
        double *dh = row(dst.h, r);
        double *dhu = row(dst.hu, r);
        double *dhv = row(dst.hv, r);
        for (int64_t c = 0; c < n; ++c) {
            dh[c] = h[c] + lam * fh[c] - lam * fh[c + 1];
            dhu[c] = hu[c] + lam * fn[c] - lam * fn[c + 1];
            dhv[c] = hv[c] + lam * ft[c] - lam * ft[c + 1];
        }
    }

    // Y sweep, interface row by interface row. Interface k lies
    // between rows k-1 and k: `below` holds row k-1's plus edges,
    // `above` row k's minus edges, and row k's plus edges land in
    // `next`, which becomes `below` for interface k+1. Normal
    // momentum hv, tangential hu.
    Edges below(un), above(un), next(un);
    for (int64_t k = 0; k <= n; ++k) {
        if (k < n) {
            const double *h = row(src.h, k);
            const double *hu = row(src.hu, k);
            const double *hv = row(src.hv, k);
            // The row beyond a wall is this row with hv negated.
            const double *hm = k > 0 ? h - n : h;
            const double *hp = k < n - 1 ? h + n : h;
            const double *tm = k > 0 ? hu - n : hu;
            const double *tp = k < n - 1 ? hu + n : hu;
            for (int64_t c = 0; c < n; ++c) {
                double nm = k > 0 ? hv[c - n] : -hv[c];
                double np = k < n - 1 ? hv[c + n] : -hv[c];
                reconstruct(above, c, next, c, hm[c], h[c], hp[c],
                            nm, hv[c], np, tm[c], hu[c], tp[c]);
            }
        }
        if (k == 0) {
            for (size_t c = 0; c < un; ++c)
                mirror(below, c, above, c);
        }
        if (k == n) {
            for (size_t c = 0; c < un; ++c)
                mirror(above, c, below, c);
        }
        fluxes(below, above, un, flux);
        const double *fh = flux.h.data();
        const double *fn = flux.n.data();
        const double *ft = flux.t.data();
        if (k > 0) {
            double *dh = row(dst.h, k - 1);
            double *dhu = row(dst.hu, k - 1);
            double *dhv = row(dst.hv, k - 1);
            for (int64_t c = 0; c < n; ++c) {
                dh[c] -= lam * fh[c];
                dhv[c] -= lam * fn[c];
                dhu[c] -= lam * ft[c];
            }
        }
        if (k < n) {
            double *dh = row(dst.h, k);
            double *dhu = row(dst.hu, k);
            double *dhv = row(dst.hv, k);
            for (int64_t c = 0; c < n; ++c) {
                dh[c] += lam * fh[c];
                dhv[c] += lam * fn[c];
                dhu[c] += lam * ft[c];
            }
        }
        std::swap(below, next);
    }
}

int64_t
Clamr::strikeStep(const Strike &strike) const
{
    auto it = static_cast<int64_t>(strike.timeFraction *
                                   static_cast<double>(steps_));
    return std::clamp<int64_t>(it, 0, steps_ - 1);
}

void
Clamr::runWithCorruption(int64_t it0, int64_t persist,
                         const Corruptor &corrupt, SdcRecord &out)
{
    int64_t snap = std::min<int64_t>(it0 / snapInterval_,
                                     static_cast<int64_t>(
                                         snaps_->size()) - 1);
    SweState cur = (*snaps_)[static_cast<size_t>(snap)];
    SweState nxt;
    nxt.resize(cur.h.size());
    int64_t it_end = std::min(steps_, it0 + persist);
    for (int64_t it = snap * snapInterval_; it < steps_; ++it) {
        if (it >= it0 && it < it_end)
            corrupt(cur, it);
        step(cur, nxt);
        std::swap(cur, nxt);
    }
    lastMass_ = mass(cur);
    for (int64_t r = 0; r < n_; ++r) {
        for (int64_t c = 0; c < n_; ++c) {
            double read = cur.h[r * n_ + c];
            double expected = golden_.h[r * n_ + c];
            if (read != expected || std::isnan(read))
                out.elements.push_back({{r, c, 0}, read,
                                        expected});
        }
    }
}

SdcRecord
Clamr::inject(const Strike &strike, Rng &rng)
{
    ScopedTick tick(injectTimer_);
    SdcRecord out = emptyRecord();
    // Strike-local randomness derives only from the strike's own
    // entropy: the injected record is a pure function of the
    // Strike, which lets beam logs replay campaigns exactly.
    (void)rng;
    Rng srng(Rng::hashCombine(strike.entropy, 0xC1A32ULL));
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
        panic("CLAMR: unhandled manifestation %d",
              static_cast<int>(strike.manifestation));
    }
    return out;
}

void
Clamr::injectValueFlip(const Strike &strike, Rng &rng,
                       SdcRecord &out)
{
    int64_t it0 = strikeStep(strike);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c = rng.uniformRange(0, n_ - 1);
    // h is read most often (fluxes and both wave speeds), so it is
    // the most exposed field; this weighting also sets the
    // mass-check detector coverage (paper ref. [4]: 82%).
    int field = rng.bernoulli(0.6) ? 0
        : (rng.bernoulli(0.5) ? 1 : 2);
    uint32_t bits = strike.burstBits;
    Rng flip_rng = rng.split(1);
    Corruptor corrupt = [=, this, &flip_rng](SweState &state,
                                             int64_t) {
        size_t i = r * n_ + c;
        if (field == 0) {
            // Mantissa plus two low exponent bits: keeps h positive
            // and within the CFL-stable range (larger excursions
            // abort the run and count as crashes).
            state.h[i] = flipBitsBounded(state.h[i], bits, 53,
                                         flip_rng);
        } else {
            double &v = field == 1 ? state.hu[i] : state.hv[i];
            if (flip_rng.bernoulli(0.1))
                v = -v; // sign flip is bounded for momentum
            else
                v = flipBitsBounded(v, bits, 53, flip_rng);
        }
    };
    runWithCorruption(it0, 1, corrupt, out);
}

void
Clamr::injectInputLineFlip(const Strike &strike, Rng &rng,
                           SdcRecord &out)
{
    int64_t it0 = strikeStep(strike);
    int64_t line_cells = std::max<uint32_t>(
        device_.cacheLineBytes / 8, 1);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c0 = rng.uniformRange(0, n_ - 1) / line_cells *
        line_cells;
    int64_t c1 = std::min(n_, c0 + line_cells);
    bool gpu = device_.schedulerKind == SchedulerKind::Hardware;
    int64_t persist = strike.resource == ResourceKind::L2Cache
        ? (gpu ? 2 : 4) : 1;

    auto values = std::make_shared<std::vector<double>>();
    uint32_t bits = strike.burstBits;
    Rng flip_rng = rng.split(2);
    Corruptor corrupt = [=, this, &flip_rng](SweState &state,
                                             int64_t) {
        if (values->empty()) {
            for (int64_t c = c0; c < c1; ++c)
                values->push_back(state.h[r * n_ + c]);
            for (uint32_t bflip = 0; bflip < bits; ++bflip) {
                auto i = flip_rng.uniformInt(values->size());
                (*values)[i] = flipBitsBounded((*values)[i], 1, 51,
                                               flip_rng);
            }
        }
        for (int64_t c = c0; c < c1; ++c)
            state.h[r * n_ + c] = (*values)[c - c0];
    };
    runWithCorruption(it0, persist, corrupt, out);
}

void
Clamr::injectWrongOperation(const Strike &strike, Rng &rng,
                            SdcRecord &out)
{
    // One work chunk computes a wrong update for one step.
    int64_t it0 = strikeStep(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    Rng noise_rng = rng.split(3);
    Corruptor corrupt = [=, this, &noise_rng](SweState &state,
                                              int64_t) {
        for (int64_t r = tr; r < tr + tile; ++r) {
            for (int64_t c = tc; c < tc + tile; ++c) {
                size_t i = r * n_ + c;
                // Noise scaled to the local state keeps the run
                // inside the CFL-stable range (larger excursions
                // abort and count as crashes, see file comment).
                double h = state.h[i];
                state.h[i] = std::max(
                    0.05, h + noise_rng.normal(0.0, 0.35 * h));
                state.hu[i] += noise_rng.normal(0.0,
                                                0.8 * state.h[i]);
                state.hv[i] += noise_rng.normal(0.0,
                                                0.8 * state.h[i]);
            }
        }
    };
    runWithCorruption(it0, 1, corrupt, out);
}

void
Clamr::injectSkippedChunk(const Strike &strike, Rng &rng,
                          SdcRecord &out)
{
    // One chunk's update silently skipped: its cells lag one step.
    int64_t it0 = strikeStep(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    auto stale = std::make_shared<SweState>();
    Corruptor corrupt = [=, this](SweState &state, int64_t) {
        if (stale->h.empty()) {
            stale->resize(tile * tile);
            size_t k = 0;
            for (int64_t r = tr; r < tr + tile; ++r) {
                for (int64_t c = tc; c < tc + tile; ++c) {
                    size_t i = r * n_ + c;
                    stale->h[k] = state.h[i];
                    stale->hu[k] = state.hu[i];
                    stale->hv[k] = state.hv[i];
                    ++k;
                }
            }
            return;
        }
        size_t k = 0;
        for (int64_t r = tr; r < tr + tile; ++r) {
            for (int64_t c = tc; c < tc + tile; ++c) {
                size_t i = r * n_ + c;
                state.h[i] = stale->h[k];
                state.hu[i] = stale->hu[k];
                state.hv[i] = stale->hv[k];
                ++k;
            }
        }
    };
    runWithCorruption(it0, 5, corrupt, out);
}

void
Clamr::injectStaleData(const Strike &strike, Rng &rng,
                       SdcRecord &out)
{
    // A halo row segment of heights is served stale for two steps.
    int64_t it0 = strikeStep(strike);
    int64_t r = rng.uniformRange(0, n_ - 1);
    int64_t c0 = rng.uniformRange(0, n_ - 1) / tile * tile;
    int64_t c1 = std::min(n_, c0 + 4 * tile);
    auto stale = std::make_shared<std::vector<double>>();
    Corruptor corrupt = [=, this](SweState &state, int64_t) {
        if (stale->empty()) {
            for (int64_t c = c0; c < c1; ++c)
                stale->push_back(state.h[r * n_ + c]);
            return;
        }
        for (int64_t c = c0; c < c1; ++c)
            state.h[r * n_ + c] = (*stale)[c - c0];
    };
    runWithCorruption(it0, 3, corrupt, out);
}

void
Clamr::injectMisscheduledBlock(const Strike &strike, Rng &rng,
                               SdcRecord &out)
{
    // One chunk receives the state computed for another chunk.
    int64_t it0 = strikeStep(strike);
    int64_t tiles = n_ / tile;
    int64_t tr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t tc = rng.uniformRange(0, tiles - 1) * tile;
    int64_t sr = rng.uniformRange(0, tiles - 1) * tile;
    int64_t sc = rng.uniformRange(0, tiles - 1) * tile;
    if (sr == tr && sc == tc)
        sc = (sc + tile) % n_;
    Corruptor corrupt = [=, this](SweState &state, int64_t) {
        for (int64_t dr = 0; dr < tile; ++dr) {
            for (int64_t dc = 0; dc < tile; ++dc) {
                size_t dst = (tr + dr) * n_ + tc + dc;
                size_t src = (sr + dr) * n_ + sc + dc;
                state.h[dst] = state.h[src];
                state.hu[dst] = state.hu[src];
                state.hv[dst] = state.hv[src];
            }
        }
    };
    runWithCorruption(it0, 1, corrupt, out);
}

} // namespace radcrit
