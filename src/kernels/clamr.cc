#include "kernels/clamr.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/logging.hh"
#include "common/rng.hh"
#include "exec/pool.hh"
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

/**
 * Minmod slope limiter: the smaller-magnitude slope, or +0.0 when
 * the slopes disagree in sign.
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
 * One field of a run of cells to reconstruct: cell i reads its
 * lower neighbour m[i], itself z[i] and its upper neighbour p[i].
 */
struct Stencil
{
    const double *m, *z, *p;
};

#if defined(__SSE2__)

/** Lane-wise |x|: clears the sign bit, as std::abs does. */
inline __m128d
abs2(__m128d x)
{
    return _mm_andnot_pd(_mm_set1_pd(-0.0), x);
}

/**
 * Lane-wise minmod(a, b), the same compares as the scalar one:
 * |a| < |b| picks a, else b; a * b <= 0 (false for NaN) zeroes
 * the lane to +0.0.
 */
inline __m128d
minmod2(__m128d a, __m128d b)
{
    __m128d lt = _mm_cmplt_pd(abs2(a), abs2(b));
    __m128d smaller = _mm_or_pd(_mm_and_pd(lt, a),
                                _mm_andnot_pd(lt, b));
    __m128d le = _mm_cmple_pd(_mm_mul_pd(a, b), _mm_setzero_pd());
    return _mm_andnot_pd(le, smaller);
}

#endif // __SSE2__

/**
 * MUSCL reconstruction of `count` consecutive cells (fields h, n,
 * t): cell i's minus edge (facing its lower neighbour) goes to
 * minus[mi + i], its plus edge to plus[pi + i]. Each slope is
 * limited once and shared by both edges; reconstruction must not
 * drive the depth negative.
 */
void
reconstruct(const Stencil &h, const Stencil &n, const Stencil &t,
            size_t count, Edges &minus, size_t mi, Edges &plus,
            size_t pi)
{
    double *mh = minus.h.data() + mi;
    double *mn = minus.n.data() + mi;
    double *mt = minus.t.data() + mi;
    double *ph = plus.h.data() + pi;
    double *pn = plus.n.data() + pi;
    double *pt = plus.t.data() + pi;
    size_t i = 0;
#if defined(__SSE2__)
    // Two cells per step; every lane runs the scalar loop's
    // operations in its order (see DESIGN.md).
    const __m128d hf = _mm_set1_pd(hFloor);
    const __m128d half = _mm_set1_pd(0.5);
    const __m128d mhalf = _mm_set1_pd(-0.5);
    for (; i + 2 <= count; i += 2) {
        __m128d h0 = _mm_loadu_pd(h.z + i);
        __m128d n0 = _mm_loadu_pd(n.z + i);
        __m128d t0 = _mm_loadu_pd(t.z + i);
        __m128d sh = minmod2(_mm_sub_pd(h0, _mm_loadu_pd(h.m + i)),
                             _mm_sub_pd(_mm_loadu_pd(h.p + i), h0));
        __m128d sn = minmod2(_mm_sub_pd(n0, _mm_loadu_pd(n.m + i)),
                             _mm_sub_pd(_mm_loadu_pd(n.p + i), n0));
        __m128d st = minmod2(_mm_sub_pd(t0, _mm_loadu_pd(t.m + i)),
                             _mm_sub_pd(_mm_loadu_pd(t.p + i), t0));
        // _mm_max_pd(hf, x) is std::max(x, hFloor), NaN included.
        _mm_storeu_pd(mh + i, _mm_max_pd(
            hf, _mm_add_pd(h0, _mm_mul_pd(mhalf, sh))));
        _mm_storeu_pd(mn + i, _mm_add_pd(n0, _mm_mul_pd(mhalf, sn)));
        _mm_storeu_pd(mt + i, _mm_add_pd(t0, _mm_mul_pd(mhalf, st)));
        _mm_storeu_pd(ph + i, _mm_max_pd(
            hf, _mm_add_pd(h0, _mm_mul_pd(half, sh))));
        _mm_storeu_pd(pn + i, _mm_add_pd(n0, _mm_mul_pd(half, sn)));
        _mm_storeu_pd(pt + i, _mm_add_pd(t0, _mm_mul_pd(half, st)));
    }
#endif
    for (; i < count; ++i) {
        double sh = minmod(h.z[i] - h.m[i], h.p[i] - h.z[i]);
        double sn = minmod(n.z[i] - n.m[i], n.p[i] - n.z[i]);
        double st = minmod(t.z[i] - t.m[i], t.p[i] - t.z[i]);
        mh[i] = std::max(h.z[i] + -0.5 * sh, hFloor);
        mn[i] = n.z[i] + -0.5 * sn;
        mt[i] = t.z[i] + -0.5 * st;
        ph[i] = std::max(h.z[i] + 0.5 * sh, hFloor);
        pn[i] = n.z[i] + 0.5 * sn;
        pt[i] = t.z[i] + 0.5 * st;
    }
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
    constexpr double halfG = 0.5 * Clamr::g;
    size_t k = 0;
#if defined(__SSE2__)
    // Two interfaces per step; every lane runs the scalar loop's
    // operations in its order (see DESIGN.md).
    const __m128d hf = _mm_set1_pd(hFloor);
    const __m128d zero = _mm_setzero_pd();
    const __m128d half = _mm_set1_pd(0.5);
    const __m128d g = _mm_set1_pd(Clamr::g);
    const __m128d hg = _mm_set1_pd(halfG);
    for (; k + 2 <= count; k += 2) {
        __m128d hl = _mm_loadu_pd(left.h.data() + k);
        __m128d hul = _mm_loadu_pd(left.n.data() + k);
        __m128d hvl = _mm_loadu_pd(left.t.data() + k);
        __m128d hr = _mm_loadu_pd(right.h.data() + k);
        __m128d hur = _mm_loadu_pd(right.n.data() + k);
        __m128d hvr = _mm_loadu_pd(right.t.data() + k);
        __m128d ul = _mm_div_pd(hul, _mm_max_pd(hf, hl));
        __m128d ur = _mm_div_pd(hur, _mm_max_pd(hf, hr));
        __m128d cl = _mm_add_pd(abs2(ul), _mm_sqrt_pd(
            _mm_mul_pd(g, _mm_max_pd(zero, hl))));
        __m128d cr = _mm_add_pd(abs2(ur), _mm_sqrt_pd(
            _mm_mul_pd(g, _mm_max_pd(zero, hr))));
        __m128d ha = _mm_mul_pd(half, _mm_max_pd(cr, cl));

        __m128d fl_hu = _mm_add_pd(_mm_mul_pd(hul, ul), _mm_mul_pd(
            _mm_mul_pd(hg, hl), hl));
        __m128d fr_hu = _mm_add_pd(_mm_mul_pd(hur, ur), _mm_mul_pd(
            _mm_mul_pd(hg, hr), hr));
        __m128d fh = _mm_sub_pd(
            _mm_mul_pd(half, _mm_add_pd(hul, hur)),
            _mm_mul_pd(ha, _mm_sub_pd(hr, hl)));
        __m128d fn = _mm_sub_pd(
            _mm_mul_pd(half, _mm_add_pd(fl_hu, fr_hu)),
            _mm_mul_pd(ha, _mm_sub_pd(hur, hul)));
        __m128d ft = _mm_sub_pd(
            _mm_mul_pd(half, _mm_add_pd(_mm_mul_pd(hvl, ul),
                                        _mm_mul_pd(hvr, ur))),
            _mm_mul_pd(ha, _mm_sub_pd(hvr, hvl)));
        _mm_storeu_pd(f.h.data() + k, fh);
        _mm_storeu_pd(f.n.data() + k, fn);
        _mm_storeu_pd(f.t.data() + k, ft);
    }
#endif
    for (; k < count; ++k) {
        double hl = left.h[k], hul = left.n[k], hvl = left.t[k];
        double hr = right.h[k], hur = right.n[k], hvr = right.t[k];
        double ul = hul / std::max(hl, hFloor);
        double ur = hur / std::max(hr, hFloor);
        double cl = std::abs(ul) +
            std::sqrt(Clamr::g * std::max(hl, 0.0));
        double cr = std::abs(ur) +
            std::sqrt(Clamr::g * std::max(hr, 0.0));
        double ha = 0.5 * std::max(cl, cr);

        double fl_hu = hul * ul + halfG * hl * hl;
        double fr_hu = hur * ur + halfG * hr * hr;
        f.h[k] = 0.5 * (hul + hur) - ha * (hr - hl);
        f.n[k] = 0.5 * (fl_hu + fr_hu) - ha * (hur - hul);
        f.t[k] = 0.5 * (hvl * ul + hvr * ur) - ha * (hvr - hvl);
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
    // Each step fans out in row bands over the attached build pool
    // (forBands(), exec/pool.hh), in one band when none is.
    const BandBody band = [&](uint64_t begin, uint64_t end) {
        stepRows(cur, nxt, static_cast<int64_t>(begin),
                 static_cast<int64_t>(end));
    };
    for (int64_t it = 0; it < steps_; ++it) {
        forBands(static_cast<uint64_t>(n_), band);
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

    traits_.name = "CLAMR";
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
    return labelFor(n_, paperScale_);
}

std::string
Clamr::labelFor(int64_t grid, int64_t paper_scale)
{
    int64_t n_eff = grid * paper_scale;
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

double
Clamr::recordMass(const SdcRecord &record) const
{
    SweState state;
    state.h = materializeField(golden_.h, record, n_);
    return mass(state);
}

void
Clamr::step(const SweState &src, SweState &dst) const
{
    const auto cells = src.h.size();
    dst.h.resize(cells);
    dst.hu.resize(cells);
    dst.hv.resize(cells);
    stepRows(src, dst, 0, n_);
}

void
Clamr::stepRows(const SweState &src, SweState &dst, int64_t r0,
                int64_t r1) const
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
    // Each cell is reconstructed once per sweep (plus one halo row
    // per band), and the Y sweep walks rows with rolling edge
    // buffers, so scratch is O(n) and local to the call (step()
    // runs concurrently on clones, stepRows() on disjoint bands).
    const double lam = dt_; // dx = dy = 1
    const int64_t n = n_;
    const auto un = static_cast<size_t>(n);
    auto row = [n](auto &field, int64_t r) {
        return field.data() + r * n;
    };

    // X sweep, row by row. Interface k lies between cells k-1 and
    // k, k in [0, n]: its left state is the plus edge of cell k-1,
    // its right state the minus edge of cell k. Normal momentum hu,
    // tangential hv; the ghost beyond either wall mirrors the cell
    // itself with hu negated.
    Edges left(un + 1), right(un + 1), flux(un + 1);
    for (int64_t r = r0; r < r1; ++r) {
        const double *h = row(src.h, r);
        const double *hu = row(src.hu, r);
        const double *hv = row(src.hv, r);
        const double lo = -hu[0];
        const double hi = -hu[n - 1];
        reconstruct({h, h, h + 1}, {&lo, hu, hu + 1},
                    {hv, hv, hv + 1}, 1, right, 0, left, 1);
        reconstruct({h, h + 1, h + 2}, {hu, hu + 1, hu + 2},
                    {hv, hv + 1, hv + 2}, un - 2, right, 1, left, 2);
        reconstruct({h + n - 2, h + n - 1, h + n - 1},
                    {hu + n - 2, hu + n - 1, &hi},
                    {hv + n - 2, hv + n - 1, hv + n - 1}, 1, right,
                    un - 1, left, un);
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

    // Y sweep, interface row by interface row, over interfaces
    // r0..r1. Interface k lies between rows k-1 and k: `below`
    // holds row k-1's plus edges, `above` row k's minus edges, and
    // row k's plus edges land in `next`, which becomes `below` for
    // interface k+1. Normal momentum hv, tangential hu. The row
    // beyond a wall is the row itself with hv negated (`ghost`).
    Edges below(un), above(un), next(un);
    std::vector<double> ghost(un);
    auto reconstructRow = [&](int64_t k, Edges &minus, Edges &plus) {
        const double *h = row(src.h, k);
        const double *hu = row(src.hu, k);
        const double *hv = row(src.hv, k);
        if (k == 0 || k == n - 1) {
            for (size_t c = 0; c < un; ++c)
                ghost[c] = -hv[c];
        }
        const int64_t dm = k > 0 ? -n : 0;
        const int64_t dp = k < n - 1 ? n : 0;
        reconstruct({h + dm, h, h + dp},
                    {k > 0 ? hv - n : ghost.data(), hv,
                     k < n - 1 ? hv + n : ghost.data()},
                    {hu + dm, hu, hu + dp}, un, minus, 0, plus, 0);
    };
    // A band below the first row recomputes its halo: the plus
    // edges of row r0-1, which the band above also computes.
    if (r0 > 0)
        reconstructRow(r0 - 1, above, below);
    for (int64_t k = r0; k <= r1; ++k) {
        if (k < n)
            reconstructRow(k, above, next);
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
        // Interface r0's flux belongs to the band above for row
        // r0-1, interface r1's to the band below for row r1.
        if (k > r0) {
            double *dh = row(dst.h, k - 1);
            double *dhu = row(dst.hu, k - 1);
            double *dhv = row(dst.hv, k - 1);
            for (int64_t c = 0; c < n; ++c) {
                dh[c] -= lam * fh[c];
                dhv[c] -= lam * fn[c];
                dhu[c] -= lam * ft[c];
            }
        }
        if (k < r1) {
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
    // A NaN read is logged as the canonical quiet NaN: which NaN
    // operand an FP op propagates, and so the sign of the result,
    // depends on how the compiler ordered commutative operands.
    for (int64_t r = 0; r < n_; ++r) {
        for (int64_t c = 0; c < n_; ++c) {
            double read = cur.h[r * n_ + c];
            double expected = golden_.h[r * n_ + c];
            if (std::isnan(read))
                read = std::numeric_limits<double>::quiet_NaN();
            else if (read == expected)
                continue;
            out.elements.push_back({{r, c, 0}, read, expected});
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
