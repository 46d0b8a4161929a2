/**
 * @file
 * Property-based tests of the four kernel injectors. A Strike
 * generator draws from each device's valid (resource,
 * manifestation) pairs; the properties assert the contract the
 * campaign layer depends on:
 *
 *  - inject-then-restore: injecting arbitrary strikes leaves no
 *    residue, so a fixed reference strike keeps producing its
 *    original record (the scratch output is restored to golden
 *    between runs);
 *  - clone independence: a clone answers every strike identically
 *    to its original, even when their call sequences interleave;
 *  - geometry invariants: records match emptyRecord() geometry,
 *    coordinates stay in bounds, and logged reads genuinely
 *    mismatch;
 *  - bitwise stencil steps: HotSpot::step and Clamr::step produce,
 *    bit for bit, what a straightforward reference implementation
 *    (kept below as the oracle) produces on perturbed states.
 *
 * A falsified property prints a RADCRIT_PROPTEST_SEED for replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "campaign/paperconfigs.hh"
#include "check/prop.hh"
#include "common/rng.hh"
#include "kernels/clamr.hh"
#include "kernels/dgemm.hh"
#include "kernels/hotspot.hh"
#include "kernels/inject_util.hh"
#include "kernels/lavamd.hh"

namespace radcrit
{

// Streamed by the framework when a strike falsifies a property.
static std::ostream &
operator<<(std::ostream &os, const Strike &s)
{
    return os << "Strike{" << resourceKindName(s.resource) << ", "
              << manifestationName(s.manifestation)
              << ", t=" << s.timeFraction
              << ", burst=" << s.burstBits
              << ", entropy=" << s.entropy << "}";
}

namespace
{

enum class Wl { Dgemm, LavaMd, HotSpot, Clamr };

std::unique_ptr<Workload>
makeSmall(Wl wl, const DeviceModel &device)
{
    switch (wl) {
      case Wl::Dgemm:
        return std::make_unique<Dgemm>(device, 64, 42);
      case Wl::LavaMd:
        return std::make_unique<LavaMd>(device, 5, 42, 2, 4, 11);
      case Wl::HotSpot:
        return std::make_unique<HotSpot>(device, 64, 64, 42);
      case Wl::Clamr:
        return std::make_unique<Clamr>(device, 64, 64, 42);
    }
    return nullptr;
}

/**
 * Generator of strikes valid on `device`: every (resource,
 * manifestation) pair the device model declares, any time fraction,
 * bursts of 1-4 bits, arbitrary entropy. Shrinks toward the
 * simplest strike (first pair, t=0, single bit, entropy 0).
 */
check::Gen<Strike>
strikeGen(const DeviceModel &device)
{
    using PoolEntry = std::pair<ResourceKind, Manifestation>;
    auto pool = std::make_shared<std::vector<PoolEntry>>();
    for (const auto &res : device.resources) {
        for (const auto &mw : res.manifestations)
            pool->emplace_back(res.kind, mw.manifestation);
    }
    check::Gen<Strike> g;
    g.sample = [pool](Rng &rng) {
        const PoolEntry &pick =
            (*pool)[rng.uniformInt(pool->size())];
        Strike s;
        s.resource = pick.first;
        s.manifestation = pick.second;
        s.timeFraction = rng.uniform();
        s.burstBits =
            1 + static_cast<uint32_t>(rng.uniformInt(4));
        s.entropy = rng.next64();
        return s;
    };
    g.shrink = [pool](const Strike &s) {
        std::vector<Strike> out;
        if (s.entropy != 0) {
            Strike c = s;
            c.entropy = 0;
            out.push_back(c);
        }
        if (s.burstBits > 1) {
            Strike c = s;
            c.burstBits = 1;
            out.push_back(c);
        }
        if (s.timeFraction != 0.0) {
            Strike c = s;
            c.timeFraction = 0.0;
            out.push_back(c);
        }
        const PoolEntry &front = pool->front();
        if (s.resource != front.first ||
            s.manifestation != front.second) {
            Strike c = s;
            c.resource = front.first;
            c.manifestation = front.second;
            out.push_back(c);
        }
        return out;
    };
    return g;
}

/** Bit-level record equality, tolerating NaN reads. */
bool
sameRecord(const SdcRecord &a, const SdcRecord &b)
{
    if (a.dims != b.dims || a.extent != b.extent ||
        a.elements.size() != b.elements.size())
        return false;
    for (size_t i = 0; i < a.elements.size(); ++i) {
        const auto &ea = a.elements[i];
        const auto &eb = b.elements[i];
        if (ea.coord != eb.coord)
            return false;
        bool read_equal = ea.read == eb.read ||
            (std::isnan(ea.read) && std::isnan(eb.read));
        bool expected_equal = ea.expected == eb.expected ||
            (std::isnan(ea.expected) && std::isnan(eb.expected));
        if (!read_equal || !expected_equal)
            return false;
    }
    return true;
}

using Param = std::tuple<DeviceId, Wl>;

class KernelPropTest : public ::testing::TestWithParam<Param>
{
  protected:
    void
    SetUp() override
    {
        auto [device_id, wl] = GetParam();
        device_ = makeDevice(device_id);
        workload_ = makeSmall(wl, device_);
    }

    DeviceModel device_;
    std::unique_ptr<Workload> workload_;
};

TEST_P(KernelPropTest, InjectLeavesNoResidue)
{
    // The reference strike's record must stay bit-identical no
    // matter which strikes were injected in between: inject() must
    // restore its scratch output to golden after every run.
    Strike ref;
    ref.resource = device_.resources.front().kind;
    ref.manifestation = device_.resources.front()
                            .manifestations.front()
                            .manifestation;
    ref.timeFraction = 0.25;
    ref.burstBits = 2;
    ref.entropy = 7;
    Rng rng(1);
    SdcRecord baseline = workload_->inject(ref, rng);

    check::PropResult r = check::forAll<Strike>(
        "inject leaves no residue", strikeGen(device_),
        std::function<bool(const Strike &)>(
            [&](const Strike &s) {
                Rng a(2), b(3);
                workload_->inject(s, a);
                SdcRecord again = workload_->inject(ref, b);
                return sameRecord(baseline, again);
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

TEST_P(KernelPropTest, CloneAnswersIdentically)
{
    std::unique_ptr<Workload> copy = workload_->clone();
    Rng scramble(17);
    check::Gen<Strike> gen = strikeGen(device_);

    check::PropResult r = check::forAll<Strike>(
        "clone independence", gen,
        std::function<bool(const Strike &, Rng &)>(
            [&](const Strike &s, Rng &aux) {
                // Interleave an unrelated strike on the clone
                // before querying both: shared state would leak.
                Strike noise = gen.sample(aux);
                Rng a(4), b(5), c(6);
                copy->inject(noise, a);
                SdcRecord from_orig = workload_->inject(s, b);
                SdcRecord from_copy = copy->inject(s, c);
                return sameRecord(from_orig, from_copy);
            }));
    EXPECT_TRUE(r.ok) << r.message;
    (void)scramble;
}

TEST_P(KernelPropTest, RecordsHonorGeometry)
{
    SdcRecord shape = workload_->emptyRecord();
    check::PropResult r = check::forAll<Strike>(
        "record geometry", strikeGen(device_),
        std::function<bool(const Strike &)>(
            [&](const Strike &s) {
                Rng a(8);
                SdcRecord rec = workload_->inject(s, a);
                if (rec.dims != shape.dims ||
                    rec.extent != shape.extent)
                    return false;
                for (const auto &e : rec.elements) {
                    for (int axis = 0; axis < 3; ++axis) {
                        if (e.coord[axis] < 0 ||
                            e.coord[axis] >= rec.extent[axis])
                            return false;
                    }
                    if (e.read == e.expected &&
                        !std::isnan(e.read))
                        return false;
                }
                return true;
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    auto [device_id, wl] = info.param;
    std::string name = deviceIdName(device_id);
    switch (wl) {
      case Wl::Dgemm: name += "_DGEMM"; break;
      case Wl::LavaMd: name += "_LavaMD"; break;
      case Wl::HotSpot: name += "_HotSpot"; break;
      case Wl::Clamr: name += "_CLAMR"; break;
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelPropTest,
    ::testing::Combine(
        ::testing::Values(DeviceId::K40, DeviceId::XeonPhi),
        ::testing::Values(Wl::Dgemm, Wl::LavaMd, Wl::HotSpot,
                          Wl::Clamr)),
    paramName);

// --- Bitwise stencil steps -----------------------------------------
//
// The step kernels are written for speed (row pointers, peeled
// boundaries, slopes shared between edges). These properties pin
// them to the plain formulation below, copied unchanged from the
// original implementation: every output bit must match.

namespace ref
{

constexpr float cLat = 0.12f;
constexpr float cAmb = 0.02f;
constexpr float cPow = 0.5f;
constexpr float ambient = HotSpot::ambient;

void
hotSpotStep(int64_t n_, const std::vector<float> &power_,
            const std::vector<float> &src, std::vector<float> &dst)
{
    auto at = [&](int64_t r, int64_t c) {
        r = std::clamp<int64_t>(r, 0, n_ - 1);
        c = std::clamp<int64_t>(c, 0, n_ - 1);
        return src[r * n_ + c];
    };
    for (int64_t r = 0; r < n_; ++r) {
        for (int64_t c = 0; c < n_; ++c) {
            float t = src[r * n_ + c];
            float lap_r = at(r - 1, c) + at(r + 1, c) - 2.0f * t;
            float lap_c = at(r, c - 1) + at(r, c + 1) - 2.0f * t;
            dst[r * n_ + c] = t + cPow * power_[r * n_ + c] +
                cLat * (lap_r + lap_c) + cAmb * (ambient - t);
        }
    }
}

constexpr double hFloor = 1e-8;

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

double
minmod(double a, double b)
{
    if (a * b <= 0.0)
        return 0.0;
    return std::abs(a) < std::abs(b) ? a : b;
}

void
clamrStep(int64_t n_, double dt_, const SweState &src,
          SweState &dst)
{
    double lam = dt_; // dx = dy = 1

    auto cell = [&](int64_t r, int64_t c, double &h, double &hn,
                    double &ht, bool sweep_x) {
        double sign = 1.0;
        if (r < 0) { r = 0; if (!sweep_x) sign = -1.0; }
        if (r >= n_) { r = n_ - 1; if (!sweep_x) sign = -1.0; }
        if (c < 0) { c = 0; if (sweep_x) sign = -1.0; }
        if (c >= n_) { c = n_ - 1; if (sweep_x) sign = -1.0; }
        size_t i = r * n_ + c;
        h = src.h[i];
        if (sweep_x) {
            hn = sign * src.hu[i];
            ht = src.hv[i];
        } else {
            hn = sign * src.hv[i];
            ht = src.hu[i];
        }
    };

    auto edges = [&](int64_t r, int64_t c, bool sweep_x, bool plus,
                     double &h, double &hn, double &ht) {
        double hm, hnm, htm, h0, hn0, ht0, hp, hnp, htp;
        int64_t rm = sweep_x ? r : r - 1;
        int64_t cm = sweep_x ? c - 1 : c;
        int64_t rp = sweep_x ? r : r + 1;
        int64_t cp = sweep_x ? c + 1 : c;
        cell(rm, cm, hm, hnm, htm, sweep_x);
        cell(r, c, h0, hn0, ht0, sweep_x);
        cell(rp, cp, hp, hnp, htp, sweep_x);
        double half = plus ? 0.5 : -0.5;
        h = h0 + half * minmod(h0 - hm, hp - h0);
        hn = hn0 + half * minmod(hn0 - hnm, hnp - hn0);
        ht = ht0 + half * minmod(ht0 - htm, htp - ht0);
        h = std::max(h, hFloor);
    };

    dst.h = src.h;
    dst.hu = src.hu;
    dst.hv = src.hv;

    for (int64_t r = 0; r < n_; ++r) {
        for (int64_t k = 0; k <= n_; ++k) {
            double hl = 0.0, hul = 0.0, hvl = 0.0;
            double hr = 0.0, hur = 0.0, hvr = 0.0;
            if (k < n_)
                edges(r, k, true, false, hr, hur, hvr);
            if (k > 0)
                edges(r, k - 1, true, true, hl, hul, hvl);
            if (k == 0) {
                hl = hr; hul = -hur; hvl = hvr;
            }
            if (k == n_) {
                hr = hl; hur = -hul; hvr = hvl;
            }
            Flux f = rusanovX(hl, hul, hvl, hr, hur, hvr);
            if (k > 0) {
                size_t i = r * n_ + (k - 1);
                dst.h[i] -= lam * f.fh;
                dst.hu[i] -= lam * f.fhu;
                dst.hv[i] -= lam * f.fhv;
            }
            if (k < n_) {
                size_t i = r * n_ + k;
                dst.h[i] += lam * f.fh;
                dst.hu[i] += lam * f.fhu;
                dst.hv[i] += lam * f.fhv;
            }
        }
    }

    for (int64_t c = 0; c < n_; ++c) {
        for (int64_t k = 0; k <= n_; ++k) {
            double hl = 0.0, hvl = 0.0, hul = 0.0;
            double hr = 0.0, hvr = 0.0, hur = 0.0;
            if (k < n_)
                edges(k, c, false, false, hr, hvr, hur);
            if (k > 0)
                edges(k - 1, c, false, true, hl, hvl, hul);
            if (k == 0) {
                hl = hr; hvl = -hvr; hul = hur;
            }
            if (k == n_) {
                hr = hl; hvr = -hvl; hur = hul;
            }
            Flux g = rusanovX(hl, hvl, hul, hr, hvr, hur);
            if (k > 0) {
                size_t i = (k - 1) * n_ + c;
                dst.h[i] -= lam * g.fh;
                dst.hv[i] -= lam * g.fhu;
                dst.hu[i] -= lam * g.fhv;
            }
            if (k < n_) {
                size_t i = k * n_ + c;
                dst.h[i] += lam * g.fh;
                dst.hv[i] += lam * g.fhu;
                dst.hu[i] += lam * g.fhv;
            }
        }
    }
}

} // namespace ref

/** Where the perturbed cells of a step case lie. */
enum class Spot { Corner, Edge, Interior };

/** One generated step input: a perturbation recipe. */
struct StepCase
{
    Spot spot = Spot::Interior;
    /** Number of perturbed cells. */
    uint32_t cells = 1;
    /** Seeds the base state and the perturbation values. */
    uint64_t seed = 0;
};

std::ostream &
operator<<(std::ostream &os, const StepCase &c)
{
    const char *spot = c.spot == Spot::Corner ? "corner"
        : c.spot == Spot::Edge               ? "edge"
                                             : "interior";
    return os << "StepCase{" << spot << ", cells=" << c.cells
              << ", seed=" << c.seed << "}";
}

/** Step cases; shrink toward one interior cell and seed 0. */
check::Gen<StepCase>
stepCaseGen()
{
    check::Gen<StepCase> g;
    g.sample = [](Rng &rng) {
        StepCase c;
        c.spot = static_cast<Spot>(rng.uniformInt(3));
        c.cells = 1 + static_cast<uint32_t>(rng.uniformInt(8));
        c.seed = rng.next64();
        return c;
    };
    g.shrink = [](const StepCase &c) {
        std::vector<StepCase> out;
        if (c.cells > 1) {
            StepCase d = c;
            d.cells = 1;
            out.push_back(d);
        }
        if (c.seed != 0) {
            StepCase d = c;
            d.seed = 0;
            out.push_back(d);
        }
        return out;
    };
    return g;
}

/** A cell index (row-major) in the case's region of an n x n grid. */
size_t
pickCell(Spot spot, int64_t n, Rng &rng)
{
    int64_t r = rng.uniformRange(1, n - 2);
    int64_t c = rng.uniformRange(1, n - 2);
    if (spot == Spot::Corner) {
        r = rng.bernoulli(0.5) ? 0 : n - 1;
        c = rng.bernoulli(0.5) ? 0 : n - 1;
    } else if (spot == Spot::Edge) {
        int64_t side = rng.uniformRange(0, 3);
        int64_t along = rng.uniformRange(0, n - 1);
        r = side == 0 ? 0 : side == 1 ? n - 1 : along;
        c = side == 2 ? 0 : side == 3 ? n - 1 : along;
    }
    return static_cast<size_t>(r * n + c);
}

template <class T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/** Grid sides: the minimum and one off the power-of-two path. */
class HotSpotStepTest : public ::testing::TestWithParam<int64_t>
{};

TEST_P(HotSpotStepTest, StepMatchesReferenceBitwise)
{
    const int64_t n = GetParam();
    HotSpot hs(makeDevice(DeviceId::K40), n, 16, 7);
    check::PropResult r = check::forAll<StepCase>(
        "hotspot step bitwise", stepCaseGen(),
        std::function<bool(const StepCase &)>(
            [&](const StepCase &c) {
                Rng rng(c.seed);
                std::vector<float> src(n * n);
                for (float &t : src)
                    t = static_cast<float>(rng.uniform(300.0, 360.0));
                for (uint32_t k = 0; k < c.cells; ++k) {
                    float &t = src[pickCell(c.spot, n, rng)];
                    switch (rng.uniformInt(4)) {
                      case 0: // one-ulp to mid-mantissa flip
                        t = flipBitsFloatBounded(t, 1, 20, rng);
                        break;
                      case 1:
                        t += static_cast<float>(rng.normal(0.0, 18.0));
                        break;
                      case 2:
                        t = rng.bernoulli(0.5) ? 0.0f : -0.0f;
                        break;
                      default:
                        t = static_cast<float>(rng.uniform(-1e4, 1e4));
                        break;
                    }
                }
                std::vector<float> want(n * n), got(n * n);
                ref::hotSpotStep(n, hs.power(), src, want);
                hs.step(src, got);
                return sameBits(want, got);
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

INSTANTIATE_TEST_SUITE_P(Grids, HotSpotStepTest,
                         ::testing::Values(64, 80));

class ClamrStepTest : public ::testing::TestWithParam<int64_t>
{};

TEST_P(ClamrStepTest, StepMatchesReferenceBitwise)
{
    const int64_t n = GetParam();
    Clamr cl(makeDevice(DeviceId::XeonPhi), n, 16, 7);
    check::PropResult r = check::forAll<StepCase>(
        "clamr step bitwise", stepCaseGen(),
        std::function<bool(const StepCase &)>(
            [&](const StepCase &c) {
                Rng rng(c.seed);
                SweState src;
                src.resize(static_cast<size_t>(n * n));
                for (size_t i = 0; i < src.h.size(); ++i) {
                    src.h[i] = rng.uniform(0.5, 10.0);
                    src.hu[i] = rng.normal(0.0, 2.0);
                    src.hv[i] = rng.normal(0.0, 2.0);
                }
                for (uint32_t k = 0; k < c.cells; ++k) {
                    size_t i = pickCell(c.spot, n, rng);
                    switch (rng.uniformInt(4)) {
                      case 0: { // depth at or around the floor
                        const double near_floor[] = {
                            0.0, -0.0, 0.5e-8, 1e-8, 2e-8, 1e-6};
                        src.h[i] = near_floor[rng.uniformInt(6)];
                        break;
                      }
                      case 1: // sign-flipped momenta
                        src.hu[i] = -src.hu[i];
                        src.hv[i] = -src.hv[i];
                        break;
                      case 2:
                        src.h[i] = flipBitsBounded(src.h[i], 1, 53,
                                                   rng);
                        src.hu[i] = flipBitsBounded(src.hu[i], 1,
                                                    53, rng);
                        break;
                      default: // flat water at rest
                        src.hu[i] = rng.bernoulli(0.5) ? 0.0 : -0.0;
                        src.hv[i] = 0.0;
                        src.h[i] = 1.0;
                        break;
                    }
                }
                SweState want, got;
                ref::clamrStep(n, cl.dt(), src, want);
                cl.step(src, got);
                return sameBits(want.h, got.h) &&
                    sameBits(want.hu, got.hu) &&
                    sameBits(want.hv, got.hv);
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

INSTANTIATE_TEST_SUITE_P(Grids, ClamrStepTest,
                         ::testing::Values(64, 72));

} // anonymous namespace
} // namespace radcrit
