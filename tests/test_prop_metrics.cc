/**
 * @file
 * Metamorphic properties of the metrics layer, checked over
 * generated corrupted-output records:
 *
 *  - the relative-error filter is monotone in its threshold: a
 *    stricter (higher) threshold keeps a subset of what a looser
 *    one keeps, and never un-removes an execution;
 *  - filtering at threshold zero only drops exact-zero relative
 *    errors, and a filtered record re-filtered at the same
 *    threshold is a fixed point;
 *  - locality classification is invariant under permuting the
 *    coordinate axes (it only looks at positions and bounding
 *    boxes, never at which axis is which);
 *  - analyzeCriticality(), which folds a record with one relative
 *    error per element and one sort, equals bit for bit the
 *    composition of the reference functions it replaces
 *    (meanRelativeErrorPct, RelativeErrorFilter::apply,
 *    classifyLocality on the filtered record).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include "check/prop.hh"
#include "metrics/criticality.hh"
#include "metrics/filter.hh"
#include "metrics/locality.hh"
#include "metrics/relative_error.hh"

namespace radcrit
{
namespace
{

/** Apply an axis permutation to extents and coordinates. */
SdcRecord
permuteAxes(const SdcRecord &record,
            const std::array<int, 3> &perm)
{
    SdcRecord out;
    out.dims = record.dims;
    for (int a = 0; a < 3; ++a)
        out.extent[a] = record.extent[perm[a]];
    out.elements = record.elements;
    for (auto &e : out.elements) {
        std::array<int64_t, 3> c = e.coord;
        for (int a = 0; a < 3; ++a)
            e.coord[a] = c[perm[a]];
    }
    return out;
}

TEST(FilterProps, StricterThresholdKeepsSubset)
{
    auto g = check::gen::pairOf(
        check::gen::gridRecord(2, 16, 24),
        check::gen::pairOf(check::gen::real(0.0, 10.0),
                           check::gen::real(0.0, 10.0)));
    check::PropResult r = check::forAll<
        std::pair<SdcRecord, std::pair<double, double>>>(
        "filter monotone in threshold", g,
        std::function<bool(
            const std::pair<SdcRecord,
                            std::pair<double, double>> &)>(
            [](const std::pair<SdcRecord,
                               std::pair<double, double>> &input) {
                const SdcRecord &rec = input.first;
                double lo =
                    std::min(input.second.first,
                             input.second.second);
                double hi =
                    std::max(input.second.first,
                             input.second.second);
                SdcRecord loose =
                    RelativeErrorFilter(lo).apply(rec);
                SdcRecord strict =
                    RelativeErrorFilter(hi).apply(rec);
                if (strict.numIncorrect() > loose.numIncorrect())
                    return false;
                // Every survivor of the strict filter must also
                // survive the loose one (same order, subset).
                size_t j = 0;
                for (const auto &e : strict.elements) {
                    while (j < loose.elements.size() &&
                           loose.elements[j].coord != e.coord)
                        ++j;
                    if (j == loose.elements.size())
                        return false;
                    ++j;
                }
                // removesExecution is monotone too.
                if (RelativeErrorFilter(lo).removesExecution(
                        rec) &&
                    !RelativeErrorFilter(hi).removesExecution(rec))
                    return false;
                return true;
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(FilterProps, FilteringIsIdempotent)
{
    auto g = check::gen::pairOf(
        check::gen::gridRecord(2, 16, 24),
        check::gen::real(0.0, 10.0));
    check::PropResult r =
        check::forAll<std::pair<SdcRecord, double>>(
            "filter idempotent", g,
            std::function<bool(
                const std::pair<SdcRecord, double> &)>(
                [](const std::pair<SdcRecord, double> &input) {
                    RelativeErrorFilter f(input.second);
                    SdcRecord once = f.apply(input.first);
                    SdcRecord twice = f.apply(once);
                    return twice.numIncorrect() ==
                        once.numIncorrect();
                }));
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(LocalityProps, ClassInvariantUnderAxisPermutation)
{
    const std::array<std::array<int, 3>, 6> perms{{
        {0, 1, 2},
        {0, 2, 1},
        {1, 0, 2},
        {1, 2, 0},
        {2, 0, 1},
        {2, 1, 0},
    }};
    auto g = check::gen::gridRecord(3, 10, 16);
    check::PropResult r = check::forAll<SdcRecord>(
        "locality axis-permutation invariance", g,
        std::function<bool(const SdcRecord &)>(
            [&perms](const SdcRecord &rec) {
                Pattern base = classifyLocality(rec);
                size_t unique = uniquePositions(rec);
                for (const auto &perm : perms) {
                    SdcRecord p = permuteAxes(rec, perm);
                    if (classifyLocality(p) != base)
                        return false;
                    if (uniquePositions(p) != unique)
                        return false;
                }
                return true;
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(LocalityProps, FilteredRecordNeverUpgradesBeyondUnfiltered)
{
    // Filtering only removes elements, so the unique-position
    // count can only shrink and an empty result must classify as
    // None.
    auto g = check::gen::pairOf(
        check::gen::gridRecord(2, 16, 24),
        check::gen::real(0.0, 10.0));
    check::PropResult r =
        check::forAll<std::pair<SdcRecord, double>>(
            "filtered locality sane", g,
            std::function<bool(
                const std::pair<SdcRecord, double> &)>(
                [](const std::pair<SdcRecord, double> &input) {
                    RelativeErrorFilter f(input.second);
                    SdcRecord filtered = f.apply(input.first);
                    if (uniquePositions(filtered) >
                        uniquePositions(input.first))
                        return false;
                    if (filtered.empty() &&
                        classifyLocality(filtered) !=
                            Pattern::None)
                        return false;
                    return true;
                }));
    EXPECT_TRUE(r.ok) << r.message;
}

/** A record and the analysis settings it is folded under. */
struct FoldCase
{
    SdcRecord record;
    double thresholdPct = 2.0;
    LocalityParams locality;
};

std::ostream &
operator<<(std::ostream &os, const FoldCase &c)
{
    os << check::prop_detail::describeRecord(c.record)
       << " threshold=" << c.thresholdPct
       << " square=" << c.locality.squareDensity
       << " cubic=" << c.locality.cubicDensity;
    for (const auto &e : c.record.elements)
        os << " (" << e.coord[0] << "," << e.coord[1] << ","
           << e.coord[2] << " read=" << e.read
           << " expected=" << e.expected << ")";
    return os;
}

/**
 * Small records in a small box, so positions repeat: a copy of an
 * earlier position often carries read == expected (relative error
 * 0, never kept) while the original is kept. Reads include NaN and
 * ±inf, expected values include 0, and the threshold is often
 * exactly one element's relative error.
 */
check::Gen<FoldCase>
foldCase()
{
    check::Gen<FoldCase> g;
    g.sample = [](Rng &rng) {
        constexpr double inf = std::numeric_limits<double>::infinity();
        FoldCase c;
        SdcRecord &rec = c.record;
        rec.dims = static_cast<int>(rng.uniformRange(1, 3));
        for (int a = 0; a < 3; ++a)
            rec.extent[a] = a < rec.dims ? rng.uniformRange(1, 5) : 1;
        size_t n = static_cast<size_t>(rng.uniformInt(25));
        for (size_t i = 0; i < n; ++i) {
            CorruptedElement e;
            bool copy = i > 0 && rng.bernoulli(0.4);
            if (copy) {
                e.coord = rec.elements[rng.uniformInt(i)].coord;
            } else {
                for (int a = 0; a < rec.dims; ++a)
                    e.coord[a] =
                        rng.uniformRange(0, rec.extent[a] - 1);
            }
            e.expected = rng.bernoulli(0.15)
                ? 0.0
                : rng.uniform(-10.0, 10.0);
            switch (rng.uniformInt(8)) {
              case 0:
                e.read = std::numeric_limits<double>::quiet_NaN();
                break;
              case 1: e.read = inf; break;
              case 2: e.read = -inf; break;
              case 3: e.read = 0.0; break;
              case 4: e.read = e.expected; break;
              default:
                e.read = e.expected * (1.0 + rng.uniform(-0.1, 0.1));
                break;
            }
            if (copy && rng.bernoulli(0.5))
                e.read = e.expected;
            rec.elements.push_back(e);
        }
        if (n > 0 && rng.bernoulli(0.5)) {
            const CorruptedElement &e =
                rec.elements[rng.uniformInt(n)];
            c.thresholdPct = relativeErrorPct(e.read, e.expected);
        } else {
            c.thresholdPct = rng.uniform(0.0, 12.0);
        }
        c.locality.squareDensity = rng.uniform(0.0, 1.0);
        c.locality.cubicDensity = rng.uniform(0.0, 1.0);
        return c;
    };
    return g;
}

/** @return true when a and b have the same bits. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(CriticalityProps, FoldEqualsTheReferenceComposition)
{
    check::PropResult r = check::forAll<FoldCase>(
        "analyzeCriticality equals the reference functions",
        foldCase(),
        std::function<bool(const FoldCase &)>(
            [](const FoldCase &c) {
                RelativeErrorFilter filter(c.thresholdPct);
                CriticalityReport got =
                    analyzeCriticality(c.record, filter, c.locality);
                SdcRecord filtered = filter.apply(c.record);
                return got.numIncorrect == c.record.numIncorrect() &&
                    sameBits(got.meanRelErrPct,
                             meanRelativeErrorPct(c.record)) &&
                    got.pattern ==
                        classifyLocality(c.record, c.locality) &&
                    got.numIncorrectFiltered ==
                        filtered.numIncorrect() &&
                    sameBits(got.meanRelErrFilteredPct,
                             meanRelativeErrorPct(filtered)) &&
                    got.patternFiltered ==
                        classifyLocality(filtered, c.locality) &&
                    got.executionFiltered ==
                        (filtered.empty() && !c.record.empty());
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

} // anonymous namespace
} // namespace radcrit
