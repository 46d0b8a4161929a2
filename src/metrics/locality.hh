/**
 * @file
 * Spatial locality of output errors (paper metric 4, Section III).
 *
 * "When several elements are corrupted, but they do not share the
 * same position in one of the axis, they are tagged as random errors.
 * When the corrupted elements share one, two, or three dimensions of
 * the axis we classify them as line, square, or cubic respectively."
 *
 * Concretely (matching the usage throughout the paper's evaluation):
 *  - one corrupted element                     -> Single
 *  - all elements collinear along one axis     -> Line
 *  - elements spanning two axes, clustered     -> Square
 *  - elements spanning three axes, clustered   -> Cubic
 *  - elements spanning multiple axes, scattered-> Random
 *
 * "Clustered" is judged by the density of unique corrupted positions
 * inside their axis-aligned bounding box; the thresholds are
 * parameters because the paper leaves the boundary qualitative.
 * Classification uses *unique positions*: several LavaMD particles
 * of one box share a box coordinate but count once for locality
 * (while still counting individually for metric 1).
 */

#ifndef RADCRIT_METRICS_LOCALITY_HH
#define RADCRIT_METRICS_LOCALITY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "metrics/sdcrecord.hh"

namespace radcrit
{

/** Spatial error patterns, in the paper's vocabulary. */
enum class Pattern : uint8_t
{
    /** No corrupted element (masked or fully filtered run). */
    None,
    Single,
    Line,
    Square,
    Cubic,
    Random,

    NumPatterns
};

/** Number of patterns for array sizing. */
constexpr size_t numPatterns =
    static_cast<size_t>(Pattern::NumPatterns);

/** @return a stable printable name of the pattern. */
const char *patternName(Pattern p);

/** Tunable cluster-density thresholds. */
struct LocalityParams
{
    /**
     * Minimum unique-position density inside the 2D bounding box for
     * a two-axis-spanning pattern to count as Square (not Random).
     */
    double squareDensity = 0.05;
    /** Same for three-axis-spanning patterns vs Cubic. */
    double cubicDensity = 0.02;
};

/**
 * The distinct positions of a record and their bounding box, fed
 * in sorted order so that equal neighbours count once: everything
 * classifyLocality() judges. analyzeCriticality() fills one for all
 * elements and one for the filter's survivors from a single sort.
 */
class SortedPositions
{
  public:
    /**
     * Add `c`, which must not sort before the last one added.
     * Inline and branch-light: it runs once per element, and a
     * caller's loop keeps the box in registers.
     */
    void
    add(const std::array<int64_t, 3> &c)
    {
        if (unique_ > 0 && c[0] == last_[0] && c[1] == last_[1] &&
            c[2] == last_[2])
            return;
        for (int a = 0; a < 3; ++a) {
            lo_[a] = std::min(lo_[a], c[a]);
            hi_[a] = std::max(hi_[a], c[a]);
        }
        last_ = c;
        ++unique_;
    }

    /** @return the number of distinct positions added. */
    size_t unique() const { return unique_; }

    /** @return the pattern of the positions added. */
    Pattern classify(const LocalityParams &params) const;

  private:
    size_t unique_ = 0;
    std::array<int64_t, 3> last_{};
    std::array<int64_t, 3> lo_{INT64_MAX, INT64_MAX, INT64_MAX};
    std::array<int64_t, 3> hi_{INT64_MIN, INT64_MIN, INT64_MIN};
};

/**
 * Classify the spatial pattern of a corrupted-output record.
 *
 * @param record The mismatch log (possibly already filtered).
 * @param params Cluster-density thresholds.
 * @return the pattern; Pattern::None for an empty record.
 */
Pattern classifyLocality(const SdcRecord &record,
                         const LocalityParams &params = {});

/**
 * @return the number of unique corrupted positions in the record.
 */
size_t uniquePositions(const SdcRecord &record);

} // namespace radcrit

#endif // RADCRIT_METRICS_LOCALITY_HH
