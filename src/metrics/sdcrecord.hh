/**
 * @file
 * Corrupted-output records: the raw material of the criticality
 * metrics. An SdcRecord is what the paper's host computer logs when
 * the experimental output mismatches the pre-computed golden output
 * (Section IV-D): every corrupted element with its position, read
 * value, and expected value.
 */

#ifndef RADCRIT_METRICS_SDCRECORD_HH
#define RADCRIT_METRICS_SDCRECORD_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace radcrit
{

/**
 * One output element whose read value differs from the golden value.
 *
 * Coordinates are in the natural output geometry of the workload:
 * (i, j, 0) for matrices and 2D grids, (bx, by, bz) for LavaMD's box
 * grid (several particles of one box share coordinates; the element
 * count stays per-particle while locality is judged in box space, as
 * the paper does).
 */
struct CorruptedElement
{
    std::array<int64_t, 3> coord{0, 0, 0};
    double read = 0.0;
    double expected = 0.0;
};

/**
 * The complete mismatch log of one faulty execution.
 */
struct SdcRecord
{
    /** Output dimensionality: 1, 2 or 3. */
    int dims = 2;
    /** Output extents; unused trailing dims are 1. */
    std::array<int64_t, 3> extent{1, 1, 1};
    /** All mismatching elements. */
    std::vector<CorruptedElement> elements;

    /** @return number of incorrect elements (paper metric 1). */
    size_t numIncorrect() const { return elements.size(); }

    /** @return true when no element mismatches. */
    bool empty() const { return elements.empty(); }
};

/**
 * @return `golden`, a row-major 2D output `cols` wide, with each of
 * the record's elements' read values in its place. A record read
 * back from a beam log or store entry is untrusted, so an element
 * outside the output is fatal.
 */
template <class T>
std::vector<T>
materializeField(std::vector<T> golden, const SdcRecord &record,
                 int64_t cols)
{
    const auto rows = static_cast<int64_t>(golden.size()) / cols;
    for (const auto &e : record.elements) {
        const auto &[r, c, z] = e.coord;
        if (r < 0 || r >= rows || c < 0 || c >= cols || z != 0)
            fatal("SDC record element outside the %lldx%lld output",
                  static_cast<long long>(rows),
                  static_cast<long long>(cols));
        golden[r * cols + c] = static_cast<T>(e.read);
    }
    return golden;
}

} // namespace radcrit

#endif // RADCRIT_METRICS_SDCRECORD_HH
