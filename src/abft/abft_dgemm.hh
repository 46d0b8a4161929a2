/**
 * @file
 * Algorithm-Based Fault Tolerance for matrix multiplication
 * (Huang & Abraham, paper ref. [20]).
 *
 * A and B are extended with column/row checksums; after the
 * multiply, row and column sums of C must match checksums computed
 * from the inputs. Single and line errors are located and corrected
 * in linear time (refs. [33], [47]); square and random patterns are
 * detected but not correctable — which is exactly why the paper's
 * spatial-locality metric matters: it predicts how much of a
 * device's error population ABFT can absorb (Section V-A: 60-80% of
 * all errors remain on the Xeon Phi, 20-40% on the K40).
 */

#ifndef RADCRIT_ABFT_ABFT_DGEMM_HH
#define RADCRIT_ABFT_ABFT_DGEMM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace radcrit
{

/**
 * Checksum-based verifier/corrector for C = A * B.
 */
class AbftDgemm
{
  public:
    /** Outcome of a check-and-correct pass. */
    enum class Status : uint8_t
    {
        /** All checksums match: no (detectable) corruption. */
        Clean,
        /** Mismatches located and corrected in place. */
        Corrected,
        /** Corruption detected but not correctable (square/random
         * patterns or colliding lines). */
        DetectedUncorrectable
    };

    /** Result details. */
    struct Verdict
    {
        Status status = Status::Clean;
        /** Elements corrected (when status == Corrected). */
        size_t correctedElements = 0;
        /** Mismatching row count at detection time. */
        size_t badRows = 0;
        /** Mismatching column count at detection time. */
        size_t badCols = 0;
    };

    /**
     * Precompute input checksums.
     *
     * @param a Row-major n x n input A.
     * @param b Row-major n x n input B.
     * @param n Matrix side.
     * @param rel_tolerance Relative checksum tolerance absorbing FP
     * rounding (default 1e-9).
     */
    AbftDgemm(const std::vector<double> &a,
              const std::vector<double> &b, int64_t n,
              double rel_tolerance = 1e-9);

    /**
     * Verify a candidate output and correct it in place when the
     * mismatch pattern allows.
     *
     * @param c Row-major candidate output; corrected in place.
     */
    Verdict checkAndCorrect(std::vector<double> &c) const;

  private:
    bool rowMismatch(double actual, double expected) const;

    int64_t n_;
    double relTol_;
    /** rowSums_[i] = sum_j C[i][j] expected from A * (B * e). */
    std::vector<double> rowSums_;
    /** colSums_[j] = sum_i C[i][j] expected from (e^T * A) * B. */
    std::vector<double> colSums_;
};

} // namespace radcrit

#endif // RADCRIT_ABFT_ABFT_DGEMM_HH
