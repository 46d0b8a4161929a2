/**
 * @file
 * Golden-snapshot regression harness for tabular artifacts (figure
 * CSVs, runRows() dumps, any rows-of-cells output).
 *
 * Comparisons run on a *canonical* form: every cell that parses as
 * a number is reformatted with %.10g, so goldens survive cosmetic
 * formatting changes while catching value drift beyond ~1e-10
 * relative. A mismatch report names the first divergent cell by
 * row, column, and header label.
 *
 * Re-blessing: set RADCRIT_REGEN_GOLDENS=1 (tools/regen_goldens.sh
 * drives this) and compareGolden() rewrites the golden file from
 * the actual rows instead of comparing. RADCRIT_GOLDEN_DIR
 * overrides where golden files are looked up.
 */

#ifndef RADCRIT_CHECK_GOLDEN_HH
#define RADCRIT_CHECK_GOLDEN_HH

#include <string>
#include <vector>

namespace radcrit
{
namespace check
{

/** Rows-of-cells table, the unit of golden comparison. */
using Table = std::vector<std::vector<std::string>>;

/**
 * @return the canonical form of one cell: decimal integers keep
 * every digit (a '+' sign and leading zeros dropped), other numeric
 * cells are reparsed and reprinted with %.10g, and everything else
 * is returned unchanged.
 */
std::string canonicalCell(const std::string &cell);

/** Canonicalize every cell of a table. */
Table canonicalTable(const Table &rows);

/** Outcome of one golden comparison. */
struct GoldenResult
{
    /** True when the artifact matches (or was just re-blessed). */
    bool passed = false;
    /** True when RADCRIT_REGEN_GOLDENS rewrote the file. */
    bool regenerated = false;
    /** Human-readable report; names the first divergent cell. */
    std::string message;

    explicit operator bool() const { return passed; }
};

/**
 * Compare `actual` against the golden file at `path` (canonical
 * forms on both sides). The file holds one comma-joined row per
 * line; cells must not contain commas or newlines (the harness
 * refuses such tables rather than quoting them). When
 * RADCRIT_REGEN_GOLDENS is set to a non-empty, non-"0" value the
 * golden file is (re)written from `actual` and the result reports
 * regenerated=true.
 *
 * On divergence the message names the file, the first divergent
 * row and column, the header label of that column (when the first
 * row looks like a header), and both cell values.
 */
GoldenResult compareGolden(const std::string &path,
                           const Table &actual);

/**
 * Resolve the directory golden files live in: the
 * RADCRIT_GOLDEN_DIR environment variable when set, otherwise the
 * provided compiled-in default.
 */
std::string goldenDir(const std::string &compiled_default);

} // namespace check
} // namespace radcrit

#endif // RADCRIT_CHECK_GOLDEN_HH
