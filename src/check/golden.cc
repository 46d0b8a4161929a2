#include "check/golden.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace radcrit
{
namespace check
{

namespace
{

bool
regenRequested()
{
    const char *raw = std::getenv("RADCRIT_REGEN_GOLDENS");
    return raw && *raw && std::strcmp(raw, "0") != 0;
}

GoldenResult
result(bool passed, bool regenerated, std::string message)
{
    GoldenResult r;
    r.passed = passed;
    r.regenerated = regenerated;
    r.message = std::move(message);
    return r;
}

Table
parseGoldenFile(std::istream &in)
{
    Table rows;
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> row;
        size_t start = 0;
        while (true) {
            size_t comma = line.find(',', start);
            if (comma == std::string::npos) {
                row.push_back(line.substr(start));
                break;
            }
            row.push_back(line.substr(start, comma - start));
            start = comma + 1;
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/**
 * @return the header label for a column, when row 0 looks like a
 * header (every cell non-numeric); empty otherwise.
 */
std::string
headerLabel(const Table &rows, size_t col)
{
    if (rows.empty() || col >= rows[0].size())
        return "";
    for (const auto &cell : rows[0]) {
        if (cell != canonicalCell(cell) || cell.empty())
            return "";
        char *end = nullptr;
        std::strtod(cell.c_str(), &end);
        if (end && *end == '\0')
            return ""; // numeric first row: not a header
    }
    return rows[0][col];
}

} // anonymous namespace

std::string
canonicalCell(const std::string &cell)
{
    if (cell.empty())
        return cell;
    // A decimal integer keeps every digit: %.10g would round one
    // longer than 10 digits. Only a '+' and leading zeros go.
    size_t sign = cell[0] == '-' || cell[0] == '+' ? 1 : 0;
    if (sign < cell.size() &&
        cell.find_first_not_of("0123456789", sign) ==
            std::string::npos) {
        size_t digits = std::min(
            cell.find_first_not_of('0', sign), cell.size() - 1);
        std::string out = cell[0] == '-' ? "-" : "";
        return out.append(cell, digits);
    }
    char *end = nullptr;
    double v = std::strtod(cell.c_str(), &end);
    if (!end || *end != '\0' || end == cell.c_str())
        return cell;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

Table
canonicalTable(const Table &rows)
{
    Table out;
    out.reserve(rows.size());
    for (const auto &row : rows) {
        std::vector<std::string> canon;
        canon.reserve(row.size());
        for (const auto &cell : row)
            canon.push_back(canonicalCell(cell));
        out.push_back(std::move(canon));
    }
    return out;
}

GoldenResult
compareGolden(const std::string &path, const Table &actual)
{
    for (const auto &row : actual) {
        for (const auto &cell : row) {
            if (cell.find(',') != std::string::npos ||
                cell.find('\n') != std::string::npos) {
                return result(
                    false, false,
                    strprintf("golden %s: cell '%s' contains a "
                              "comma or newline; the golden "
                              "format cannot hold it",
                              path.c_str(), cell.c_str()));
            }
        }
    }

    Table canon = canonicalTable(actual);

    if (regenRequested()) {
        std::ofstream out(path);
        if (!out) {
            return result(false, false,
                          strprintf("golden %s: cannot open for "
                                    "regeneration",
                                    path.c_str()));
        }
        for (const auto &row : canon) {
            for (size_t c = 0; c < row.size(); ++c)
                out << (c ? "," : "") << row[c];
            out << "\n";
        }
        return result(true, true,
                      strprintf("golden %s: regenerated (%zu "
                                "rows)",
                                path.c_str(), canon.size()));
    }

    std::ifstream in(path);
    if (!in) {
        return result(
            false, false,
            strprintf("golden %s: missing golden file (run "
                      "tools/regen_goldens.sh to bless the "
                      "current output)",
                      path.c_str()));
    }
    Table golden = canonicalTable(parseGoldenFile(in));

    size_t rows = std::min(golden.size(), canon.size());
    for (size_t r = 0; r < rows; ++r) {
        size_t cols = std::min(golden[r].size(), canon[r].size());
        for (size_t c = 0; c < cols; ++c) {
            if (golden[r][c] == canon[r][c])
                continue;
            std::string label = headerLabel(golden, c);
            return result(
                false, false,
                strprintf("golden %s: first divergence at row "
                          "%zu, col %zu%s%s%s: golden '%s' vs "
                          "actual '%s'",
                          path.c_str(), r, c,
                          label.empty() ? "" : " (",
                          label.c_str(), label.empty() ? "" : ")",
                          golden[r][c].c_str(),
                          canon[r][c].c_str()));
        }
        if (golden[r].size() != canon[r].size()) {
            return result(
                false, false,
                strprintf("golden %s: row %zu has %zu golden "
                          "cells vs %zu actual cells",
                          path.c_str(), r, golden[r].size(),
                          canon[r].size()));
        }
    }
    if (golden.size() != canon.size()) {
        return result(
            false, false,
            strprintf("golden %s: %zu golden rows vs %zu actual "
                      "rows (first extra row index %zu)",
                      path.c_str(), golden.size(), canon.size(),
                      rows));
    }
    return result(true, false,
                  strprintf("golden %s: match (%zu rows)",
                            path.c_str(), canon.size()));
}

std::string
goldenDir(const std::string &compiled_default)
{
    const char *raw = std::getenv("RADCRIT_GOLDEN_DIR");
    if (raw && *raw)
        return raw;
    return compiled_default;
}

} // namespace check
} // namespace radcrit
