#include "metrics/criticality.hh"

#include <algorithm>

#include "common/logging.hh"
#include "metrics/relative_error.hh"

namespace radcrit
{

CriticalityReport
analyzeCriticality(const SdcRecord &record,
                   const RelativeErrorFilter &filter,
                   const LocalityParams &locality)
{
    // One relative error per element, both means summed in element
    // order as meanRelativeErrorPct() sums them, and one sort of
    // the positions, each tagged with whether the filter keeps it.
    struct Position
    {
        std::array<int64_t, 3> coord;
        bool kept;
    };
    std::vector<Position> positions;
    positions.reserve(record.elements.size());
    double sum = 0.0;
    double keptSum = 0.0;
    size_t kept = 0;
    for (const auto &e : record.elements) {
        double rel = relativeErrorPct(e.read, e.expected);
        bool keep = filter.keeps(rel);
        sum += rel;
        if (keep) {
            keptSum += rel;
            ++kept;
        }
        positions.push_back({e.coord, keep});
    }
    std::sort(positions.begin(), positions.end(),
              [](const Position &a, const Position &b) {
                  return a.coord < b.coord;
              });
    SortedPositions all;
    SortedPositions survivors;
    for (const Position &p : positions) {
        all.add(p.coord);
        if (p.kept)
            survivors.add(p.coord);
    }

    CriticalityReport report;
    report.numIncorrect = record.numIncorrect();
    report.meanRelErrPct = record.empty()
        ? 0.0
        : sum / static_cast<double>(record.numIncorrect());
    report.pattern = all.classify(locality);
    report.numIncorrectFiltered = kept;
    report.meanRelErrFilteredPct =
        kept == 0 ? 0.0 : keptSum / static_cast<double>(kept);
    report.patternFiltered = survivors.classify(locality);
    report.executionFiltered = kept == 0 && !record.empty();
    return report;
}

void
FitBreakdown::add(Pattern p, double fit_au)
{
    fit[static_cast<size_t>(p)] += fit_au;
}

double
FitBreakdown::of(Pattern p) const
{
    return fit[static_cast<size_t>(p)];
}

double
FitBreakdown::total() const
{
    double sum = 0.0;
    for (size_t i = 0; i < numPatterns; ++i) {
        if (static_cast<Pattern>(i) == Pattern::None)
            continue;
        sum += fit[i];
    }
    return sum;
}

FitBreakdown
makeFitBreakdown(const std::vector<Pattern> &patterns,
                 double fit_per_run)
{
    if (fit_per_run < 0.0)
        panic("makeFitBreakdown: negative fit_per_run %f",
              fit_per_run);
    FitBreakdown bd;
    for (Pattern p : patterns)
        bd.add(p, fit_per_run);
    return bd;
}

} // namespace radcrit
