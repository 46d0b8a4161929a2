#include "campaign/series.hh"

#include "common/table.hh"

namespace radcrit
{

ScatterSeries
scatterSeries(const CampaignResult &result)
{
    ScatterSeries s;
    s.label = result.inputLabel;
    for (const auto &run : result.runs) {
        if (run.outcome != Outcome::Sdc)
            continue;
        s.xs.push_back(static_cast<double>(run.crit.numIncorrect));
        s.ys.push_back(run.crit.meanRelErrPct);
    }
    return s;
}

LocalityBars
localityBars(const CampaignResult &result,
             const std::vector<Pattern> &patterns)
{
    LocalityBars out;
    for (Pattern p : patterns)
        out.segmentNames.push_back(patternName(p));

    FitBreakdown all = result.fitByPattern(false);
    FitBreakdown filtered = result.fitByPattern(true);

    StackedBar all_bar;
    all_bar.label = result.inputLabel + " All";
    for (Pattern p : patterns)
        all_bar.segments.push_back(all.of(p));
    out.bars.push_back(std::move(all_bar));

    // The paper shows a separate filtered bar only when the filter
    // changes anything (for the Phi DGEMM it does not).
    if (result.filteredOutFraction() > 0.0 ||
        filtered.total() != all.total()) {
        StackedBar f_bar;
        f_bar.label = result.inputLabel + " >" +
            TextTable::num(result.config.analysis.filterThresholdPct, 0) +
            "%";
        for (Pattern p : patterns)
            f_bar.segments.push_back(filtered.of(p));
        out.bars.push_back(std::move(f_bar));
    }
    return out;
}

std::vector<Pattern>
patterns2d()
{
    return {Pattern::Square, Pattern::Line, Pattern::Single,
            Pattern::Random};
}

std::vector<Pattern>
patterns3d()
{
    return {Pattern::Cubic, Pattern::Square, Pattern::Line,
            Pattern::Single, Pattern::Random};
}

std::vector<std::string>
runRowsHeader()
{
    return {"run", "outcome", "resource", "manifestation",
            "timeFraction",
            "numIncorrect", "meanRelErrPct", "pattern",
            "numIncorrectFiltered", "meanRelErrFilteredPct",
            "patternFiltered", "executionFiltered"};
}

std::vector<std::string>
runRow(const RunRecord &run)
{
    std::vector<std::string> row;
    row.push_back(TextTable::num(run.index));
    row.push_back(outcomeName(run.outcome));
    row.push_back(resourceKindName(run.strike.resource));
    row.push_back(manifestationName(run.strike.manifestation));
    row.push_back(TextTable::num(run.strike.timeFraction, 3));
    if (run.outcome == Outcome::Sdc) {
        row.push_back(TextTable::num(
            static_cast<uint64_t>(run.crit.numIncorrect)));
        row.push_back(TextTable::num(run.crit.meanRelErrPct, 3));
        row.push_back(patternName(run.crit.pattern));
        row.push_back(TextTable::num(static_cast<uint64_t>(
            run.crit.numIncorrectFiltered)));
        row.push_back(TextTable::num(
            run.crit.meanRelErrFilteredPct, 3));
        row.push_back(patternName(run.crit.patternFiltered));
        row.push_back(run.crit.executionFiltered ? "yes" : "no");
    }
    return row;
}

std::vector<std::vector<std::string>>
runRows(const CampaignResult &result)
{
    std::vector<std::vector<std::string>> rows;
    rows.reserve(result.runs.size());
    for (const auto &run : result.runs)
        rows.push_back(runRow(run));
    return rows;
}

} // namespace radcrit
