#include "suite/render.hh"

#include <iostream>

#include "campaign/series.hh"
#include "common/figure.hh"
#include "common/table.hh"

namespace radcrit
{

void
renderScatterFigure(SuiteContext &ctx, const std::string &title,
                    const std::vector<CampaignResult> &results,
                    double x_clamp, double y_clamp,
                    const std::string &csv_name)
{
    ScatterPlot plot(title, "Number of Incorrect Elements",
                     "Average Relative Error (%)");
    if (x_clamp > 0.0)
        plot.setXClamp(x_clamp);
    if (y_clamp > 0.0)
        plot.setYClamp(y_clamp);
    std::vector<std::vector<std::string>> rows;
    for (const auto &res : results) {
        ScatterSeries s = scatterSeries(res);
        for (size_t i = 0; i < s.xs.size(); ++i) {
            rows.push_back({res.deviceName, res.inputLabel,
                            TextTable::num(s.xs[i], 0),
                            TextTable::num(s.ys[i], 4)});
        }
        plot.addSeries(std::move(s));
    }
    plot.render(std::cout);
    ctx.writeCsv(csv_name,
                 {"device", "input", "numIncorrect", "meanRelErrPct"},
                 rows);
}

void
renderLocalityFigure(SuiteContext &ctx, const std::string &title,
                     const std::vector<CampaignResult> &results,
                     const std::vector<Pattern> &patterns,
                     const std::string &csv_name)
{
    std::vector<std::string> names;
    for (Pattern p : patterns)
        names.push_back(patternName(p));
    StackedBarChart chart(title, names);
    for (const auto &res : results) {
        LocalityBars bars = localityBars(res, patterns);
        for (auto &bar : bars.bars)
            chart.addBar(std::move(bar));
    }
    chart.render(std::cout);
    if (!ctx.writeCsv())
        return;

    std::vector<std::string> header{"device", "input", "filtered"};
    header.insert(header.end(), names.begin(), names.end());
    header.push_back("total");
    std::vector<std::vector<std::string>> rows;
    for (const auto &res : results) {
        for (bool filtered : {false, true}) {
            FitBreakdown bd = res.fitByPattern(filtered);
            std::vector<std::string> row{res.deviceName, res.inputLabel,
                                         filtered ? "yes" : "no"};
            for (Pattern p : patterns)
                row.push_back(TextTable::num(bd.of(p), 4));
            row.push_back(TextTable::num(bd.total(), 4));
            rows.push_back(std::move(row));
        }
    }
    ctx.writeCsv(csv_name, header, rows);
}

} // namespace radcrit
