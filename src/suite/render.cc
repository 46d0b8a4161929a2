#include "suite/render.hh"

#include <cstdio>
#include <iostream>

#include "campaign/series.hh"
#include "common/csv.hh"
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
    for (const auto &res : results)
        plot.addSeries(scatterSeries(res));
    plot.render(std::cout);

    if (ctx.writeCsv()) {
        std::string path = ctx.outputDir() + "/" + csv_name;
        CsvWriter csv(path);
        csv.writeRow({"device", "input", "numIncorrect",
                      "meanRelErrPct"});
        for (const auto &res : results) {
            ScatterSeries s = scatterSeries(res);
            for (size_t i = 0; i < s.xs.size(); ++i) {
                csv.writeRow({res.deviceName, res.inputLabel,
                              TextTable::num(s.xs[i], 0),
                              TextTable::num(s.ys[i], 4)});
            }
        }
        std::printf("[csv] %s\n", path.c_str());
    }
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

    if (ctx.writeCsv()) {
        std::string path = ctx.outputDir() + "/" + csv_name;
        CsvWriter csv(path);
        std::vector<std::string> header{"device", "input",
                                        "filtered"};
        for (const auto &n : names)
            header.push_back(n);
        header.push_back("total");
        csv.writeRow(header);
        for (const auto &res : results) {
            for (bool filtered : {false, true}) {
                FitBreakdown bd = res.fitByPattern(filtered);
                std::vector<std::string> row{
                    res.deviceName, res.inputLabel,
                    filtered ? "yes" : "no"};
                for (Pattern p : patterns)
                    row.push_back(TextTable::num(bd.of(p), 4));
                row.push_back(TextTable::num(bd.total(), 4));
                csv.writeRow(row);
            }
        }
        std::printf("[csv] %s\n", path.c_str());
    }
}

} // namespace radcrit
