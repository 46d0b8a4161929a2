/**
 * @file
 * Figure-series builders: turn campaign results into the exact data
 * series the paper's figures plot.
 */

#ifndef RADCRIT_CAMPAIGN_SERIES_HH
#define RADCRIT_CAMPAIGN_SERIES_HH

#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "common/figure.hh"

namespace radcrit
{

/**
 * Scatter series of one campaign: x = number of incorrect elements,
 * y = mean relative error [%] per faulty execution (Figs. 2, 4, 6,
 * 8).
 */
ScatterSeries scatterSeries(const CampaignResult &result);

/**
 * Stacked locality/magnitude bars of one campaign (Figs. 3, 5, 7):
 * one "All" bar and, when any run survives differently, one "> t%"
 * bar, each broken down by spatial pattern in the given order.
 */
struct LocalityBars
{
    /** Pattern names in stacking order. */
    std::vector<std::string> segmentNames;
    /** One or two bars labelled "<input> All" / "<input> >t%". */
    std::vector<StackedBar> bars;
};

/**
 * @param result Campaign to summarize.
 * @param patterns Patterns in stacking order (paper uses
 * Square/Line/Single/Random, plus Cubic for LavaMD).
 */
LocalityBars localityBars(const CampaignResult &result,
                          const std::vector<Pattern> &patterns);

/** Patterns stacked in the 2D figures (Figs. 3, 7). */
std::vector<Pattern> patterns2d();

/** Patterns stacked in the 3D figure (Fig. 5). */
std::vector<Pattern> patterns3d();

/**
 * CSV-ready row of one run's metrics: run index, outcome, resource,
 * incorrect elements, mean relative error, patterns before/after
 * filter.
 */
std::vector<std::string> runRow(const RunRecord &run);

/**
 * runRow() of every run, in run-index order for any jobs count.
 */
std::vector<std::vector<std::string>>
runRows(const CampaignResult &result);

/** Header matching runRows(). */
std::vector<std::string> runRowsHeader();

} // namespace radcrit

#endif // RADCRIT_CAMPAIGN_SERIES_HH
