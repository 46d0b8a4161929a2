/**
 * @file
 * Shared render steps for experiments: the paper's two figure
 * shapes (scatter + stacked locality bars), each with its CSV
 * side-output in the context's output directory.
 */

#ifndef RADCRIT_SUITE_RENDER_HH
#define RADCRIT_SUITE_RENDER_HH

#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "metrics/locality.hh"
#include "suite/context.hh"

namespace radcrit
{

/**
 * Render one scatter figure (mean relative error vs. number of
 * incorrect elements) from a set of campaigns, with the paper's
 * axis clamps, and dump per-run CSV when the context wants CSV.
 */
void renderScatterFigure(SuiteContext &ctx,
                         const std::string &title,
                         const std::vector<CampaignResult> &results,
                         double x_clamp, double y_clamp,
                         const std::string &csv_name);

/**
 * Render one locality/magnitude figure (stacked FIT bars, All and
 * >threshold) from a set of campaigns.
 */
void renderLocalityFigure(
    SuiteContext &ctx, const std::string &title,
    const std::vector<CampaignResult> &results,
    const std::vector<Pattern> &patterns,
    const std::string &csv_name);

} // namespace radcrit

#endif // RADCRIT_SUITE_RENDER_HH
