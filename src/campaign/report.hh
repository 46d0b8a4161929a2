/**
 * @file
 * The per-campaign HTML report: one self-contained file a beam-test
 * operator can archive next to the beam log, covering the outcome
 * distribution, criticality/FIT tables, per-phase wall-clock
 * attribution, the campaign's log-scale histograms, and (when a
 * flight recorder ran) per-worker utilization.
 *
 * Composed from obs/report.hh's HtmlReport builder; everything in
 * the document derives from the CampaignResult (including its stats
 * snapshot) plus an optional Timeline, so the report is
 * deterministic in content modulo wall-clock values. Exposed on the
 * CLI as `--report <file>` on `run` and `analyze`.
 */

#ifndef RADCRIT_CAMPAIGN_REPORT_HH
#define RADCRIT_CAMPAIGN_REPORT_HH

#include <iosfwd>
#include <string>

#include "campaign/runner.hh"
#include "obs/procmem.hh"
#include "obs/timeline.hh"

namespace radcrit
{

/**
 * Render the campaign report document.
 *
 * @param os Destination stream.
 * @param result The analyzed campaign.
 * @param timeline Optional flight recorder whose per-worker lanes
 * feed the worker-utilization section (quiescent use only).
 * @param mem Optional process-memory sample (peak/current RSS)
 * surfaced in the wall-clock attribution section. Passed in
 * explicitly — the CLI samples at render time — so rendering stays
 * a pure function of its inputs.
 */
void writeCampaignReport(std::ostream &os,
                         const CampaignResult &result,
                         const Timeline *timeline = nullptr,
                         const ProcMemSample *mem = nullptr);

/**
 * writeCampaignReport() into `path`; fatal() when the file cannot
 * be opened.
 */
void writeCampaignReportFile(const CampaignResult &result,
                             const std::string &path,
                             const Timeline *timeline = nullptr,
                             const ProcMemSample *mem = nullptr);

} // namespace radcrit

#endif // RADCRIT_CAMPAIGN_REPORT_HH
