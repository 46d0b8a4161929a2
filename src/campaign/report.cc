#include "campaign/report.hh"

#include <cmath>
#include <fstream>
#include <ostream>

#include "common/logging.hh"
#include "obs/report.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{

namespace
{

std::string
fmtCount(uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

std::string
fmtPct(double v)
{
    return std::isfinite(v) ? strprintf("%.1f%%", v) : "n/a";
}

std::string
fmtFit(double v)
{
    return strprintf("%.3f", v);
}

void
campaignSection(HtmlReport &report, const CampaignResult &res)
{
    report.section("Campaign");
    report.keyValues({
        {"device", res.deviceName},
        {"workload", res.workloadName},
        {"input", res.inputLabel},
        {"faulty runs", fmtCount(res.runs.size())},
        {"seed", fmtCount(res.config.sim.seed)},
        {"workers", fmtCount(res.config.sim.jobs)},
        {"sensitive area [a.u.]",
         strprintf("%.4f", res.sensitiveAreaAu)},
        {"occupancy", strprintf("%.3f", res.launch.occupancy)},
        {"tolerance filter",
         strprintf("%.2f%%",
                   res.config.analysis.filterThresholdPct)},
    });
}

void
outcomeSection(HtmlReport &report, const CampaignResult &res)
{
    report.section("Outcome breakdown");
    double runs = static_cast<double>(res.runs.size());
    std::vector<std::vector<std::string>> rows;
    std::vector<std::pair<std::string, double>> bars;
    for (size_t o = 0; o < numOutcomes; ++o) {
        Outcome outcome = static_cast<Outcome>(o);
        uint64_t n = res.count(outcome);
        rows.push_back(
            {outcomeName(outcome), fmtCount(n),
             fmtPct(runs > 0.0 ? 100.0 * static_cast<double>(n) /
                        runs : 0.0)});
        bars.emplace_back(outcomeName(outcome),
                          static_cast<double>(n));
    }
    report.table({"outcome", "runs", "fraction"}, rows);
    report.barChart("runs per outcome", bars);

    double ratio = res.sdcOverDetectable();
    report.keyValues(
        {{"SDC : (crash + hang)",
          std::isnan(ratio) ? "n/a" : strprintf("%.2f", ratio)}});
}

void
criticalitySection(HtmlReport &report, const CampaignResult &res)
{
    report.section("Criticality and FIT");
    report.keyValues({
        {"FIT all [a.u.]", fmtFit(res.fitTotalAu(false))},
        {strprintf("FIT > %.1f%% [a.u.]",
                   res.config.analysis.filterThresholdPct),
         fmtFit(res.fitTotalAu(true))},
        {"executions under tolerance",
         fmtPct(100.0 * res.filteredOutFraction())},
    });

    FitBreakdown all = res.fitByPattern(false);
    FitBreakdown filtered = res.fitByPattern(true);
    std::vector<std::vector<std::string>> rows;
    for (size_t p = 0; p < numPatterns; ++p) {
        Pattern pattern = static_cast<Pattern>(p);
        if (pattern == Pattern::None)
            continue;
        if (all.of(pattern) == 0.0 && filtered.of(pattern) == 0.0)
            continue;
        rows.push_back({patternName(pattern),
                        fmtFit(all.of(pattern)),
                        fmtFit(filtered.of(pattern))});
    }
    rows.push_back({"total", fmtFit(all.total()),
                    fmtFit(filtered.total())});
    report.table({"pattern", "FIT all [a.u.]",
                  "FIT filtered [a.u.]"},
                 rows);
}

void
resilienceSection(HtmlReport &report, const CampaignResult &res)
{
    uint64_t infra_error = res.count(Outcome::InfraError);
    uint64_t infra_timeout = res.count(Outcome::InfraTimeout);
    double retries = res.stats.value("resilience.retries");
    double resumed = res.stats.value("resilience.resumed_runs");
    // A clean campaign (the overwhelmingly common case) has
    // nothing to say here; only render the section when the
    // harness actually absorbed or quarantined something.
    if (infra_error == 0 && infra_timeout == 0 &&
        retries == 0.0 && resumed == 0.0)
        return;
    report.section("Resilience");
    report.keyValues({
        {"run attempts retried", fmtCount(static_cast<uint64_t>(
                                     retries))},
        {"runs resumed from checkpoint",
         fmtCount(static_cast<uint64_t>(resumed))},
        {"runs quarantined (error)", fmtCount(infra_error)},
        {"runs quarantined (timeout)", fmtCount(infra_timeout)},
    });
}

void
storeIoSection(HtmlReport &report)
{
    // Async store I/O is process-shaped telemetry (queue depth and
    // busy time depend on timing, never on results), so it lives in
    // the global registry, not in the campaign's own stats snapshot.
    // Only a streamed radcrit_cli miss saves through the I/O thread,
    // so render the section only when it ran.
    StatsSnapshot snap = StatsRegistry::global().snapshot();
    uint64_t batches = static_cast<uint64_t>(
        snap.value("store.io.async.batches"));
    if (batches == 0)
        return;
    report.section("Async store I/O");
    report.keyValues({
        {"batches moved on the I/O thread", fmtCount(batches)},
        {"I/O thread busy [ms]",
         strprintf("%.3f",
                   snap.value("store.io.async.busy_ns") / 1e6)},
        {"queue depth high-water",
         fmtCount(static_cast<uint64_t>(
             snap.value("store.io.async.queue_peak")))},
    });
}

void
wallClockSection(HtmlReport &report, const CampaignResult &res,
                 const ProcMemSample *mem)
{
    report.section("Wall-clock attribution");
    report.phaseAttribution(res.stats,
                            {"campaign.phase.sample",
                             "campaign.phase.classify",
                             "campaign.phase.replay",
                             "campaign.phase.metrics"});
    std::vector<std::pair<std::string, std::string>> values;
    double total = res.stats.value("campaign.total.ns");
    values.emplace_back("campaign total [ms]",
                        strprintf("%.3f", total / 1e6));
    if (mem && mem->valid) {
        values.emplace_back(
            "peak RSS (VmHWM) [MiB]",
            strprintf("%.1f", static_cast<double>(
                                  mem->peakRssBytes) /
                                  (1024.0 * 1024.0)));
        values.emplace_back(
            "current RSS (VmRSS) [MiB]",
            strprintf("%.1f", static_cast<double>(
                                  mem->currentRssBytes) /
                                  (1024.0 * 1024.0)));
    }
    report.keyValues(values);
}

void
histogramSection(HtmlReport &report, const CampaignResult &res)
{
    report.section("Distributions");
    bool any = false;
    for (const auto &entry : res.stats.entries) {
        if (entry.kind != StatKind::Histogram)
            continue;
        any = true;
        report.logHistogram(entry.name, entry);
    }
    if (!any)
        report.paragraph("No histograms were recorded for this "
                         "campaign.");
}

void
workerSection(HtmlReport &report, const Timeline &timeline)
{
    report.section("Workers");
    std::vector<std::vector<std::string>> rows;
    std::vector<std::pair<std::string, double>> bars;
    for (const TimelineLane *lane : timeline.lanes()) {
        rows.push_back(
            {lane->label(), fmtCount(lane->events().size()),
             strprintf("%.3f",
                       static_cast<double>(lane->busyNs()) /
                           1e6)});
        bars.emplace_back(lane->label(),
                          static_cast<double>(lane->busyNs()) /
                              1e6);
    }
    report.table({"lane", "events", "busy [ms]"}, rows);
    report.barChart("busy wall-clock per lane [ms]", bars);
}

} // anonymous namespace

void
writeCampaignReport(std::ostream &os, const CampaignResult &result,
                    const Timeline *timeline,
                    const ProcMemSample *mem)
{
    HtmlReport report("radcrit campaign report: " +
                      result.deviceName + " / " +
                      result.workloadName + " " +
                      result.inputLabel);
    campaignSection(report, result);
    outcomeSection(report, result);
    resilienceSection(report, result);
    criticalitySection(report, result);
    storeIoSection(report);
    wallClockSection(report, result, mem);
    histogramSection(report, result);
    if (timeline)
        workerSection(report, *timeline);
    report.render(os);
}

void
writeCampaignReportFile(const CampaignResult &result,
                        const std::string &path,
                        const Timeline *timeline,
                        const ProcMemSample *mem)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open report file '%s'", path.c_str());
    writeCampaignReport(out, result, timeline, mem);
}

} // namespace radcrit
