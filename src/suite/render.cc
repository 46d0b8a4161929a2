#include "suite/render.hh"

#include <cstdio>
#include <fstream>
#include <iostream>

#include "campaign/series.hh"
#include "common/csv.hh"
#include "common/figure.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/procmem.hh"
#include "obs/stats_registry.hh"

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

void
writeResilienceJson(std::ostream &os, const StatsSnapshot &snap,
                    int indent)
{
    JsonObjectWriter rz(os, indent);
    for (const char *name :
         {"retries", "resumed_runs", "watchdog_overdue",
          "checkpoint_torn_records", "store_quarantined",
          "chaos_throws", "chaos_stalls",
          "chaos_corrupt_writes"}) {
        // The JSON keys are the counter names with their registry
        // prefixes folded away; every field is present even when
        // zero so consumers never need existence checks.
        std::string counter;
        if (std::string(name) == "store_quarantined")
            counter = "campaign.store.quarantined";
        else if (std::string(name) == "watchdog_overdue")
            counter = "resilience.watchdog.overdue";
        else if (std::string(name) == "checkpoint_torn_records")
            counter = "resilience.checkpoint.torn_records";
        else if (std::string(name, 0, 6) == "chaos_")
            counter = std::string("resilience.chaos.") +
                (name + 6);
        else
            counter = std::string("resilience.") + name;
        rz.field(name,
                 static_cast<uint64_t>(snap.value(counter)));
    }
}

void
writeShardingJson(std::ostream &os, int indent,
                  uint64_t concurrent_campaigns,
                  uint64_t overlap_ns, uint64_t prepass_wall_ns)
{
    JsonObjectWriter sh(os, indent);
    sh.field("concurrent_campaigns", concurrent_campaigns);
    sh.field("overlap_ns", overlap_ns);
    sh.field("prepass_wall_ns", prepass_wall_ns);
}

void
writeMemoryJson(std::ostream &os, const StatsSnapshot &snap,
                int indent)
{
    ProcMemSample mem = readProcMem();
    JsonObjectWriter m(os, indent);
    // Invalid samples (no /proc) report zeros rather than dropping
    // the fields; consumers never need existence checks.
    m.field("peak_rss_bytes", mem.peakRssBytes);
    m.field("current_rss_bytes", mem.currentRssBytes);
    m.field("stream_batches",
            static_cast<uint64_t>(snap.value("stream.batches")));
    m.field("batch_runs",
            static_cast<uint64_t>(snap.value("stream.batch_runs")));
}

void
writeBenchJson(SuiteContext &ctx, const std::string &bench_name)
{
    const BenchRecorder &rec = ctx.recorder();
    std::string path = ctx.outputDir() + "/" + bench_name +
        ".json";
    std::ofstream out(path);
    if (!out) {
        warn("cannot open bench results file '%s'", path.c_str());
        return;
    }
    StatsSnapshot snap = StatsRegistry::global().snapshot();
    {
        JsonObjectWriter obj(out);
        obj.field("schema", benchJsonSchema);
        obj.field("bench", bench_name);
        obj.field("campaigns", rec.campaigns);
        obj.field("jobs", static_cast<uint64_t>(rec.jobs));
        obj.field("runs", rec.runs);
        obj.field("wall_ns", rec.wallNs);
        obj.field("cache_hits", rec.cacheHits);
        obj.field("cache_misses", rec.cacheMisses);
        obj.field("ns_per_op", rec.nsPerOp());
        obj.field("runs_per_s", rec.runsPerSecond());
        obj.beginRawField("timings");
        {
            // The perf trajectory: wall clock, throughput, where
            // the time went (phase timers), and how well the worker
            // pool was used. All-cache-hit runs legitimately report
            // zero phase time: no simulation happened.
            JsonObjectWriter timings(out, 4);
            timings.field("wall_ns", rec.wallNs);
            timings.field("runs_per_s", rec.runsPerSecond());
            timings.field("pool_busy_ns", static_cast<uint64_t>(
                snap.value("pool.busy.ns")));
            timings.field("pool_idle_ns", static_cast<uint64_t>(
                snap.value("pool.idle.ns")));
            timings.field("pool_utilization",
                          snap.value("pool.utilization"));
            timings.beginRawField("phase_ns");
            {
                JsonObjectWriter phases(out, 6);
                for (const char *phase :
                     {"sample", "classify", "replay", "metrics"}) {
                    phases.field(
                        phase,
                        static_cast<uint64_t>(snap.value(
                            std::string("campaign.phase.") +
                            phase + ".ns")));
                }
                phases.field("total", static_cast<uint64_t>(
                    snap.value("campaign.total.ns")));
            }
        }
        obj.beginRawField("sharding");
        writeShardingJson(out, 4, 0, 0, 0);
        obj.beginRawField("resilience");
        writeResilienceJson(out, snap, 4);
        obj.beginRawField("memory");
        writeMemoryJson(out, snap, 4);
        obj.beginRawField("stats");
        snap.writeJson(out, 2);
        obj.close();
    }
    out << "\n";
    std::printf("[json] %s\n", path.c_str());
}

} // namespace radcrit
