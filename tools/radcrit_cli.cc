/**
 * @file
 * radcrit command-line front end: run any campaign from flags,
 * print the criticality summary, and optionally emit the beam log,
 * per-run CSV, scatter figure and locality breakdown — everything
 * a user needs without writing C++.
 *
 *   $ radcrit_cli --device=XeonPhi --workload=LavaMD \
 *       --size=15 --runs=400 --threshold=4 \
 *       --log=lavamd.beamlog --csv=lavamd.csv --figures
 *
 * The `analyze` subcommand is the other half of "run once, analyze
 * many": it loads a saved beam log (written by --log, or an entry
 * from a --cache directory) and re-renders the metrics under
 * arbitrary tolerance/locality parameters without touching a
 * kernel:
 *
 *   $ radcrit_cli analyze --log=lavamd.beamlog --filter-pct=10 \
 *       --csv=lavamd_10pct.csv --figures
 *
 * The flight recorder rides along on `run`: --timeline writes a
 * Chrome trace-event JSON of the campaign (one lane per worker,
 * one span per run; load it in Perfetto), and --report writes a
 * self-contained HTML campaign report. `analyze --report` renders
 * the same report from a saved log:
 *
 *   $ radcrit_cli --runs=2000 --jobs=8 --timeline=t.json \
 *       --report=r.html
 *   $ radcrit_cli analyze --log=lavamd.beamlog --report=lavamd.html
 *
 * `radcrit_cli list` prints the catalog of known devices,
 * workloads and registered experiments (same as `radcrit_suite
 * list`); `--json` makes it machine-readable.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include "campaign/analysis.hh"
#include "campaign/paperconfigs.hh"
#include "campaign/report.hh"
#include "campaign/runner.hh"
#include "campaign/series.hh"
#include "campaign/store.hh"
#include "campaign/stream.hh"
#include "common/cli.hh"
#include "common/csv.hh"
#include "common/logging.hh"
#include "common/figure.hh"
#include "common/table.hh"
#include "exec/chaos.hh"
#include "exec/pool.hh"
#include "logs/beamlog.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "suite/driver.hh"
#include "suite/spec.hh"

using namespace radcrit;

namespace
{

/** @return the suite spec of --workload at --size (0 = default). */
WorkloadSpec
workloadSpec(const std::string &name, int64_t size)
{
    if (name == "DGEMM")
        return dgemmSpec(size > 0 ? size / 8 : 256);
    if (name == "LavaMD") {
        int64_t paper = size > 0 ? size : 15;
        return lavamdSpec({std::max<int64_t>(paper / 2, 2), paper});
    }
    if (name == "HotSpot")
        return hotspotSpec();
    if (name == "CLAMR")
        return clamrSpec();
    fatal("unknown workload '%s' (DGEMM, LavaMD, HotSpot, CLAMR)",
          name.c_str());
}

/** Print the campaign summary table. */
void
printSummary(const CampaignResult &res)
{
    TextTable table("radcrit campaign: " + res.deviceName + " / " +
                    res.workloadName + " " + res.inputLabel);
    table.setHeader({"quantity", "value"});
    table.addRow({"faulty runs",
                  TextTable::num(
                      static_cast<uint64_t>(res.runs.size()))});
    table.addRow({"SDC", TextTable::num(
        res.count(Outcome::Sdc))});
    table.addRow({"crash", TextTable::num(
        res.count(Outcome::Crash))});
    table.addRow({"hang", TextTable::num(
        res.count(Outcome::Hang))});
    table.addRow({"masked", TextTable::num(
        res.count(Outcome::Masked))});
    uint64_t infra = res.count(Outcome::InfraError) +
        res.count(Outcome::InfraTimeout);
    if (infra > 0)
        table.addRow({"quarantined (infra)",
                      TextTable::num(infra)});
    double sdc_ratio = res.sdcOverDetectable();
    table.addRow({"SDC:(crash+hang)",
                  std::isnan(sdc_ratio)
                      ? "n/a"
                      : TextTable::num(sdc_ratio, 2)});
    table.addRow({"FIT all [a.u.]",
                  TextTable::num(res.fitTotalAu(false), 2)});
    table.addRow({"FIT >" +
                  TextTable::num(
                      res.config.analysis.filterThresholdPct, 1) +
                  "% [a.u.]",
                  TextTable::num(res.fitTotalAu(true), 2)});
    table.addRow({"executions under tolerance",
                  TextTable::num(100.0 *
                                 res.filteredOutFraction(), 1) +
                  "%"});
    table.render(std::cout);
}

/** Render the scatter + locality figures for one result. */
void
renderFigures(const CampaignResult &res, bool volumetric)
{
    ScatterPlot plot("mean relative error vs incorrect "
                     "elements",
                     "Number of Incorrect Elements",
                     "Average Relative Error (%)");
    plot.setYClamp(1000.0);
    plot.addSeries(scatterSeries(res));
    plot.render(std::cout);

    auto patterns = volumetric ? patterns3d() : patterns2d();
    std::vector<std::string> names;
    for (Pattern p : patterns)
        names.push_back(patternName(p));
    StackedBarChart chart("relative FIT by error pattern", names);
    for (auto &bar : localityBars(res, patterns).bars)
        chart.addBar(std::move(bar));
    chart.render(std::cout);
}

/** Write the per-run metrics CSV, one row as each is formed. */
void
writeRunCsv(const CampaignResult &res, const std::string &path)
{
    CsvWriter csv(path);
    csv.writeRow(runRowsHeader());
    for (const RunRecord &run : res.runs)
        csv.writeRow(runRow(run));
    std::printf("[csv] %s\n", path.c_str());
}

/** @return true when any SDC record in the campaign is 3-D. */
bool
rawIsVolumetric(const CampaignRaw &raw)
{
    for (const auto &run : raw.runs) {
        if (run.outcome == Outcome::Sdc)
            return run.record.dims == 3;
    }
    return false;
}

/**
 * Streaming counterpart of rawIsVolumetric(): watches batches flow
 * past and remembers whether the first SDC run is 3-D, so the
 * figure renderer can pick its pattern set without the campaign
 * ever being materialized.
 */
class VolumetricProbeSink : public RawObserver
{
  public:
    void begin(const CampaignMeta &) override {}

    void observe(const RunBatch &batch) override
    {
        if (decided_)
            return;
        for (const auto &run : batch.runs) {
            if (run.outcome == Outcome::Sdc) {
                volumetric_ = run.record.dims == 3;
                decided_ = true;
                return;
            }
        }
    }

    void end(const StatsSnapshot &) override {}

    bool volumetric() const { return volumetric_; }

  private:
    bool decided_ = false;
    bool volumetric_ = false;
};

/** Runs per batch on every --stream path. */
constexpr uint64_t kStreamBatchRuns = 4096;

/**
 * `radcrit_cli analyze`: load a beam log, re-analyze under the
 * given tolerance/locality parameters, render.
 */
int
analyzeMain(int argc, char **argv)
{
    CliParser cli("radcrit_cli analyze");
    cli.addString("log", "",
                  "beam log to analyze (written by --log or a "
                  "campaign store entry; required)");
    cli.addDouble("filter-pct", 2.0,
                  "relative-error tolerance in percent");
    cli.addDouble("square-density", LocalityParams{}.squareDensity,
                  "locality classifier: min corrupted-element "
                  "density of a square pattern");
    cli.addDouble("cubic-density", LocalityParams{}.cubicDensity,
                  "locality classifier: min corrupted-element "
                  "density of a cubic pattern");
    cli.addDouble("fit-scale", AnalysisConfig{}.fitScaleAu,
                  "sensitive-area-to-FIT conversion (a.u.)");
    cli.addString("csv", "", "write per-run metrics CSV here");
    cli.addString("report", "",
                  "write a self-contained HTML campaign report "
                  "here");
    cli.addFlag("figures", "render scatter + locality figures");
    cli.addFlag("stream",
                "stream the beam log through the analyzer in "
                "batches instead of materializing it (bounded "
                "memory; output is byte-identical)");
    cli.addFlag("progress",
                "report analysis progress on stderr (records "
                "analyzed and records/s)");
    cli.parse(argc, argv);

    if (cli.getString("log").empty())
        fatal("analyze needs --log=<beamlog file>");

    AnalysisConfig acfg;
    acfg.filterThresholdPct = cli.getDouble("filter-pct");
    acfg.locality.squareDensity = cli.getDouble("square-density");
    acfg.locality.cubicDensity = cli.getDouble("cubic-density");
    acfg.fitScaleAu = cli.getDouble("fit-scale");

    CampaignResult res;
    bool volumetric = false;
    if (cli.getFlag("stream")) {
        std::ifstream in(cli.getString("log"));
        if (!in)
            fatal("cannot open beam log '%s'",
                  cli.getString("log").c_str());
        BeamLogSource source(in, kStreamBatchRuns);
        uint64_t total = source.meta().sim.faultyRuns;
        uint64_t progress_every =
            cli.getFlag("progress")
                ? std::max<uint64_t>(total / 10, 1)
                : 0;
        AnalyzeSink analyze(acfg, progress_every);
        if (cli.getFlag("figures")) {
            VolumetricProbeSink probe;
            TeeRawSink tee({&probe, &analyze});
            pumpRaw(source, tee);
            volumetric = probe.volumetric();
        } else {
            pumpRaw(source, analyze);
        }
        res = analyze.take();
    } else {
        CampaignRaw raw = readBeamLogFile(cli.getString("log"));
        volumetric = rawIsVolumetric(raw);
        if (cli.getFlag("progress")) {
            // Same analyzer, driven through the progress-aware
            // sink; the source moves the loaded runs on, so the
            // campaign is held once, and the result is
            // byte-identical to analyzeCampaign().
            uint64_t progress_every =
                std::max<uint64_t>(raw.runs.size() / 10, 1);
            CampaignRawSource source(std::move(raw), 0);
            res = analyzeCampaignStream(source, acfg, progress_every);
        } else {
            res = analyzeCampaign(raw, acfg);
        }
    }
    printSummary(res);

    if (cli.getFlag("figures"))
        renderFigures(res, volumetric);

    if (!cli.getString("csv").empty())
        writeRunCsv(res, cli.getString("csv"));

    if (!cli.getString("report").empty()) {
        ProcMemSample mem = readProcMem();
        writeCampaignReportFile(res, cli.getString("report"),
                                nullptr, &mem);
        std::printf("[report] %s\n",
                    cli.getString("report").c_str());
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "analyze") == 0)
        return analyzeMain(argc - 1, argv + 1);
    if (argc > 1 && std::strcmp(argv[1], "list") == 0) {
        CliParser list_cli("radcrit_cli list");
        list_cli.addFlag("json",
                         "machine-readable catalog (JSON)");
        list_cli.parse(argc - 1, argv + 1);
        printCatalog(std::cout, list_cli.getFlag("json"));
        return 0;
    }

    CliParser cli("radcrit_cli");
    cli.addString("device", "K40", "K40 or XeonPhi");
    cli.addString("workload", "DGEMM",
                  "DGEMM, LavaMD, HotSpot or CLAMR");
    cli.addInt("size", 0,
               "paper-equivalent input size (DGEMM side or "
               "LavaMD boxes; 0 = default)");
    cli.addInt("runs", 300, "faulty runs to simulate");
    cli.addInt("seed", 0, "campaign seed (0 = derived)");
    cli.addDouble("threshold", 2.0,
                  "relative-error tolerance in percent");
    cli.addInt("jobs",
               static_cast<int64_t>(WorkerPool::envJobs(1)),
               "worker threads (1 = serial, 0 = one per hardware "
               "thread; results are identical for every value; "
               "default from RADCRIT_JOBS)");
    const char *cache_env = std::getenv("RADCRIT_CAMPAIGN_CACHE");
    cli.addString("cache", cache_env ? cache_env : "",
                  "campaign store directory: load the raw campaign "
                  "from cache when present, save it after "
                  "simulating (default from "
                  "RADCRIT_CAMPAIGN_CACHE; empty = off)");
    cli.addString("log", "", "write the beam log here");
    cli.addString("csv", "", "write per-run metrics CSV here");
    cli.addString("trace", "",
                  "write a JSONL strike trace here (one record "
                  "per simulated run)");
    cli.addString("stats-out", "",
                  "write the campaign stats snapshot as JSON here");
    const char *timeline_env = std::getenv("RADCRIT_TIMELINE");
    cli.addString("timeline", timeline_env ? timeline_env : "",
                  "write a Chrome trace-event JSON timeline here "
                  "(one lane per worker, one span per run; open in "
                  "Perfetto; default from RADCRIT_TIMELINE)");
    cli.addString("report", "",
                  "write a self-contained HTML campaign report "
                  "here");
    cli.addFlag("progress", "report campaign progress on stderr");
    cli.addFlag("figures", "render scatter + locality figures");
    cli.addFlag("stream",
                "run the bounded-memory streaming pipeline: "
                "simulate, persist and analyze overlap batch by "
                "batch and the raw campaign is never held in "
                "memory; every output is byte-identical to the "
                "materialized default");
    cli.addString("checkpoint", "",
                  "append completed runs to this shard file as "
                  "they finish, so a killed campaign can be "
                  "resumed with --resume");
    cli.addFlag("resume",
                "replay complete runs from --checkpoint instead "
                "of re-simulating them; the finished campaign is "
                "bit-identical to an uninterrupted one");
    cli.addInt("max-attempts", 3,
               "attempts per run before it is quarantined as an "
               "infra outcome (1 = fail fast)");
    cli.addInt("deadline-ms", 0,
               "soft per-run deadline in milliseconds: overruns "
               "are retried and the watchdog warns live about "
               "stuck runs (0 = off)");
    const char *chaos_env = std::getenv("RADCRIT_CHAOS");
    cli.addString("chaos", chaos_env ? chaos_env : "",
                  "deterministic harness-fault injection spec, "
                  "e.g. seed=42,runs=300,throws=3,stalls=1,"
                  "corrupts=1,attempts=2,stall-ms=50 (default "
                  "from RADCRIT_CHAOS; empty = off)");
    cli.parse(argc, argv);

    std::string device_name = cli.getString("device");
    if (device_name != "K40" && device_name != "XeonPhi")
        fatal("unknown device '%s' (K40 or XeonPhi)",
              device_name.c_str());
    DeviceModel device = makeDevice(
        device_name == "K40" ? DeviceId::K40
                             : DeviceId::XeonPhi);
    if (cli.getInt("jobs") < 0)
        fatal("--jobs must be >= 0");
    auto jobs = static_cast<unsigned>(cli.getInt("jobs"));
    // Attached for the whole command: DGEMM and LavaMD split their
    // golden output into one band per job, and the store save and
    // --log format their beam log in ordered slices on it. The
    // campaign itself runs on its own pool.
    WorkerPool build_pool(jobs);
    ScopedBuildPool attach(build_pool);
    std::unique_ptr<Workload> workload = buildWorkload(
        device, workloadSpec(cli.getString("workload"),
                             cli.getInt("size")));

    CampaignConfig cfg = defaultCampaign(
        static_cast<uint64_t>(cli.getInt("runs")), device.name,
        workload->name(), workload->inputLabel());
    if (cli.getInt("seed") != 0)
        cfg.sim.seed = static_cast<uint64_t>(cli.getInt("seed"));
    cfg.analysis.filterThresholdPct = cli.getDouble("threshold");
    cfg.sim.jobs = jobs;
    if (cli.getFlag("progress")) {
        cfg.sim.progressEvery =
            std::max<uint64_t>(cfg.sim.faultyRuns / 10, 1);
    }
    if (cli.getInt("max-attempts") < 1)
        fatal("--max-attempts must be >= 1");
    cfg.sim.resilience.maxAttempts =
        static_cast<unsigned>(cli.getInt("max-attempts"));
    if (cli.getInt("deadline-ms") < 0)
        fatal("--deadline-ms must be >= 0");
    cfg.sim.resilience.softDeadlineNs = static_cast<uint64_t>(
        cli.getInt("deadline-ms")) * 1'000'000;
    cfg.sim.resilience.checkpointPath =
        cli.getString("checkpoint");
    cfg.sim.resilience.resume = cli.getFlag("resume");
    if (cfg.sim.resilience.resume &&
        cfg.sim.resilience.checkpointPath.empty())
        fatal("--resume needs --checkpoint=<shard file>");

    std::unique_ptr<ChaosEngine> chaos_engine;
    if (!cli.getString("chaos").empty()) {
        auto params = parseChaosSpec(cli.getString("chaos"));
        if (params) {
            chaos_engine = std::make_unique<ChaosEngine>(
                makeChaosPlan(*params));
            inform("%s", chaos_engine->plan().describe().c_str());
            setChaos(chaos_engine.get());
        }
    }

    std::unique_ptr<CampaignStore> store;
    if (!cli.getString("cache").empty())
        store = CampaignStore::open(cli.getString("cache"));

    std::unique_ptr<JsonlTraceSink> trace;
    if (!cli.getString("trace").empty()) {
        trace = std::make_unique<JsonlTraceSink>(
            cli.getString("trace"));
        setTraceSink(trace.get());
    }

    // The flight recorder also feeds the Workers section of the
    // HTML report, so arm it for --report too.
    std::unique_ptr<Timeline> tl;
    if (!cli.getString("timeline").empty() ||
        !cli.getString("report").empty()) {
        tl = std::make_unique<Timeline>();
        setTimeline(tl.get());
    }

    bool stream = cli.getFlag("stream");
    CampaignRaw raw;
    CampaignResult res;
    if (stream) {
        // The streaming pipeline: analysis (and the beam-log
        // writer, when asked for) read each batch in place right
        // behind the simulator or the store; the raw campaign never
        // materializes.
        cfg.sim.batchRuns = kStreamBatchRuns;
        std::unique_ptr<std::ofstream> log_out;
        std::unique_ptr<BeamLogSink> log_sink;
        AnalyzeSink analyze(cfg.analysis);
        std::vector<RawObserver *> observers;
        if (!cli.getString("log").empty()) {
            log_out = std::make_unique<std::ofstream>(
                cli.getString("log"));
            if (!*log_out)
                fatal("cannot open beam log '%s' for writing",
                      cli.getString("log").c_str());
            log_sink = std::make_unique<BeamLogSink>(*log_out);
            observers.push_back(log_sink.get());
        }
        observers.push_back(&analyze);
        simulateOrLoadStream(device, *workload, cfg.sim,
                             store.get(), std::move(observers));
        if (log_out) {
            log_out->flush();
            if (!*log_out)
                fatal("write error on beam log '%s'",
                      cli.getString("log").c_str());
            log_out->close();
        }
        res = analyze.take();
    } else {
        raw = simulateOrLoad(device, *workload, cfg.sim,
                             store.get());
        res = analyzeCampaign(raw, cfg.analysis);
    }

    if (chaos_engine)
        setChaos(nullptr);
    if (tl)
        setTimeline(nullptr);

    if (trace) {
        setTraceSink(nullptr);
        trace->flush();
        std::printf("[trace] %s\n", trace->path().c_str());
    }

    if (!cli.getString("timeline").empty()) {
        tl->writeJsonFile(cli.getString("timeline"));
        std::printf("[timeline] %s\n",
                    cli.getString("timeline").c_str());
    }

    if (!cli.getString("report").empty()) {
        ProcMemSample mem = readProcMem();
        writeCampaignReportFile(res, cli.getString("report"),
                                tl.get(), &mem);
        std::printf("[report] %s\n",
                    cli.getString("report").c_str());
    }

    if (!cli.getString("stats-out").empty()) {
        std::ofstream stats_out(cli.getString("stats-out"));
        if (!stats_out)
            fatal("cannot open stats file '%s'",
                  cli.getString("stats-out").c_str());
        res.stats.writeJson(stats_out);
        stats_out << "\n";
        std::printf("[stats] %s\n",
                    cli.getString("stats-out").c_str());
    }

    printSummary(res);

    if (cli.getFlag("figures"))
        renderFigures(res, workload->emptyRecord().dims == 3);

    if (!cli.getString("csv").empty())
        writeRunCsv(res, cli.getString("csv"));

    if (!cli.getString("log").empty()) {
        // The streamed path already wrote it batch by batch.
        if (!stream)
            writeBeamLogFile(raw, cli.getString("log"));
        std::printf("[beamlog] %s\n",
                    cli.getString("log").c_str());
    }
    return 0;
}
