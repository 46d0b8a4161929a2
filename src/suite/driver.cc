#include "suite/driver.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "campaign/paperconfigs.hh"
#include "campaign/store.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "exec/chaos.hh"
#include "exec/pool.hh"
#include "obs/json.hh"
#include "obs/procmem.hh"
#include "obs/stats_registry.hh"
#include "obs/timeline.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/scheduler.hh"

namespace radcrit
{

namespace
{

/**
 * Version of the suite JSON document; tools/check_bench_json.py
 * validates the same number.
 */
constexpr uint64_t benchJsonSchema = 12;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::string
envOr(const char *name, const std::string &fallback)
{
    const char *value = std::getenv(name);
    return value ? value : fallback;
}

/**
 * Build and install the chaos engine requested by --chaos /
 * RADCRIT_CHAOS. The returned engine owns the plan and must stay
 * alive for the whole run; null when chaos is off.
 */
std::unique_ptr<ChaosEngine>
installChaosOption(const CliParser &cli)
{
    if (cli.getString("chaos").empty())
        return nullptr;
    auto params = parseChaosSpec(cli.getString("chaos"));
    if (!params)
        return nullptr;
    auto engine =
        std::make_unique<ChaosEngine>(makeChaosPlan(*params));
    inform("%s", engine->plan().describe().c_str());
    setChaos(engine.get());
    return engine;
}

void
writeCatalogHuman(std::ostream &os)
{
    os << "Devices:\n";
    for (DeviceId id : allDevices()) {
        DeviceModel device = makeDevice(id);
        os << "  " << deviceIdName(id) << " (" << device.name
           << ")\n";
    }

    os << "\nWorkloads:\n";
    for (DeviceId id : allDevices()) {
        os << "  " << deviceIdName(id) << ":\n";
        os << "    DGEMM    scaled sides:";
        for (int64_t side : dgemmScaledSides(id))
            os << " " << side;
        os << "\n    LavaMD   scaled boxes:";
        for (const LavaMdSize &size : lavamdScaledSizes(id))
            os << " " << size.scaledBoxes << " (paper "
               << size.paperBoxes << ")";
        os << "\n    HotSpot  scaled grid: " << hotspotScaledGrid()
           << "\n";
        if (id == DeviceId::XeonPhi)
            os << "    CLAMR    scaled grid: " << clamrScaledGrid()
               << "\n";
    }

    os << "\nExperiments:\n";
    for (const Experiment *exp :
         ExperimentRegistry::instance().all()) {
        const ExperimentInfo &info = exp->info();
        char line[256];
        std::snprintf(line, sizeof(line),
                      "  %-26s %-10s runs=%-5llu %s\n",
                      info.name.c_str(), info.tag.c_str(),
                      static_cast<unsigned long long>(
                          info.defaultRuns),
                      info.summary.c_str());
        os << line;
    }
}

void
writeCatalogJson(std::ostream &os)
{
    JsonObjectWriter obj(os);
    obj.field("schema", uint64_t{1});

    obj.beginRawField("devices");
    os << "[";
    bool first = true;
    for (DeviceId id : allDevices()) {
        DeviceModel device = makeDevice(id);
        os << (first ? "" : ", ") << "{\"id\": \""
           << jsonEscape(deviceIdName(id)) << "\", \"name\": \""
           << jsonEscape(device.name) << "\"}";
        first = false;
    }
    os << "]";

    obj.beginRawField("workloads");
    os << "[";
    first = true;
    for (DeviceId id : allDevices()) {
        const char *dev = deviceIdName(id);
        for (int64_t side : dgemmScaledSides(id)) {
            os << (first ? "" : ", ")
               << "{\"device\": \"" << dev
               << "\", \"kind\": \"DGEMM\", \"scaled_side\": "
               << side << "}";
            first = false;
        }
        for (const LavaMdSize &size : lavamdScaledSizes(id)) {
            os << ", {\"device\": \"" << dev
               << "\", \"kind\": \"LavaMD\", \"scaled_boxes\": "
               << size.scaledBoxes << ", \"paper_boxes\": "
               << size.paperBoxes << "}";
        }
        os << ", {\"device\": \"" << dev
           << "\", \"kind\": \"HotSpot\", \"scaled_grid\": "
           << hotspotScaledGrid() << "}";
        if (id == DeviceId::XeonPhi)
            os << ", {\"device\": \"" << dev
               << "\", \"kind\": \"CLAMR\", \"scaled_grid\": "
               << clamrScaledGrid() << "}";
    }
    os << "]";

    obj.beginRawField("experiments");
    os << "[";
    first = true;
    for (const Experiment *exp :
         ExperimentRegistry::instance().all()) {
        const ExperimentInfo &info = exp->info();
        os << (first ? "" : ", ") << "{\"name\": \""
           << jsonEscape(info.name) << "\", \"tag\": \""
           << jsonEscape(info.tag) << "\", \"default_runs\": "
           << info.defaultRuns << ", \"summary\": \""
           << jsonEscape(info.summary) << "\"}";
        first = false;
    }
    os << "]";
    obj.close();
}

/** Per-experiment tallies gathered by the suite run loop. */
struct ExperimentBlock
{
    const Experiment *exp = nullptr;
    BenchRecorder rec;
};

/**
 * Write the "resilience" JSON object from a stats snapshot:
 * retry/resume/quarantine tallies plus the chaos fault counters,
 * all zero on a clean run.
 */
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

/**
 * Write the "memory" JSON object: a live /proc/self/status RSS
 * sample (0 when /proc is unavailable).
 */
void
writeMemoryJson(std::ostream &os, int indent)
{
    ProcMemSample mem = readProcMem();
    JsonObjectWriter m(os, indent);
    m.field("peak_rss_bytes", mem.peakRssBytes);
    m.field("current_rss_bytes", mem.currentRssBytes);
}

void
writeSuiteJson(SuiteContext &ctx, const std::string &path,
               const std::vector<ExperimentBlock> &blocks,
               const ScheduleStats &sched, uint64_t suite_wall_ns)
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot open suite results file '%s'", path.c_str());
        return;
    }

    BenchRecorder totals;
    for (const ExperimentBlock &block : blocks) {
        totals.campaigns += block.rec.campaigns;
        totals.runs += block.rec.runs;
        totals.wallNs += block.rec.wallNs;
    }

    // The stats snapshot always carries the process memory gauges,
    // also for a run that consumed no campaign.
    publishProcMem(StatsRegistry::global());
    StatsSnapshot snap = StatsRegistry::global().snapshot();
    {
        JsonObjectWriter obj(out);
        obj.field("schema", benchJsonSchema);
        obj.field("suite", "radcrit_suite");
        obj.field("jobs", static_cast<uint64_t>(ctx.jobs()));
        obj.field("experiments_run",
                  static_cast<uint64_t>(blocks.size()));
        obj.field("wall_ns", suite_wall_ns);

        obj.beginRawField("campaigns");
        {
            // The dedup ledger: how many campaign declarations the
            // selected experiments made, how many survived dedup,
            // and where each distinct campaign came from. Every
            // consumed campaign is one memory serve.
            JsonObjectWriter ded(out, 4);
            ded.field("requested", sched.requested);
            ded.field("distinct", sched.distinct);
            ded.field("simulated", sched.simulated);
            ded.field("store_hits", sched.storeHits);
            ded.field("memory_serves", ctx.memoryServes());
            ded.field("campaign_wall_sum_ns", sched.wallNs);
        }

        obj.beginRawField("totals");
        {
            JsonObjectWriter tot(out, 4);
            tot.field("campaigns", totals.campaigns);
            tot.field("runs", totals.runs);
            tot.field("wall_ns", totals.wallNs);
            tot.field("ns_per_op", totals.nsPerOp());
            tot.field("runs_per_s", totals.runsPerSecond());
        }

        obj.beginRawField("pool");
        {
            JsonObjectWriter pool(out, 4);
            pool.field("jobs",
                       static_cast<uint64_t>(ctx.pool().jobs()));
            pool.field("dispatches", ctx.pool().dispatches());
        }

        obj.beginRawField("sharding");
        {
            JsonObjectWriter sh(out, 4);
            sh.field("concurrent_campaigns", sched.concurrentPeak);
            sh.field("overlap_ns", sched.overlapNs);
            sh.field("prepass_wall_ns", sched.prepassWallNs);
        }

        obj.beginRawField("resilience");
        writeResilienceJson(out, snap, 4);

        obj.beginRawField("memory");
        writeMemoryJson(out, 4);

        obj.beginRawField("experiments");
        {
            JsonObjectWriter exps(out, 4);
            for (const ExperimentBlock &block : blocks) {
                const ExperimentInfo &info = block.exp->info();
                exps.beginRawField(info.name);
                JsonObjectWriter one(out, 6);
                one.field("tag", info.tag);
                one.field("campaigns", block.rec.campaigns);
                one.field("runs", block.rec.runs);
                one.field("wall_ns", block.rec.wallNs);
            }
        }

        obj.beginRawField("stats");
        snap.writeJson(out, 2);
        obj.close();
    }
    out << "\n";
    std::printf("[json] %s\n", path.c_str());
}

int
runSuite(int argc, char **argv)
{
    ExperimentRegistry &registry = ExperimentRegistry::instance();

    CliParser cli("radcrit_suite");
    cli.addInt("runs", -1,
               "faulty runs per campaign"
               " (-1 = per-experiment default)");
    cli.addInt("jobs",
               static_cast<int64_t>(WorkerPool::envJobs(1)),
               "worker threads (0 = all hardware threads)");
    cli.addString("cache", envOr("RADCRIT_CAMPAIGN_CACHE", ""),
                  "campaign cache directory (empty = cache off)");
    cli.addString("out", "",
                  "output directory (default: $RADCRIT_BENCH_OUT "
                  "or bench_out)");
    cli.addFlag("no-csv", "skip CSV side-output files");
    cli.addFlag("progress",
                "report campaign-granular prepass progress "
                "with an ETA");
    cli.addString("chaos", envOr("RADCRIT_CHAOS", ""),
                  "deterministic harness-fault injection spec "
                  "(e.g. seed=42,runs=300,throws=3,attempts=2; "
                  "default from RADCRIT_CHAOS; empty = off)");
    cli.addString("json", "",
                  "suite JSON path (default: "
                  "<out>/radcrit_suite.json)");
    cli.addString("timeline", "",
                  "write a Chrome trace-event JSON of the prepass "
                  "(worker lanes: one span per simulated run and "
                  "per store-entry piece or hit)");
    for (Experiment *exp : registry.all())
        exp->addOptions(cli);
    cli.parse(argc, argv);

    // positional[0] is the "run" subcommand itself.
    std::vector<std::string> globs(cli.positional().begin() + 1,
                                   cli.positional().end());
    if (globs.empty())
        fatal("radcrit_suite run: no experiment globs given "
              "(try 'run all' or see 'radcrit_suite list')");

    std::map<std::string, Experiment *> picked;
    for (const std::string &glob : globs) {
        std::string pattern = glob == "all" ? "*" : glob;
        std::vector<Experiment *> matches =
            registry.match(pattern);
        if (matches.empty())
            fatal("no experiment matches '%s' "
                  "(see 'radcrit_suite list')",
                  glob.c_str());
        for (Experiment *exp : matches)
            picked.emplace(exp->info().name, exp);
    }
    std::vector<Experiment *> selected;
    for (Experiment *exp : registry.all())
        if (picked.count(exp->info().name))
            selected.push_back(exp);

    int64_t jobs_option = cli.getInt("jobs");
    if (jobs_option < 0)
        fatal("--jobs must be >= 0 (got %lld)",
              static_cast<long long>(jobs_option));
    unsigned jobs =
        WorkerPool::resolveJobs(static_cast<unsigned>(jobs_option));
    std::unique_ptr<ChaosEngine> chaos_engine =
        installChaosOption(cli);
    std::unique_ptr<CampaignStore> store;
    std::string cache_dir = cli.getString("cache");
    if (!cache_dir.empty())
        store = CampaignStore::open(cache_dir);

    SuiteContext::Options options;
    options.outDir = resolveOutputDir(cli.getString("out"));
    options.jobs = jobs;
    options.writeCsv = !cli.getFlag("no-csv");
    options.runsOverride = cli.getInt("runs");
    options.progress = cli.getFlag("progress");
    WorkerPool pool(jobs);
    SuiteContext ctx(options, store.get(), pool);
    ctx.setCli(&cli);

    std::printf("radcrit_suite: %zu experiment(s), jobs=%u, "
                "cache=%s\n",
                selected.size(), jobs,
                store ? cache_dir.c_str() : "off");

    // The prepass flight recorder: worker-lane spans per simulated
    // run and per store-entry piece or store hit; campaign, run or
    // piece, and source land in the span args.
    std::unique_ptr<Timeline> tl;
    if (!cli.getString("timeline").empty()) {
        tl = std::make_unique<Timeline>();
        setTimeline(tl.get());
    }

    uint64_t suite_start = nowNs();
    ScheduleStats sched = scheduleCampaigns(selected, ctx);
    std::printf("[suite] campaigns: %llu requested, %llu distinct, "
                "%llu simulated, %llu from store (%.2f s)\n",
                static_cast<unsigned long long>(sched.requested),
                static_cast<unsigned long long>(sched.distinct),
                static_cast<unsigned long long>(sched.simulated),
                static_cast<unsigned long long>(sched.storeHits),
                static_cast<double>(sched.wallNs) / 1e9);
    std::printf("[suite] prepass: peak %llu concurrent "
                "campaign(s), %.2f s wall, %.2f s overlapped\n",
                static_cast<unsigned long long>(sched.concurrentPeak),
                static_cast<double>(sched.prepassWallNs) / 1e9,
                static_cast<double>(sched.overlapNs) / 1e9);
    if (tl) {
        setTimeline(nullptr);
        tl->writeJsonFile(cli.getString("timeline"));
        std::printf("[timeline] %s\n",
                    cli.getString("timeline").c_str());
    }

    std::vector<ExperimentBlock> blocks;
    blocks.reserve(selected.size());
    for (Experiment *exp : selected) {
        const ExperimentInfo &info = exp->info();
        std::printf("\n=== %s [%s] ===\n", info.name.c_str(),
                    info.tag.c_str());
        ExperimentBlock block{exp, {}};
        ctx.setRecorder(&block.rec);
        uint64_t start = nowNs();
        exp->run(ctx);
        block.rec.wallNs = nowNs() - start;
        ctx.setRecorder(nullptr);
        blocks.push_back(block);
    }
    uint64_t suite_wall_ns = nowNs() - suite_start;

    std::string json_path = cli.getString("json");
    if (json_path.empty())
        json_path = ctx.outputDir() + "/radcrit_suite.json";
    std::printf("\n");
    writeSuiteJson(ctx, json_path, blocks, sched, suite_wall_ns);
    if (chaos_engine)
        setChaos(nullptr);
    return 0;
}

} // namespace

void
printCatalog(std::ostream &os, bool json)
{
    if (json)
        writeCatalogJson(os);
    else
        writeCatalogHuman(os);
    os << "\n";
}

int
suiteMain(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: radcrit_suite list [--json]\n"
                     "       radcrit_suite run <glob>... "
                     "[options]  (try 'run all --help')\n");
        return 1;
    }
    std::string command = argv[1];
    if (command == "list") {
        bool json = false;
        for (int i = 2; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--json"))
                json = true;
            else
                fatal("radcrit_suite list: unknown argument '%s'",
                      argv[i]);
        }
        printCatalog(std::cout, json);
        return 0;
    }
    if (command == "run")
        return runSuite(argc, argv);
    fatal("radcrit_suite: unknown command '%s' "
          "(expected 'list' or 'run')",
          command.c_str());
    return 1;
}

} // namespace radcrit
