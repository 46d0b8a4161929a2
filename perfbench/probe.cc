/**
 * @file
 * perfbench_probe: the traced half of the radcrit benchmark.
 *
 * perfbench/run.py measures end-to-end metrics by driving the user
 * surfaces (radcrit_cli, radcrit_suite) as subprocesses. This probe
 * runs the same commands in-process: radcrit_cli's main is compiled
 * into it as radcrit_cli_main (see CMakeLists.txt) and the suite's
 * suiteMain is a library entry point. The benchmark build links the
 * probe with `-Wl,--wrap=<symbol>` for the public functions below,
 * so every call the program makes to them from another translation
 * unit lands in a __wrap_ function here, which records a span
 * (spans.hh) and forwards to __real_:
 *
 *   kernels.setup         make*Workload; the workload it returns is
 *                         wrapped in TracedWorkload, which records
 *   kernels.replay        Workload::inject, tagged with the kernel
 *                         and the strike's manifestation
 *   exec.dispatch         simulateCampaign (the radcrit_cli overload),
 *                         the engine's pool dispatch
 *   engine.simulateRun    simulateRun, one per run, on pool workers
 *   store.simulateOrLoad  simulateOrLoad: store lookup, simulation on
 *                         a miss, then the store save
 *   logs.write            writeBeamLogFile (the store's save)
 *   logs.parse            readBeamLogFile (analyze --log) and
 *                         tryReadBeamLogFile (the store's load)
 *   analysis              analyzeCampaign
 *   suite.prepass         scheduleCampaigns
 *
 * Three more span kinds re-drive calls the program makes internally,
 * so their per-call cost gets spans of its own: sim.sample and
 * sim.classify (StrikeSampler::sampleStrike/sampleOutcome on
 * runRng(config, k), checked against what simulateRun drew) after
 * each simulated campaign, and metrics.filter / metrics.locality
 * (RelativeErrorFilter::apply / classifyLocality per SDC record)
 * after each analysis. Nothing under src/ is instrumented.
 *
 * A plan file lists the commands, one a line, fields separated by
 * tabs:
 *
 *   cli <label> <radcrit_cli argument>...
 *   suite <radcrit_suite argument>...
 *
 * where `{out}` in an argument stands for the pass's output
 * directory. `trace` runs the plan twice, untraced (recording off,
 * which gives the untraced wall) and traced, and writes the traced
 * pass's spans as a Chrome trace. `setup` runs it once untraced and
 * reports the time spent in make*Workload.
 *
 *   perfbench_probe setup --plan=<file> --out=<dir>
 *   perfbench_probe trace --plan=<file> --out=<dir> --trace=<file>
 *
 * The last stdout line is one JSON object summarizing the passes.
 */

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/engine.hh"
#include "campaign/paperconfigs.hh"
#include "campaign/raw.hh"
#include "campaign/runner.hh"
#include "campaign/store.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "exec/pool.hh"
#include "logs/beamlog.hh"
#include "metrics/filter.hh"
#include "metrics/locality.hh"
#include "obs/stats_registry.hh"
#include "sim/sampler.hh"
#include "suite/driver.hh"
#include "suite/scheduler.hh"

#include "spans.hh"

using namespace radcrit;
using perfbench::ScopedSpan;

/** radcrit_cli's main, renamed by the benchmark build. */
int radcrit_cli_main(int argc, char **argv);

// ---------------------------------------------------------------
// Link-time wrappers. The symbol names come from CMakeLists.txt,
// which passes the matching -Wl,--wrap options.

#define PERFBENCH_REAL(sym) __asm__("__real_" sym)
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

#define PERFBENCH_DECLARE(ret, name, sym, ...)                        \
    ret real##name(__VA_ARGS__) PERFBENCH_REAL(sym);                 \
    ret wrap##name(__VA_ARGS__) PERFBENCH_WRAP(sym);

PERFBENCH_DECLARE(std::unique_ptr<Workload>, MakeDgemm,
                  PERFBENCH_SYM_MAKE_DGEMM, const DeviceModel &,
                  int64_t)
PERFBENCH_DECLARE(std::unique_ptr<Workload>, MakeLavamd,
                  PERFBENCH_SYM_MAKE_LAVAMD, const DeviceModel &,
                  const LavaMdSize &)
PERFBENCH_DECLARE(std::unique_ptr<Workload>, MakeHotspot,
                  PERFBENCH_SYM_MAKE_HOTSPOT, const DeviceModel &)
PERFBENCH_DECLARE(std::unique_ptr<Workload>, MakeClamr,
                  PERFBENCH_SYM_MAKE_CLAMR, const DeviceModel &)
PERFBENCH_DECLARE(ScheduleStats, ScheduleCampaigns,
                  PERFBENCH_SYM_SCHEDULE,
                  const std::vector<Experiment *> &, SuiteContext &)
PERFBENCH_DECLARE(RawRun, SimulateRun, PERFBENCH_SYM_SIMULATE_RUN,
                  const StrikeSampler &, Workload &,
                  const SimConfig &, uint64_t, Rng &,
                  const RunPhaseTimers &)
PERFBENCH_DECLARE(CampaignRaw, SimulateCampaign,
                  PERFBENCH_SYM_SIMULATE_CAMPAIGN, const DeviceModel &,
                  Workload &, const SimConfig &)
PERFBENCH_DECLARE(CampaignRaw, SimulateOrLoad,
                  PERFBENCH_SYM_SIMULATE_OR_LOAD, const DeviceModel &,
                  Workload &, const SimConfig &, CampaignStore *,
                  WorkerPool *)
PERFBENCH_DECLARE(void, WriteBeamLogFile, PERFBENCH_SYM_WRITE_LOG,
                  const CampaignRaw &, const std::string &)
PERFBENCH_DECLARE(CampaignRaw, ReadBeamLogFile, PERFBENCH_SYM_READ_LOG,
                  const std::string &)
PERFBENCH_DECLARE(std::optional<CampaignRaw>, TryReadBeamLogFile,
                  PERFBENCH_SYM_TRY_READ_LOG, const std::string &,
                  std::string *)
PERFBENCH_DECLARE(CampaignResult, AnalyzeCampaign,
                  PERFBENCH_SYM_ANALYZE, const CampaignRaw &,
                  const AnalysisConfig &)

namespace
{

/** Total make*Workload time, traced or not. */
std::atomic<uint64_t> gSetupNs{0};
/** Re-driven runs that differ from what simulateRun drew. */
std::atomic<uint64_t> gRedriveMismatches{0};
/** Beam logs read back by path (analyze --log) while tracing. */
std::atomic<uint64_t> gEntriesRead{0};
/** Folded into by the metrics re-drive so it is not optimized out. */
std::atomic<uint64_t> gMetricsSink{0};

/**
 * Workload decorator that records a kernels.replay span around each
 * inject(), tagged with the kernel and the strike's manifestation;
 * value 1 marks a replay that produced a mismatch record (yield).
 */
class TracedWorkload : public Workload
{
  public:
    explicit TracedWorkload(std::unique_ptr<Workload> inner)
        : inner_(std::move(inner))
    {
    }

    std::unique_ptr<Workload> clone() const override
    {
        return std::make_unique<TracedWorkload>(inner_->clone());
    }

    const std::string &name() const override { return inner_->name(); }

    std::string inputLabel() const override
    {
        return inner_->inputLabel();
    }

    const WorkloadTraits &traits() const override
    {
        return inner_->traits();
    }

    SdcRecord inject(const Strike &strike, Rng &rng) override
    {
        ScopedSpan span("kernels.replay");
        span.span().kernel = inner_->name();
        span.span().manifestation =
            manifestationName(strike.manifestation);
        SdcRecord record = inner_->inject(strike, rng);
        span.span().value = record.empty() ? 0 : 1;
        span.span().elements = record.numIncorrect();
        return record;
    }

    SdcRecord emptyRecord() const override
    {
        return inner_->emptyRecord();
    }

  private:
    std::unique_ptr<Workload> inner_;
};

template <typename Make>
std::unique_ptr<Workload>
tracedSetup(const char *kernel, Make &&make)
{
    std::unique_ptr<Workload> w;
    {
        ScopedSpan span("kernels.setup");
        span.span().kernel = kernel;
        uint64_t start = perfbench::nowNs();
        w = make();
        gSetupNs += perfbench::nowNs() - start;
    }
    return std::make_unique<TracedWorkload>(std::move(w));
}

uint64_t
elementsOf(const CampaignRaw &raw)
{
    uint64_t n = 0;
    for (const RawRun &run : raw.runs)
        n += run.record.numIncorrect();
    return n;
}

uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    uintmax_t bytes = std::filesystem::file_size(path, ec);
    return ec ? 0 : bytes;
}

/**
 * Re-drive sampling and classification of every run of a simulated
 * campaign on its own stream; they must reproduce what simulateRun
 * drew (an SDC that replayed to no mismatch is reported Masked).
 */
void
redriveSampler(const DeviceModel &device, const SimConfig &config,
               const CampaignRaw &raw)
{
    StrikeSampler sampler(device, raw.launch);
    for (const RawRun &run : raw.runs) {
        Rng rng = runRng(config, run.index);
        Strike strike;
        Outcome outcome = Outcome::Masked;
        {
            ScopedSpan span("sim.sample");
            strike = sampler.sampleStrike(rng);
        }
        {
            ScopedSpan span("sim.classify");
            outcome = sampler.sampleOutcome(strike.resource, rng);
        }
        bool same_outcome =
            outcome == run.outcome ||
            (outcome == Outcome::Sdc && run.outcome == Outcome::Masked);
        if (strike.manifestation != run.strike.manifestation ||
            strike.timeFraction != run.strike.timeFraction ||
            !same_outcome)
            ++gRedriveMismatches;
    }
}

} // anonymous namespace

std::unique_ptr<Workload>
wrapMakeDgemm(const DeviceModel &device, int64_t side)
{
    return tracedSetup("DGEMM",
                       [&] { return realMakeDgemm(device, side); });
}

std::unique_ptr<Workload>
wrapMakeLavamd(const DeviceModel &device, const LavaMdSize &size)
{
    return tracedSetup("LavaMD",
                       [&] { return realMakeLavamd(device, size); });
}

std::unique_ptr<Workload>
wrapMakeHotspot(const DeviceModel &device)
{
    return tracedSetup("HotSpot",
                       [&] { return realMakeHotspot(device); });
}

std::unique_ptr<Workload>
wrapMakeClamr(const DeviceModel &device)
{
    return tracedSetup("CLAMR",
                       [&] { return realMakeClamr(device); });
}

ScheduleStats
wrapScheduleCampaigns(const std::vector<Experiment *> &experiments,
                      SuiteContext &ctx)
{
    ScopedSpan span("suite.prepass");
    return realScheduleCampaigns(experiments, ctx);
}

RawRun
wrapSimulateRun(const StrikeSampler &sampler, Workload &workload,
                const SimConfig &config, uint64_t run_index, Rng &rng,
                const RunPhaseTimers &timers)
{
    ScopedSpan span("engine.simulateRun");
    return realSimulateRun(sampler, workload, config, run_index, rng,
                           timers);
}

/**
 * The pool dispatch of one campaign, tagged with its worker count.
 * The engine builds the pool, so its worker threads take the
 * dispatch span as parent through a WorkerContext.
 */
CampaignRaw
wrapSimulateCampaign(const DeviceModel &device, Workload &workload,
                     const SimConfig &config)
{
    CampaignRaw raw;
    {
        ScopedSpan span("exec.dispatch");
        span.span().value = WorkerPool::resolveJobs(config.jobs);
        perfbench::WorkerContext context(span.id(),
                                         span.span().campaign);
        raw = realSimulateCampaign(device, workload, config);
    }
    if (perfbench::enabled())
        redriveSampler(device, config, raw);
    return raw;
}

CampaignRaw
wrapSimulateOrLoad(const DeviceModel &device, Workload &workload,
                   const SimConfig &config, CampaignStore *store,
                   WorkerPool *pool)
{
    ScopedSpan span("store.simulateOrLoad");
    return realSimulateOrLoad(device, workload, config, store, pool);
}

void
wrapWriteBeamLogFile(const CampaignRaw &raw, const std::string &path)
{
    ScopedSpan span("logs.write");
    realWriteBeamLogFile(raw, path);
    if (perfbench::enabled()) {
        span.span().value = fileBytes(path);
        span.span().elements = elementsOf(raw);
    }
}

CampaignRaw
wrapReadBeamLogFile(const std::string &path)
{
    ScopedSpan span("logs.parse");
    CampaignRaw raw = realReadBeamLogFile(path);
    if (perfbench::enabled()) {
        span.span().value = fileBytes(path);
        span.span().elements = elementsOf(raw);
        ++gEntriesRead;
    }
    return raw;
}

std::optional<CampaignRaw>
wrapTryReadBeamLogFile(const std::string &path, std::string *error)
{
    ScopedSpan span("logs.parse");
    std::optional<CampaignRaw> raw = realTryReadBeamLogFile(path, error);
    if (raw && perfbench::enabled()) {
        span.span().value = fileBytes(path);
        span.span().elements = elementsOf(*raw);
    }
    return raw;
}

CampaignResult
wrapAnalyzeCampaign(const CampaignRaw &raw, const AnalysisConfig &config)
{
    CampaignResult res;
    {
        ScopedSpan span("analysis");
        res = realAnalyzeCampaign(raw, config);
        span.span().value = raw.runs.size();
        span.span().elements = elementsOf(raw);
    }
    if (!perfbench::enabled())
        return res;
    RelativeErrorFilter filter(config.filterThresholdPct);
    for (const RawRun &run : raw.runs) {
        if (run.outcome != Outcome::Sdc)
            continue;
        {
            ScopedSpan span("metrics.filter");
            span.span().elements = run.record.numIncorrect();
            gMetricsSink += filter.apply(run.record).numIncorrect();
        }
        {
            ScopedSpan span("metrics.locality");
            span.span().elements = run.record.numIncorrect();
            gMetricsSink += static_cast<uint64_t>(
                classifyLocality(run.record, config.locality));
        }
    }
    return res;
}

namespace
{

/** One plan line: which program, a label, its arguments. */
struct Command
{
    bool suite = false;
    std::string label;
    std::vector<std::string> args;
};

std::vector<Command>
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open plan '%s'", path.c_str());
    std::vector<Command> plan;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        // Tab-separated, so arguments may hold spaces (paths).
        std::vector<std::string> fields;
        std::istringstream is(line);
        for (std::string field; std::getline(is, field, '\t');)
            fields.push_back(field);
        Command cmd;
        cmd.suite = fields[0] == "suite";
        size_t first_arg = cmd.suite ? 1 : 2;
        if ((fields[0] != "cli" && !cmd.suite) ||
            fields.size() < first_arg)
            fatal("bad plan line: '%s'", line.c_str());
        cmd.label = cmd.suite ? "suite" : fields[1];
        cmd.args.assign(fields.begin() + first_arg, fields.end());
        plan.push_back(cmd);
    }
    return plan;
}

/** @return `arg` with every `{out}` replaced by `out`. */
std::string
substituteOut(std::string arg, const std::string &out)
{
    const std::string key = "{out}";
    for (size_t at = arg.find(key); at != std::string::npos;
         at = arg.find(key, at + out.size()))
        arg.replace(at, key.size(), out);
    return arg;
}

/** Run one command through the program's own main. */
void
runCommand(const Command &cmd, uint64_t campaign_id,
           const std::string &out)
{
    std::vector<std::string> args = {cmd.suite ? "radcrit_suite"
                                               : "radcrit_cli"};
    for (const std::string &arg : cmd.args)
        args.push_back(substituteOut(arg, out));
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);
    int argc = static_cast<int>(args.size());

    int rc;
    if (cmd.suite) {
        ScopedSpan span("suite.run");
        rc = suiteMain(argc, argv.data());
    } else {
        ScopedSpan span("campaign", campaign_id);
        rc = radcrit_cli_main(argc, argv.data());
    }
    std::fflush(stdout);
    if (rc != 0)
        fatal("%s exited with %d", cmd.label.c_str(), rc);
}

/** One pass over the plan; @return its wall in nanoseconds. */
uint64_t
runPass(const std::vector<Command> &plan, const std::string &out)
{
    std::filesystem::create_directories(out);
    uint64_t start = perfbench::nowNs();
    for (size_t i = 0; i < plan.size(); ++i)
        runCommand(plan[i], i + 1, out);
    return perfbench::nowNs() - start;
}

/** The program's store counters, read from its global registry. */
struct StoreCounts
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t quarantined = 0;

    static StoreCounts now()
    {
        StatsRegistry &reg = StatsRegistry::global();
        return {reg.counter("campaign.store.hit").value(),
                reg.counter("campaign.store.miss").value(),
                reg.counter("campaign.store.quarantined").value()};
    }
};

int
setupMain(const std::vector<Command> &plan, const std::string &out)
{
    runPass(plan, out);
    std::printf("{\"setup_s\": %.9f, \"commands\": %zu}\n",
                static_cast<double>(gSetupNs.load()) / 1e9,
                plan.size());
    return 0;
}

int
traceMain(const std::vector<Command> &plan, const std::string &out,
          const std::string &trace_path)
{
    uint64_t untraced_ns = runPass(plan, out + "/untraced");
    StoreCounts untraced_end = StoreCounts::now();

    perfbench::clearSpans();
    perfbench::setEnabled(true);
    uint64_t traced_ns;
    {
        ScopedSpan root("probe.pass");
        traced_ns = runPass(plan, out + "/traced");
    }
    perfbench::setEnabled(false);
    StoreCounts traced_end = StoreCounts::now();

    std::ofstream trace(trace_path);
    if (!trace)
        fatal("cannot open trace file '%s'", trace_path.c_str());
    perfbench::writeChromeTrace(trace);
    trace.close();
    if (!trace)
        fatal("write error on trace file '%s'", trace_path.c_str());

    std::printf(
        "{\"untraced_s\": %.9f, \"traced_s\": %.9f, \"spans\": %llu, "
        "\"redrive_mismatches\": %llu, \"store_hits\": %llu, "
        "\"store_misses\": %llu, \"store_quarantined\": %llu, "
        "\"entries_read\": %llu}\n",
        static_cast<double>(untraced_ns) / 1e9,
        static_cast<double>(traced_ns) / 1e9,
        static_cast<unsigned long long>(perfbench::spanCount()),
        static_cast<unsigned long long>(gRedriveMismatches.load()),
        static_cast<unsigned long long>(traced_end.hits -
                                        untraced_end.hits),
        static_cast<unsigned long long>(traced_end.misses -
                                        untraced_end.misses),
        static_cast<unsigned long long>(traced_end.quarantined),
        static_cast<unsigned long long>(gEntriesRead.load()));
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliParser cli("perfbench_probe");
    cli.addString("plan", "", "command plan file");
    cli.addString("out", "", "directory for the passes' outputs");
    cli.addString("trace", "", "Chrome trace-event output path "
                               "(trace mode)");
    cli.parse(argc, argv);
    bool setup = cli.positional().size() == 1 &&
        cli.positional()[0] == "setup";
    bool trace = cli.positional().size() == 1 &&
        cli.positional()[0] == "trace";
    if ((!setup && !trace) || cli.getString("plan").empty() ||
        cli.getString("out").empty() ||
        (trace && cli.getString("trace").empty()))
        fatal("usage: perfbench_probe setup --plan=<file> --out=<dir> | "
              "trace --plan=<file> --out=<dir> --trace=<file>");
    std::vector<Command> plan = readPlan(cli.getString("plan"));
    if (setup)
        return setupMain(plan, cli.getString("out"));
    return traceMain(plan, cli.getString("out"), cli.getString("trace"));
}
