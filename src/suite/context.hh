/**
 * @file
 * SuiteContext: the explicit state threaded through experiments.
 *
 * A context owns the output directory policy (--out /
 * RADCRIT_BENCH_OUT / bench_out), points at the campaign store
 * (null = cache off) and the shared WorkerPool, tallies the
 * campaigns each experiment consumes into a BenchRecorder, and
 * serves them from the scheduler's dedup plan. Every campaign an
 * experiment consumes must be one it declared: the context never
 * simulates or loads one itself, and an undeclared consume is a
 * panic. One context serves a whole suite invocation; the driver
 * swaps the active recorder per experiment so the suite JSON can
 * attribute the traffic.
 */

#ifndef RADCRIT_SUITE_CONTEXT_HH
#define RADCRIT_SUITE_CONTEXT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/store.hh"
#include "exec/pool.hh"
#include "suite/spec.hh"

namespace radcrit
{

class CliParser;
class Experiment;

/**
 * Tally of the campaigns one experiment consumed, feeding the suite
 * JSON. Simulation work is not counted here: the prepass reports it
 * once for the whole suite.
 */
struct BenchRecorder
{
    uint64_t campaigns = 0;
    uint64_t runs = 0;
    /** Wall ns of the experiment's run() (set by the driver). */
    uint64_t wallNs = 0;

    void
    addCampaign(uint64_t campaign_runs)
    {
        ++campaigns;
        runs += campaign_runs;
    }

    /** @return wall nanoseconds per consumed faulty run. */
    double
    nsPerOp() const
    {
        return runs == 0
            ? 0.0
            : static_cast<double>(wallNs) /
                static_cast<double>(runs);
    }

    /** @return consumed faulty runs per second. */
    double
    runsPerSecond() const
    {
        return wallNs == 0
            ? 0.0
            : static_cast<double>(runs) * 1e9 /
                static_cast<double>(wallNs);
    }
};

/**
 * Resolve the suite output directory: an explicit CLI value
 * wins, then the RADCRIT_BENCH_OUT environment variable, then the
 * historical "bench_out" default.
 */
std::string resolveOutputDir(const std::string &cli_value);

/**
 * The explicit context one experiment invocation runs against.
 * Not copyable: it holds the authoritative work tallies.
 */
class SuiteContext
{
  public:
    struct Options
    {
        /** Output directory (resolveOutputDir() result). */
        std::string outDir = "bench_out";
        /** Resolved worker count (never 0). */
        unsigned jobs = 1;
        /** Write CSV side-outputs (false under --no-csv). */
        bool writeCsv = true;
        /** --runs override; < 0 = per-experiment default. */
        int64_t runsOverride = -1;
        /** Report campaign-granular prepass progress
         * (--progress). */
        bool progress = false;
    };

    /**
     * @param options Invocation options.
     * @param store Campaign store, or null (cache off). Not owned.
     * @param pool Shared worker pool; outlives the context.
     */
    SuiteContext(const Options &options, CampaignStore *store,
                 WorkerPool &pool);

    SuiteContext(const SuiteContext &) = delete;
    SuiteContext &operator=(const SuiteContext &) = delete;

    /**
     * @return the output directory for CSV/JSON/PPM side files,
     * created on first use (a failure warns once and the callers'
     * file opens fail individually, as before).
     */
    const std::string &outputDir();

    /** @return resolved worker thread count. */
    unsigned jobs() const { return options_.jobs; }

    /** @return whether CSV side-outputs are wanted. */
    bool writeCsv() const { return options_.writeCsv; }

    /**
     * Write `rows` under `header` to the output directory's file
     * `name` and announce its path, unless CSV side-outputs are off.
     */
    void writeCsv(const std::string &name,
                  const std::vector<std::string> &header,
                  const std::vector<std::vector<std::string>> &rows);

    /** @return whether prepass progress lines are wanted. */
    bool progress() const { return options_.progress; }

    /** @return the run count for an experiment (--runs override
     * or the experiment's default). */
    uint64_t runsFor(const Experiment &experiment) const;

    /** @return the campaign store (null = cache off). */
    CampaignStore *store() const { return store_; }

    /** @return the shared worker pool. */
    WorkerPool &pool() { return pool_; }

    /**
     * Point work attribution at `recorder` (the suite driver's
     * per-experiment block), or back at the context's own recorder
     * when null.
     */
    void setRecorder(BenchRecorder *recorder);

    /** @return the parsed CLI (null when none was installed). */
    const CliParser *cli() const { return cli_; }

    /** Install the parsed CLI for option access from run(). */
    void setCli(const CliParser *cli) { cli_ = cli; }

    /**
     * The campaign front door for experiments: the raw canonical
     * campaign for (device, spec, runs) with the seed derived from
     * the labels, served from the suite scheduler's plan and
     * tallied into the active recorder. Panics, naming the
     * campaign, when no selected experiment declared it. The
     * reference lives as long as the context.
     */
    const CampaignRaw &campaignRaw(const DeviceModel &device,
                                   const WorkloadSpec &spec,
                                   uint64_t runs);

    /**
     * campaignRaw()'s campaign under default analysis: the plan
     * entry's precomputed analysis when it has one.
     */
    CampaignResult campaignResult(const DeviceModel &device,
                                  const WorkloadSpec &spec,
                                  uint64_t runs);

    /** One pre-simulated campaign in the scheduler's plan. */
    struct PlannedCampaign
    {
        CampaignRaw raw;
        /**
         * Default-config analysis precomputed by the prepass on
         * the worker that simulated or loaded the campaign (in
         * run order, so it is identical to a fresh
         * analyzeCampaign()). Absent when a trace/timeline side
         * channel was armed; campaignResult() then analyzes on
         * demand.
         */
        std::optional<CampaignResult> defaultAnalysis;
    };

    /** @return the plan entry for the key, or null. */
    const PlannedCampaign *planned(const std::string &key) const;

    /** Insert a plan entry (scheduler prepass only). */
    void addPlanned(const std::string &key, PlannedCampaign entry);

    /** @return campaigns served from the in-memory plan. */
    uint64_t memoryServes() const { return memoryServes_; }

  private:
    /** @return the plan entry of a consumed campaign, tallied. */
    const PlannedCampaign &serve(const DeviceModel &device,
                                 const WorkloadSpec &spec,
                                 uint64_t runs);

    Options options_;
    CampaignStore *store_;
    WorkerPool &pool_;
    BenchRecorder ownRecorder_;
    BenchRecorder *recorder_;
    const CliParser *cli_ = nullptr;
    std::map<std::string, PlannedCampaign> plan_;
    uint64_t memoryServes_ = 0;
    bool outDirReady_ = false;
};

} // namespace radcrit

#endif // RADCRIT_SUITE_CONTEXT_HH
