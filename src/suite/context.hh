/**
 * @file
 * SuiteContext: the explicit state threaded through experiments,
 * replacing the process-wide mutable singletons the old
 * bench_util.hh header kept (benchRecorder(), benchStore(), the
 * hard-coded bench_out directory).
 *
 * A context owns the output directory policy (--out /
 * RADCRIT_BENCH_OUT / bench_out), points at the campaign store
 * (null = cache off) and the shared WorkerPool, tracks work into a
 * BenchRecorder, and serves raw campaigns: from the scheduler's
 * dedup plan when the suite prepass ran, through the store-aware
 * simulateOrLoad() otherwise. One context serves a whole suite
 * invocation; the driver swaps the active recorder per experiment
 * so the suite JSON can attribute work.
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
 * Tally of campaign work done on behalf of one experiment (or one
 * whole shim process), feeding the machine-readable results
 * emitters.
 */
struct BenchRecorder
{
    uint64_t campaigns = 0;
    uint64_t runs = 0;
    uint64_t wallNs = 0;
    /** Worker threads per campaign (resolved, so never 0). */
    unsigned jobs = 1;
    /** Campaigns served from cache (store or suite plan). */
    uint64_t cacheHits = 0;
    /**
     * Campaigns simulated (cache off, entry absent, or mismatch);
     * cacheHits + cacheMisses == campaigns always.
     */
    uint64_t cacheMisses = 0;

    void
    addCampaign(uint64_t campaign_runs, uint64_t campaign_ns,
                bool cached)
    {
        ++campaigns;
        runs += campaign_runs;
        wallNs += campaign_ns;
        if (cached)
            ++cacheHits;
        else
            ++cacheMisses;
    }

    /** @return wall nanoseconds per simulated faulty run. */
    double
    nsPerOp() const
    {
        return runs == 0
            ? 0.0
            : static_cast<double>(wallNs) /
                static_cast<double>(runs);
    }

    /** @return simulated faulty runs per second. */
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
 * Resolve the bench/suite output directory: an explicit CLI value
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

    /** @return whether prepass progress lines are wanted. */
    bool progress() const { return options_.progress; }

    /** @return the run count for an experiment (--runs override
     * or the experiment's default). */
    uint64_t runsFor(const Experiment &experiment) const;

    /** @return the campaign store (null = cache off). */
    CampaignStore *store() const { return store_; }

    /** @return the shared worker pool. */
    WorkerPool &pool() { return pool_; }

    /** @return the recorder campaign work is tallied into. */
    BenchRecorder &recorder() { return *recorder_; }

    /**
     * Point work attribution at `recorder` (the suite driver's
     * per-experiment block), or back at the context's own recorder
     * when null.
     */
    void setRecorder(BenchRecorder *recorder);

    /** @return the active CLI (null when rawShimCli bypassed it). */
    const CliParser *cli() const { return cli_; }

    /** Install the parsed CLI for option access from run(). */
    void setCli(const CliParser *cli) { cli_ = cli; }

    /** @return raw shim argv (only for rawShimCli experiments). */
    const std::vector<std::string> &shimArgs() const
    {
        return shimArgs_;
    }

    /** Install raw shim argv. */
    void
    setShimArgs(std::vector<std::string> args)
    {
        shimArgs_ = std::move(args);
    }

    /**
     * The campaign front door for experiments: the raw canonical
     * campaign for (device, spec, runs) with the seed derived
     * from the labels. Served, in order of preference, from the
     * suite scheduler's plan (memory, no workload built), the
     * campaign store, or a fresh simulation on the shared pool;
     * the last two build the workload through buildWorkload().
     * Work and cache traffic are tallied into the active recorder;
     * a plan entry the scheduler simulated charges its simulation
     * cost to the first consumer (reproducing standalone cache
     * semantics).
     */
    CampaignRaw campaignRaw(const DeviceModel &device,
                            const WorkloadSpec &spec, uint64_t runs);

    /** campaignRaw() + analyzeCampaign() under default analysis. */
    CampaignResult campaignResult(const DeviceModel &device,
                                  const WorkloadSpec &spec,
                                  uint64_t runs);

    /** One pre-simulated campaign in the scheduler's plan. */
    struct PlannedCampaign
    {
        CampaignRaw raw;
        /** First experiment that declared it. */
        std::string owner;
        /** Wall ns of the prepass simulate-or-load. */
        uint64_t wallNs = 0;
        /** Simulated by the prepass (false = store hit). */
        bool simulated = false;
        /** Simulation cost already charged to a recorder. */
        bool charged = false;
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

    /** @return undeclared campaigns that had to simulate. */
    uint64_t unplannedMisses() const { return unplannedMisses_; }

    /** @return undeclared campaigns served by the store. */
    uint64_t unplannedHits() const { return unplannedHits_; }

  private:
    Options options_;
    CampaignStore *store_;
    WorkerPool &pool_;
    BenchRecorder ownRecorder_;
    BenchRecorder *recorder_;
    const CliParser *cli_ = nullptr;
    std::vector<std::string> shimArgs_;
    std::map<std::string, PlannedCampaign> plan_;
    uint64_t memoryServes_ = 0;
    uint64_t unplannedMisses_ = 0;
    uint64_t unplannedHits_ = 0;
    bool outDirReady_ = false;
};

} // namespace radcrit

#endif // RADCRIT_SUITE_CONTEXT_HH
