/**
 * @file
 * Campaign runner: the Monte-Carlo stand-in for a beam test
 * campaign, split along the paper's simulate/analyze seam.
 *
 * simulateCampaign() samples strikes over a (device, workload)
 * pair, classifies the program-level outcome of each, and replays
 * the faulty executions through the real kernel, producing a
 * CampaignRaw — strikes, outcomes, and raw mismatch records, the
 * in-memory form of a beam log. analyzeCampaign() is the pure
 * second half: it recomputes the paper's criticality metrics,
 * tolerance filter, locality classes, and relative-FIT breakdowns
 * from the records alone, so re-analysis under a new threshold
 * never touches a kernel. runCampaign() is the composition for
 * callers that want both in one step.
 */

#ifndef RADCRIT_CAMPAIGN_RUNNER_HH
#define RADCRIT_CAMPAIGN_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/config.hh"
#include "campaign/raw.hh"
#include "campaign/stream.hh"
#include "exec/launch.hh"
#include "exec/pool.hh"
#include "metrics/criticality.hh"
#include "obs/stats_registry.hh"
#include "obs/timer.hh"
#include "sim/fault.hh"
#include "sim/sampler.hh"
#include "sim/workload.hh"

namespace radcrit
{

/**
 * One simulated strike and its analyzed consequences.
 */
struct RunRecord
{
    /** Index of this run within its campaign. */
    uint64_t index = 0;
    Strike strike;
    Outcome outcome = Outcome::Masked;
    /** Metrics; meaningful only when outcome == Sdc. */
    CriticalityReport crit;
};

/**
 * Aggregated results of one campaign.
 */
struct CampaignResult
{
    std::string deviceName;
    std::string workloadName;
    std::string inputLabel;
    CampaignConfig config;
    KernelLaunch launch;
    /** Total sensitive area of the launch (a.u.). */
    double sensitiveAreaAu = 0.0;
    std::vector<RunRecord> runs;
    /**
     * Telemetry recorded for this campaign: the outcome counters
     * under "campaign.<device>.<workload>.*" plus the phase timers
     * ("campaign.phase.{sample,classify,replay,metrics}") and
     * kernel timers that advanced while it ran (a diff of the
     * global registry, so concurrent campaigns in one process stay
     * separable). When the raw campaign came from the store instead
     * of a simulation, the sim-side share is the rebuilt counters
     * (see rebuildSimStats()).
     */
    StatsSnapshot stats;

    /** @return number of runs with the given outcome. */
    uint64_t count(Outcome outcome) const;

    /**
     * @return SDC : (crash + hang) ratio (paper Section V), or NaN
     * when no crash or hang was observed (the ratio is undefined;
     * tables render it as "n/a").
     */
    double sdcOverDetectable() const;

    /**
     * Relative FIT (a.u.) for a class of events observed
     * event_count times out of faultyRuns strikes.
     */
    double fitAu(uint64_t event_count) const;

    /** @return total SDC FIT; filtered drops sub-threshold runs. */
    double fitTotalAu(bool filtered) const;

    /**
     * FIT broken down by spatial pattern. When filtered is true,
     * patterns are re-classified on surviving elements and fully
     * filtered executions are dropped (paper Figs. 3, 5, 7).
     */
    FitBreakdown fitByPattern(bool filtered) const;

    /** @return fraction of SDC runs removed by the filter. */
    double filteredOutFraction() const;
};

/**
 * One worker's private simulation telemetry: the three phase timers
 * its runs tick and, in the same registry, the "resilience.retries"
 * count of the runs that needed more than one attempt. Workers
 * never contend on shared instruments; the campaign runner and the
 * suite prepass keep one shard per worker and merge them in worker
 * order after the dispatch.
 */
struct RunShard
{
    StatsRegistry reg;
    PhaseTimer sample{reg, "campaign.phase.sample"};
    PhaseTimer classify{reg, "campaign.phase.classify"};
    PhaseTimer replay{reg, "campaign.phase.replay"};
};

/** One run as the guarded executor left it. */
struct GuardedRun
{
    /** The simulated run, or its infra quarantine record. */
    RawRun run;
    GuardReport guard;
};

/**
 * Execute run `index` of a campaign under its resilience policy:
 * every attempt passes the chaos hook, draws from
 * runRng(config, index) and calls simulateRun(); a run that fails
 * its whole attempt budget is quarantined as an InfraError or
 * InfraTimeout outcome (with a warning) instead of killing its
 * siblings. The run's wallNs covers every attempt. Phase ticks and
 * retries land in `shard`. The one run body of both the campaign
 * runner and the suite prepass: run i depends only on the index,
 * never on which worker executes it.
 */
GuardedRun simulateGuardedRun(const StrikeSampler &sampler,
                              Workload &workload,
                              const SimConfig &config,
                              uint64_t index, RunShard &shard);

/**
 * Simulate one campaign as a stream: the core engine. Executes
 * every strike (kernel replays included) and delivers the raw
 * records to `sink` in contiguous, index-ordered batches of
 * config.batchRuns runs (0 = one batch spanning the campaign), so
 * a streaming sink bounds peak memory at one batch while analysis
 * and persistence overlap the remaining simulation. Checkpoint,
 * resume, retry, watchdog, chaos, and progress behave exactly as
 * in the materialized path — for any batch size and job count the
 * delivered runs, telemetry snapshot, and informs are
 * bit-identical.
 */
void simulateCampaignStream(const DeviceModel &device,
                            Workload &workload,
                            const SimConfig &config,
                            RawSink &sink);

/**
 * Overload running on a caller-supplied pool (config.jobs is
 * ignored; the pool's resolved worker count applies).
 */
void simulateCampaignStream(const DeviceModel &device,
                            Workload &workload,
                            const SimConfig &config,
                            WorkerPool &pool, RawSink &sink);

/**
 * Simulate one campaign materialized: the expensive half. A thin
 * adapter over simulateCampaignStream() into a CollectRawSink —
 * executes every strike (kernel replays included) and returns the
 * raw records with no analysis applied.
 *
 * @param device Device model.
 * @param workload Workload bound to the same device.
 * @param config Simulation parameters.
 */
CampaignRaw simulateCampaign(const DeviceModel &device,
                             Workload &workload,
                             const SimConfig &config);

/**
 * Overload running the campaign's strikes on a caller-supplied
 * pool instead of constructing one per campaign, so a sequence of
 * campaigns (the suite scheduler) reuses one set of persistent
 * worker threads. config.jobs is ignored; the pool's resolved
 * worker count applies. Results are bit-identical to the
 * own-pool overload at the same effective job count.
 */
CampaignRaw simulateCampaign(const DeviceModel &device,
                             Workload &workload,
                             const SimConfig &config,
                             WorkerPool &pool);

/**
 * Analyze a raw campaign: the cheap, re-runnable half. Pure in its
 * result — the returned CampaignResult depends only on (raw,
 * config), never on execution order or prior analyses — though it
 * does publish telemetry (the "campaign.phase.metrics" timer and
 * the ".filtered" counter) and, when a trace sink is installed,
 * emits one strike-trace record per run in index order.
 */
CampaignResult analyzeCampaign(const CampaignRaw &raw,
                               const AnalysisConfig &config);

/**
 * Run one campaign end to end:
 * analyzeCampaign(simulateCampaign(device, workload, config.sim),
 * config.analysis).
 */
CampaignResult runCampaign(const DeviceModel &device,
                           Workload &workload,
                           const CampaignConfig &config);

} // namespace radcrit

#endif // RADCRIT_CAMPAIGN_RUNNER_HH
