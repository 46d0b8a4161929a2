/**
 * @file
 * Campaign configuration, split along the simulate/analyze seam.
 *
 * A campaign has two independent parameter sets. SimConfig decides
 * what the "beam" does: how many strikes, from which seed, on how
 * many workers. AnalysisConfig decides how the recorded corruption
 * is judged: tolerance filter, locality thresholds, FIT scaling.
 * Everything downstream of simulateCampaign() depends only on
 * AnalysisConfig, so a stored CampaignRaw can be re-analyzed under
 * arbitrary filters without touching a kernel (the paper's "raw
 * beam logs published for third-party re-analysis").
 */

#ifndef RADCRIT_CAMPAIGN_CONFIG_HH
#define RADCRIT_CAMPAIGN_CONFIG_HH

#include <cstdint>
#include <string>

#include "metrics/locality.hh"

namespace radcrit
{

/**
 * Execution-resilience parameters: how the runner reacts to the
 * harness itself failing (a run attempt throwing, overrunning its
 * soft deadline, or the whole process dying mid-campaign). None of
 * these are part of the store cache key: like `jobs`, they change
 * how runs are executed and recovered, never what a successful run
 * computes — a campaign that survives retries or a resume is
 * bit-identical to one that ran clean.
 */
struct ResilienceConfig
{
    /**
     * Total attempts per run before it is quarantined with an
     * infra outcome (1 = fail fast, no retry).
     */
    unsigned maxAttempts = 3;
    /**
     * Soft per-run deadline in nanoseconds; an attempt measured
     * longer counts as a timeout and is retried, and the pool
     * watchdog warns live about runs stuck past it. 0 disables
     * both.
     */
    uint64_t softDeadlineNs = 0;
    /** Backoff before retry k is backoffBaseNs << (k - 1). */
    uint64_t backoffBaseNs = 1'000'000;
    /**
     * Append completed runs to the checkpoint shard after every
     * this many finished runs (1 = every run). Only meaningful
     * when checkpointPath is set.
     */
    uint64_t checkpointEvery = 1;
    /**
     * Path of the checkpoint shard file runs are appended to as
     * they complete. Empty = checkpointing off.
     */
    std::string checkpointPath;
    /**
     * Replay complete runs found in checkpointPath instead of
     * re-simulating them (radcrit_cli --resume). Requires
     * checkpointPath.
     */
    bool resume = false;
};

/**
 * Simulation-side parameters: these (plus device and workload)
 * fully determine the raw campaign, and they are the inputs to the
 * campaign store's cache key.
 */
struct SimConfig
{
    /** Strikes to simulate (each is one potentially-faulty run). */
    uint64_t faultyRuns = 200;
    /** Master seed; identical configs reproduce identically. */
    uint64_t seed = 12345;
    /**
     * Emit an inform() progress line every this many runs (0 =
     * silent). Long campaigns pair this with radcrit_cli
     * --progress. Not part of the cache key: it changes logging,
     * never results.
     */
    uint64_t progressEvery = 0;
    /**
     * Worker threads executing runs (radcrit_cli --jobs /
     * RADCRIT_JOBS). 1 = serial (default), 0 = one per hardware
     * thread, N = exactly N workers. Results are bit-identical for
     * every value: run k always draws from Rng(seed).split(k) and
     * runs land in the result by index (see campaign/engine.hh).
     * Not part of the cache key for the same reason.
     */
    unsigned jobs = 1;
    /**
     * Runs per streamed batch handed to the campaign's RawSink
     * (radcrit_cli --stream uses 4096). 0 = deliver the whole
     * campaign as one batch, which is the materialized behavior.
     * Like jobs, this shapes execution and memory, never results —
     * streamed and single-batch campaigns are bit-identical — so it
     * is not part of the cache key (campaignKeyHash hashes explicit
     * fields, never this struct wholesale).
     */
    uint64_t batchRuns = 0;
    /**
     * Harness failure handling; not part of the cache key (see
     * ResilienceConfig).
     */
    ResilienceConfig resilience;
};

/**
 * Analysis-side parameters: how raw mismatch records are turned
 * into the paper's criticality metrics. Changing any of these only
 * requires re-running analyzeCampaign() over a stored CampaignRaw.
 */
struct AnalysisConfig
{
    /** Relative-error filter threshold in percent (paper: 2). */
    double filterThresholdPct = 2.0;
    /** Locality-classifier thresholds. */
    LocalityParams locality;
    /**
     * Conversion from sensitive-area-weighted event rates to
     * relative FIT in arbitrary units. The same constant is used
     * for every device and code, preserving cross comparisons as in
     * the paper (Section V).
     */
    double fitScaleAu = 5e-6;
};

/**
 * Full campaign parameters: the composition callers hand to
 * runCampaign(), which is simulateCampaign(sim) followed by
 * analyzeCampaign(analysis).
 */
struct CampaignConfig
{
    SimConfig sim;
    AnalysisConfig analysis;
};

} // namespace radcrit

#endif // RADCRIT_CAMPAIGN_CONFIG_HH
