/**
 * @file
 * Suite scheduler: the campaign-dedup prepass.
 *
 * Collects every campaign the selected experiments declare,
 * deduplicates them by (device, workload, input, seed, runs)
 * identity, and simulates each distinct campaign exactly once
 * (through the campaign store when one is armed). Keys and a store
 * hit's launch view come from describeWorkload(), so a campaign's
 * workload — and its golden output — is built only when the
 * campaign is simulated (CLAMR, whose launch traits need its
 * golden run, is built before the prepass clock starts). The raw results
 * land in the context's plan, from which the experiments' pure
 * analyze/render phases are served from memory.
 *
 * The prepass runs as three phases on the shared pool, each
 * dispatched through WorkerPool::forDynamic(), so work is claimed
 * grain by grain across campaign boundaries:
 *
 *  A. store resolution: every store entry is parsed in byte-range
 *     pieces, largest entries first, and each piece's runs are
 *     folded into the default analysis as they parse; the worker
 *     that resolves a miss builds its workload;
 *  B. simulation: every missed campaign's runs share one flat
 *     index space, so small campaigns pack alongside large ones
 *     and one expensive campaign cannot serialize the tail. Run k
 *     of a campaign still draws from runRng(config, k) against a
 *     pristine workload clone, so the raw bytes are identical at
 *     any --jobs;
 *  C. finalization: each miss's stats rebuild, store save and
 *     default analysis.
 */

#ifndef RADCRIT_SUITE_SCHEDULER_HH
#define RADCRIT_SUITE_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "suite/context.hh"

namespace radcrit
{

class Experiment;

/** What the dedup prepass did. */
struct ScheduleStats
{
    /** Campaign declarations across all selected experiments. */
    uint64_t requested = 0;
    /** Distinct campaigns after dedup. */
    uint64_t distinct = 0;
    /** Distinct campaigns the prepass had to simulate. */
    uint64_t simulated = 0;
    /** Distinct campaigns served by the campaign store. */
    uint64_t storeHits = 0;
    /**
     * Summed per-campaign wall nanoseconds of the prepass
     * simulate/load work (what the campaigns cost individually).
     */
    uint64_t wallNs = 0;
    /**
     * Peak number of distinct campaigns in flight at once, up to
     * min(jobs, distinct).
     */
    uint64_t concurrentPeak = 0;
    /** Wall-clock nanoseconds of the whole prepass. */
    uint64_t prepassWallNs = 0;
    /**
     * Wall nanoseconds won back by overlapping campaigns:
     * max(0, wallNs - prepassWallNs).
     */
    uint64_t overlapNs = 0;
};

/**
 * Run the dedup prepass for `experiments` (each at its
 * context-resolved run count) and fill the context's plan, each
 * entry with its default analysis unless a trace sink or timeline
 * is armed. With SuiteContext::progress() the prepass reports
 * campaign-granular progress ("k/N distinct campaigns" with an
 * ETA).
 */
ScheduleStats
scheduleCampaigns(const std::vector<Experiment *> &experiments,
                  SuiteContext &ctx);

} // namespace radcrit

#endif // RADCRIT_SUITE_SCHEDULER_HH
