#include "suite/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "campaign/analysis.hh"
#include "campaign/engine.hh"
#include "campaign/stream.hh"
#include "common/logging.hh"
#include "exec/chaos.hh"
#include "exec/launch.hh"
#include "logs/beamlog.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "sim/sampler.hh"
#include "suite/experiment.hh"
#include "suite/spec.hh"

namespace radcrit
{

namespace
{

uint64_t
elapsedNs(std::chrono::steady_clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

/**
 * One distinct campaign of the prepass: identity and the
 * everything needed to execute it, plus the results the plan entry
 * is assembled from after the dispatch.
 */
struct PrepassItem
{
    std::string key;
    /** First experiment that declared it. */
    std::string owner;
    DeviceModel device;
    std::unique_ptr<Workload> workload;
    CampaignConfig cfg;

    CampaignRaw raw;
    /** Precomputed default analysis (sharded prepass only). */
    std::optional<CampaignResult> analysis;
    uint64_t wallNs = 0;
    bool simulated = false;

    // Sharded store-resolution state: the store entry in byte-range
    // pieces, and how many of the campaign's units (its pieces, or
    // one plain lookup when there are none) were claimed and
    // finished.
    std::optional<BeamLogPieces> pieces;
    /** Default analysis of each piece's runs, folded as it parses. */
    std::vector<std::unique_ptr<AnalysisAccumulator>> pieceAnalysis;
    std::atomic<uint64_t> unitsClaimed{0};
    std::atomic<uint64_t> unitsDone{0};

    // Sharded-dispatch state: the strike sampler built once on the
    // caller-visible miss path (shared read-only by every worker),
    // and the claim/completion bookkeeping for a campaign whose
    // runs are spread over many workers.
    std::optional<StrikeSampler> sampler;
    std::atomic<uint64_t> runsDone{0};
    std::atomic<bool> claimed{false};
    /** Prepass-relative ns of the campaign's first claimed run. */
    uint64_t startNs = 0;
};

/**
 * Bytes per store-entry piece of the sharded prepass: large enough
 * that opening the file again is noise, small enough that a
 * multi-megabyte entry spreads over every worker.
 */
constexpr uint64_t entryPieceBytes = 256 * 1024;

/** @return the store key of an item. */
CampaignKey
storeKey(const PrepassItem &item)
{
    return CampaignKey{item.device.name, item.workload->name(),
                       item.workload->inputLabel(), item.cfg.sim};
}

/**
 * Collect and dedup the campaigns the selected experiments
 * declare, in declaration order (which fixes owner attribution and
 * the sequential execution order, both identical to the historical
 * interleaved dedup-and-run loop).
 */
std::vector<std::unique_ptr<PrepassItem>>
collectItems(const std::vector<Experiment *> &experiments,
             SuiteContext &ctx, ScheduleStats &stats)
{
    std::vector<std::unique_ptr<PrepassItem>> items;
    std::set<std::string> seen;
    for (Experiment *exp : experiments) {
        uint64_t runs = ctx.runsFor(*exp);
        for (const CampaignRequest &req : exp->campaigns(runs)) {
            ++stats.requested;
            DeviceModel device = makeDevice(req.device);
            std::unique_ptr<Workload> workload =
                buildWorkload(device, req.workload);
            std::string key = campaignPlanKey(
                device.name, workload->name(),
                workload->inputLabel(), req.runs);
            if (ctx.planned(key) || !seen.insert(key).second)
                continue;
            ++stats.distinct;

            auto item = std::make_unique<PrepassItem>();
            item->key = std::move(key);
            item->owner = exp->info().name;
            item->device = std::move(device);
            item->cfg = defaultCampaign(req.runs, item->device.name,
                                        workload->name(),
                                        workload->inputLabel());
            item->cfg.sim.jobs = ctx.jobs();
            item->cfg.sim.batchRuns = ctx.batchRuns();
            item->cfg.sim.ioThreads = ctx.ioThreads();
            item->workload = std::move(workload);
            items.push_back(std::move(item));
        }
    }
    return items;
}

/** Emit the campaign-granular prepass progress line (--progress). */
void
progressLine(uint64_t done, uint64_t total,
             std::chrono::steady_clock::time_point prepass_start)
{
    double elapsed_s =
        static_cast<double>(elapsedNs(prepass_start)) / 1e9;
    double rate = elapsed_s > 0.0
        ? static_cast<double>(done) / elapsed_s
        : 0.0;
    double eta_s = rate > 0.0
        ? static_cast<double>(total - done) / rate
        : 0.0;
    inform("suite prepass: %llu/%llu distinct campaigns "
           "(%.2f campaigns/s, ETA %.1fs)",
           static_cast<unsigned long long>(done),
           static_cast<unsigned long long>(total), rate, eta_s);
}

/**
 * Sequential execution of one item: the full shared pool works on
 * this campaign alone, through the streaming runner when the
 * context streams. This is the historical prepass body.
 */
void
executeSequential(PrepassItem &item, SuiteContext &ctx)
{
    uint64_t hits_before = ctx.store() ? ctx.store()->hits() : 0;
    auto start = std::chrono::steady_clock::now();
    if (ctx.stream()) {
        // Batched engine + streamed store I/O; the plan entry
        // itself stays materialized for reuse.
        CollectRawSink collect;
        simulateOrLoadStream(item.device, *item.workload,
                             item.cfg.sim, ctx.store(), collect,
                             &ctx.pool());
        item.raw = collect.take();
    } else {
        item.raw = simulateOrLoad(item.device, *item.workload,
                                  item.cfg.sim, ctx.store(),
                                  &ctx.pool());
    }
    item.wallNs = elapsedNs(start);
    item.simulated =
        !(ctx.store() && ctx.store()->hits() > hits_before);
}

/**
 * Sharded phase A for one item, on the worker that finished its
 * last piece: try the store with the joined pieces (materialized
 * hit, same sim/launch/stats carry as simulateOrLoad()), else
 * prepare the campaign for the flattened run dispatch — raw
 * header, launch view, the shared read-only strike sampler, and
 * pre-sized run slots so phase B workers write disjoint elements
 * of a vector that never reallocates.
 *
 * @return true when the store served the campaign.
 */
bool
resolveStore(PrepassItem &item, SuiteContext &ctx)
{
    if (CampaignStore *store = ctx.store()) {
        std::optional<CampaignRaw> joined = item.pieces->join();
        // Runs folded from pieces that do not join are not the
        // campaign a fallback load may still find.
        if (!joined)
            item.pieceAnalysis.clear();
        if (auto hit =
                store->load(storeKey(item), std::move(joined))) {
            item.raw = std::move(*hit);
            // jobs/ioThreads are execution details outside the
            // key; carry the caller's values (same as
            // simulateOrLoad()).
            item.raw.sim = item.cfg.sim;
            item.raw.launch =
                buildLaunch(item.device, item.workload->traits());
            item.raw.stats = rebuildSimStats(
                item.raw, StatsRegistry::global());
            return true;
        }
    }
    item.raw.deviceName = item.device.name;
    item.raw.workloadName = item.workload->name();
    item.raw.inputLabel = item.workload->inputLabel();
    item.raw.sim = item.cfg.sim;
    item.raw.launch =
        buildLaunch(item.device, item.workload->traits());
    item.sampler.emplace(item.device, item.raw.launch);
    item.raw.sensitiveAreaAu = item.sampler->totalWeight();
    item.raw.runs.resize(item.cfg.sim.faultyRuns);
    return false;
}

/**
 * Fold the runs piece `k` of a store entry parsed into their own
 * accumulator. Only the identity names matter here: merge() keeps
 * the receiving accumulator's campaign meta.
 */
void
foldPiece(PrepassItem &item, size_t k)
{
    const std::vector<RawRun> *runs = item.pieces->runs(k);
    if (!runs)
        return;
    CampaignMeta meta;
    meta.deviceName = item.device.name;
    meta.workloadName = item.workload->name();
    meta.inputLabel = item.workload->inputLabel();
    meta.sim = item.cfg.sim;
    auto acc = std::make_unique<AnalysisAccumulator>(
        meta, item.cfg.analysis);
    for (const RawRun &run : *runs)
        acc->fold(run);
    item.pieceAnalysis[k] = std::move(acc);
}

/**
 * The default analysis of a store hit: the per-piece accumulators
 * merged in run order, which analyzeCampaign() would reproduce
 * byte for byte; analyzeCampaign() itself when the hit did not
 * come from every piece.
 */
CampaignResult
analyzeHit(PrepassItem &item)
{
    bool folded = !item.pieceAnalysis.empty();
    for (const auto &piece : item.pieceAnalysis)
        folded = folded && piece;
    if (!folded)
        return analyzeCampaign(item.raw, item.cfg.analysis);
    AnalysisAccumulator acc(campaignMeta(item.raw),
                            item.cfg.analysis);
    for (auto &piece : item.pieceAnalysis)
        acc.merge(std::move(*piece));
    item.pieceAnalysis.clear();
    return acc.finish(item.raw.stats);
}

/**
 * Sharded phase B: simulate run `i` of `item` into its
 * pre-allocated slot. Run i draws from runRng(config, i) against a
 * pristine workload instance and a read-only sampler, so the raw
 * bytes are identical to the pool-parallel runner regardless of
 * which worker claims which run. Retry/quarantine policy matches
 * the runner: a run that exhausts its attempt budget stays in the
 * campaign as an infra outcome instead of killing its siblings.
 */
void
simulateShardedRun(PrepassItem &item, Workload &workload,
                   uint64_t i)
{
    const SimConfig &config = item.cfg.sim;
    const ResilienceConfig &rz = config.resilience;
    RetryPolicy policy{std::max(rz.maxAttempts, 1u),
                       rz.softDeadlineNs, rz.backoffBaseNs};
    auto run_start = std::chrono::steady_clock::now();
    RawRun run;
    GuardReport guard = runGuarded(policy, [&](unsigned attempt) {
        if (ChaosEngine *engine = chaos())
            engine->onRunAttempt(i, attempt);
        Rng rng = runRng(config, i);
        run = simulateRun(*item.sampler, workload, config, i, rng);
    });
    if (guard.status != GuardStatus::Ok) {
        run = RawRun{};
        run.index = i;
        run.outcome = guard.status == GuardStatus::Timeout
            ? Outcome::InfraTimeout
            : Outcome::InfraError;
        warn("campaign run %llu quarantined after %u "
             "attempt(s)%s%s",
             static_cast<unsigned long long>(i), guard.attempts,
             guard.error.empty() ? "" : ": ",
             guard.error.c_str());
    }
    run.wallNs = elapsedNs(run_start);
    if (guard.retries() > 0) {
        StatsRegistry::global()
            .counter("resilience.retries")
            .inc(guard.retries());
    }
    item.raw.runs[i] = std::move(run);
}

/**
 * Sharded phase C for one missed item: rebuild the simulation
 * counters in store-hit shape (per-phase timers are execution
 * telemetry the flattened dispatch does not reconstruct), persist
 * the entry (serialized on a background I/O thread behind the
 * global gate when the context runs --io-threads), and fold the
 * default analysis — in run order, so the result is identical to a
 * later analyzeCampaign(). Analysis is skipped when a trace sink
 * or timeline is armed: both are single-writer side channels the
 * concurrent prepass must not drive from worker threads.
 */
void
finalizeSharded(PrepassItem &item, SuiteContext &ctx)
{
    item.raw.stats =
        rebuildSimStats(item.raw, StatsRegistry::global());
    if (CampaignStore *store = ctx.store()) {
        if (item.cfg.sim.ioThreads > 0) {
            std::unique_ptr<RawSink> save = store->saveSink();
            AsyncSaveSink async(*save, &IoThreadGate::global());
            CampaignRawSource source(item.raw,
                                     item.cfg.sim.batchRuns);
            pumpRaw(source, async);
        } else {
            store->save(item.raw);
        }
    }
    if (!traceSink() && !timeline())
        item.analysis =
            analyzeCampaign(item.raw, item.cfg.analysis);
}

} // anonymous namespace

ScheduleStats
scheduleCampaigns(const std::vector<Experiment *> &experiments,
                  SuiteContext &ctx)
{
    ScheduleStats stats;
    stats.sharded = ctx.shardCampaigns();

    std::vector<std::unique_ptr<PrepassItem>> items =
        collectItems(experiments, ctx, stats);
    auto prepass_start = std::chrono::steady_clock::now();

    if (stats.sharded && !items.empty()) {
        std::atomic<uint64_t> done{0};
        std::atomic<uint64_t> inflight{0};
        std::atomic<uint64_t> peak{0};
        Timeline *tl = timeline();
        auto enter = [&] {
            uint64_t now_in =
                inflight.fetch_add(1,
                                   std::memory_order_relaxed) +
                1;
            uint64_t prev = peak.load(std::memory_order_relaxed);
            while (now_in > prev &&
                   !peak.compare_exchange_weak(
                       prev, now_in, std::memory_order_relaxed)) {
            }
        };
        auto leave = [&] {
            inflight.fetch_sub(1, std::memory_order_relaxed);
        };
        auto lane = [&](unsigned worker) -> TimelineLane & {
            return tl->lane(worker + 1,
                            "worker " + std::to_string(worker));
        };
        PoolRunStats poolStats;
        PoolRunStats phaseStats;

        // Phase A — store resolution, flattened like phase B: every
        // store entry is parsed in byte-range pieces claimed one by
        // one across campaigns, so one large entry cannot serialize
        // a warm prepass. The worker that finishes a campaign's
        // last unit resolves it: a hit loads (and precomputes its
        // analysis), a miss builds its raw header, sampler, and run
        // slots for the flattened dispatch below. Larger entries
        // are queued first, so the longest chain of work starts
        // at once and the small entries fill in around it. Each
        // piece's runs are analyzed as soon as they are parsed.
        bool analyze = !traceSink() && !tl;
        auto unitsOf = [](const PrepassItem &item) -> uint64_t {
            return std::max<uint64_t>(
                item.pieces ? item.pieces->count() : 0, 1);
        };
        std::vector<PrepassItem *> queue;
        for (auto &item : items) {
            if (CampaignStore *store = ctx.store()) {
                item->pieces.emplace(store->pathFor(storeKey(*item)),
                                     entryPieceBytes);
                item->pieceAnalysis.resize(item->pieces->count());
            }
            queue.push_back(item.get());
        }
        std::stable_sort(queue.begin(), queue.end(),
                         [&](const PrepassItem *a,
                             const PrepassItem *b) {
                             return unitsOf(*a) > unitsOf(*b);
                         });
        std::vector<uint64_t> unitOffsets{0};
        for (const PrepassItem *item : queue)
            unitOffsets.push_back(unitOffsets.back() +
                                  unitsOf(*item));
        ctx.pool().forDynamic(
            unitOffsets.back(), 1,
            [&](unsigned worker, uint64_t begin, uint64_t end) {
                for (uint64_t g = begin; g < end; ++g) {
                    size_t k = static_cast<size_t>(
                        std::upper_bound(unitOffsets.begin(),
                                         unitOffsets.end(), g) -
                        unitOffsets.begin() - 1);
                    PrepassItem &item = *queue[k];
                    uint64_t unit = g - unitOffsets[k];
                    if (item.unitsClaimed.fetch_add(
                            1, std::memory_order_relaxed) == 0) {
                        item.startNs = elapsedNs(prepass_start);
                        enter();
                    }
                    if (item.pieces && unit < item.pieces->count()) {
                        uint64_t span_begin = tl ? tl->nowNs() : 0;
                        item.pieces->parse(unit);
                        if (analyze)
                            foldPiece(item, unit);
                        if (tl) {
                            lane(worker).span(
                                item.key, "prepass", span_begin,
                                tl->nowNs() - span_begin,
                                {{"campaign", item.key},
                                 {"piece", std::to_string(unit)},
                                 {"source", "store"}});
                        }
                    }
                    // acq_rel: the last unit's worker sees every
                    // other piece's parse. The unit count comes from
                    // the fixed offsets: join() empties the pieces.
                    uint64_t units =
                        unitOffsets[k + 1] - unitOffsets[k];
                    if (item.unitsDone.fetch_add(
                            1, std::memory_order_acq_rel) +
                            1 <
                        units)
                        continue;

                    uint64_t span_begin = tl ? tl->nowNs() : 0;
                    item.simulated = !resolveStore(item, ctx);
                    if (!item.simulated && analyze)
                        item.analysis = analyzeHit(item);
                    item.wallNs =
                        elapsedNs(prepass_start) - item.startNs;
                    if (tl && !item.simulated) {
                        lane(worker).span(
                            item.key, "prepass", span_begin,
                            tl->nowNs() - span_begin,
                            {{"campaign", item.key},
                             {"source", "store"}});
                    }
                    leave();
                    if (!item.simulated) {
                        uint64_t d =
                            done.fetch_add(
                                1, std::memory_order_relaxed) +
                            1;
                        if (ctx.progress())
                            progressLine(d, items.size(),
                                         prepass_start);
                    }
                }
            },
            &phaseStats);
        poolStats.absorb(phaseStats);

        // Phase B — flattened simulation: every missed campaign's
        // runs in one global index space, claimed run by run so
        // grains cross campaign boundaries and one expensive
        // campaign cannot serialize the tail. Each worker replays
        // on private lazily-taken workload clones; the sources
        // stay pristine (no worker ever injects on them), so
        // concurrent clone() calls are plain const reads.
        std::vector<PrepassItem *> misses;
        for (auto &item : items)
            if (item->simulated)
                misses.push_back(item.get());
        std::vector<uint64_t> offsets;
        offsets.reserve(misses.size() + 1);
        offsets.push_back(0);
        for (PrepassItem *item : misses)
            offsets.push_back(offsets.back() +
                              item->cfg.sim.faultyRuns);
        uint64_t total_runs = offsets.back();
        std::vector<std::vector<std::unique_ptr<Workload>>>
            clones(ctx.pool().jobs());
        for (auto &per_worker : clones)
            per_worker.resize(misses.size());

        phaseStats = PoolRunStats{};
        ctx.pool().forDynamic(
            total_runs, 1,
            [&](unsigned worker, uint64_t begin, uint64_t end) {
                for (uint64_t g = begin; g < end; ++g) {
                    size_t k = static_cast<size_t>(
                        std::upper_bound(offsets.begin(),
                                         offsets.end(), g) -
                        offsets.begin() - 1);
                    PrepassItem &item = *misses[k];
                    uint64_t i = g - offsets[k];
                    if (!item.claimed.exchange(
                            true, std::memory_order_relaxed)) {
                        item.startNs = elapsedNs(prepass_start);
                        enter();
                    }
                    auto &clone = clones[worker][k];
                    if (!clone)
                        clone = item.workload->clone();

                    uint64_t span_begin = tl ? tl->nowNs() : 0;
                    simulateShardedRun(item, *clone, i);
                    if (tl) {
                        lane(worker).span(
                            item.key, "prepass", span_begin,
                            tl->nowNs() - span_begin,
                            {{"campaign", item.key},
                             {"run", std::to_string(i)},
                             {"source", "simulated"}});
                    }

                    // acq_rel: the finishing worker reads the
                    // claimer's startNs.
                    uint64_t fin =
                        item.runsDone.fetch_add(
                            1, std::memory_order_acq_rel) +
                        1;
                    if (fin == item.cfg.sim.faultyRuns) {
                        item.wallNs =
                            elapsedNs(prepass_start) -
                            item.startNs;
                        leave();
                    }
                }
            },
            &phaseStats);
        poolStats.absorb(phaseStats);

        // Phase C — per-campaign finalization of the misses:
        // stats rebuild, store save (async behind the I/O gate),
        // and the precomputed default analysis, all folded across
        // the workers.
        phaseStats = PoolRunStats{};
        ctx.pool().forDynamic(
            misses.size(), 1,
            [&](unsigned worker, uint64_t begin, uint64_t end) {
                (void)worker;
                for (uint64_t idx = begin; idx < end; ++idx) {
                    PrepassItem &item = *misses[idx];
                    enter();
                    auto start = std::chrono::steady_clock::now();
                    finalizeSharded(item, ctx);
                    item.wallNs += elapsedNs(start);
                    leave();
                    uint64_t d =
                        done.fetch_add(
                            1, std::memory_order_relaxed) +
                        1;
                    if (ctx.progress())
                        progressLine(d, items.size(),
                                     prepass_start);
                }
            },
            &phaseStats);
        poolStats.absorb(phaseStats);

        publishPoolStats(poolStats, StatsRegistry::global());
        stats.concurrentPeak = peak.load();
    } else {
        for (size_t idx = 0; idx < items.size(); ++idx) {
            executeSequential(*items[idx], ctx);
            if (ctx.progress())
                progressLine(idx + 1, items.size(),
                             prepass_start);
        }
        stats.concurrentPeak = items.empty() ? 0 : 1;
    }
    stats.prepassWallNs = elapsedNs(prepass_start);

    // Plan insertion happens after the dispatch, on the caller
    // thread, in declaration order: addPlanned() is not
    // thread-safe and panics on duplicates, which the dedup above
    // guarantees cannot happen.
    for (auto &item : items) {
        stats.wallNs += item->wallNs;
        if (item->simulated)
            ++stats.simulated;
        else
            ++stats.storeHits;

        SuiteContext::PlannedCampaign entry;
        entry.raw = std::move(item->raw);
        entry.owner = std::move(item->owner);
        entry.wallNs = item->wallNs;
        entry.simulated = item->simulated;
        entry.defaultAnalysis = std::move(item->analysis);
        ctx.addPlanned(item->key, std::move(entry));
    }
    if (stats.wallNs > stats.prepassWallNs)
        stats.overlapNs = stats.wallNs - stats.prepassWallNs;
    return stats;
}

} // namespace radcrit
