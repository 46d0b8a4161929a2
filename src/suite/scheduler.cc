#include "suite/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "campaign/analysis.hh"
#include "campaign/runner.hh"
#include "common/logging.hh"
#include "exec/launch.hh"
#include "logs/beamlog.hh"
#include "obs/procmem.hh"
#include "obs/timeline.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"
#include "sim/sampler.hh"
#include "suite/experiment.hh"
#include "suite/spec.hh"

namespace radcrit
{

namespace
{

/**
 * One distinct campaign of the prepass: its spec and identity,
 * everything needed to execute it, plus the results the plan entry
 * is assembled from after the dispatch.
 */
struct PrepassItem
{
    std::string key;
    DeviceModel device;
    WorkloadSpec spec;
    /** Where the plan key, store key and a hit's launch come from. */
    WorkloadIdentity id;
    /**
     * Built only when the campaign must be simulated, by the
     * phase-A worker that resolves it as a miss. A CLAMR workload
     * is built up front: its identity needs its golden run.
     */
    std::unique_ptr<Workload> workload;
    CampaignConfig cfg;

    CampaignRaw raw;
    /** Precomputed default analysis. */
    std::optional<CampaignResult> analysis;
    uint64_t wallNs = 0;
    bool simulated = false;

    // Store-resolution state: the store entry in byte-range
    // pieces, and how many of the campaign's units (its pieces, or
    // one plain lookup when there are none) were claimed and
    // finished.
    std::optional<BeamLogPieces> pieces;
    /** Default analysis of each piece's runs, folded as it parses. */
    std::vector<std::unique_ptr<AnalysisAccumulator>> pieceAnalysis;
    std::atomic<uint64_t> unitsClaimed{0};
    std::atomic<uint64_t> unitsDone{0};

    // Simulation state: the strike sampler built once on the
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
 * Bytes per store-entry piece: large enough
 * that opening the file again is noise, small enough that a
 * multi-megabyte entry spreads over every worker.
 */
constexpr uint64_t entryPieceBytes = 256 * 1024;

/** @return the store key of an item. */
CampaignKey
storeKey(const PrepassItem &item)
{
    return CampaignKey{item.device.name, item.id.traits.name,
                       item.id.inputLabel, item.cfg.sim};
}

/**
 * Collect and dedup the campaigns the selected experiments
 * declare, in declaration order (which fixes the plan's insertion
 * order). Only CLAMR items build their
 * workload here, before the prepass clock starts.
 */
std::vector<std::unique_ptr<PrepassItem>>
collectItems(const std::vector<Experiment *> &experiments,
             SuiteContext &ctx, ScheduleStats &stats)
{
    std::vector<std::unique_ptr<PrepassItem>> items;
    std::set<std::string> seen;
    for (Experiment *exp : experiments) {
        uint64_t runs = ctx.runsFor(*exp);
        for (CampaignRequest &req : exp->campaigns(runs)) {
            ++stats.requested;
            std::string key = campaignPlanKey(req.device.name,
                                              req.workload, req.runs);
            if (ctx.planned(key) || !seen.insert(key).second)
                continue;
            ++stats.distinct;

            auto item = std::make_unique<PrepassItem>();
            item->key = std::move(key);
            item->device = std::move(req.device);
            item->spec = req.workload;
            if (req.workload.kind == WorkloadKind::Clamr) {
                item->workload =
                    buildWorkload(item->device, req.workload);
                item->id = describeWorkload(*item->workload);
            } else {
                item->id = describeWorkload(item->device, req.workload);
            }
            item->cfg = defaultCampaign(req.runs, item->device.name,
                                        item->id.traits.name,
                                        item->id.inputLabel);
            item->cfg.sim.jobs = ctx.jobs();
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
 * Phase A for one item, on the worker that finished its
 * last piece: try the store with the joined pieces (a materialized
 * hit, completed by completeStoreHit()), else
 * prepare the campaign for the flattened run dispatch — its
 * workload, raw header, launch view, the shared read-only strike
 * sampler, and pre-sized run slots so phase B workers write
 * disjoint elements of a vector that never reallocates.
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
            completeStoreHit(item.raw, item.device, item.id.traits,
                             item.cfg.sim);
            return true;
        }
    }
    if (!item.workload)
        item.workload = buildWorkload(item.device, item.spec);
    item.raw.deviceName = item.device.name;
    item.raw.workloadName = item.id.traits.name;
    item.raw.inputLabel = item.id.inputLabel;
    item.raw.sim = item.cfg.sim;
    item.raw.launch = buildLaunch(item.device, item.id.traits);
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
    meta.workloadName = item.id.traits.name;
    meta.inputLabel = item.id.inputLabel;
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
 * The state the three phases of one prepass share: the items, the
 * prepass clock, the in-flight accounting behind
 * ScheduleStats::concurrentPeak, progress, and the pool telemetry
 * the dispatches add up to.
 */
struct Prepass
{
    SuiteContext &ctx;
    std::vector<std::unique_ptr<PrepassItem>> &items;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    Timeline *tl = timeline();
    /**
     * Fold default analyses on the workers. Not with a trace sink
     * or timeline armed: both are single-writer side channels the
     * workers must not drive, so consumers analyze on demand.
     */
    bool analyze = !traceSink() && !tl;
    std::atomic<uint64_t> done{0};
    std::atomic<uint64_t> inflight{0};
    std::atomic<uint64_t> peak{0};
    PoolRunStats poolStats{};

    /** @return prepass-relative nanoseconds now. */
    uint64_t nowNs() const { return elapsedNs(start); }

    /** A campaign's work started on some worker. */
    void
    enter()
    {
        uint64_t now_in =
            inflight.fetch_add(1, std::memory_order_relaxed) + 1;
        uint64_t prev = peak.load(std::memory_order_relaxed);
        while (now_in > prev &&
               !peak.compare_exchange_weak(
                   prev, now_in, std::memory_order_relaxed)) {
        }
    }

    /** A campaign's work stopped (for now). */
    void leave() { inflight.fetch_sub(1, std::memory_order_relaxed); }

    /** A campaign is ready for the plan: count and report it. */
    void
    finished()
    {
        uint64_t d = done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (ctx.progress())
            progressLine(d, items.size(), start);
    }

    /** @return the timeline lane of a worker (timeline armed). */
    TimelineLane &
    lane(unsigned worker)
    {
        return tl->lane(worker + 1,
                        "worker " + std::to_string(worker));
    }

    /** Run one phase over `count` grains of one unit each. */
    void
    dispatch(uint64_t count, const WorkerPool::ChunkBody &body)
    {
        PoolRunStats phase;
        ctx.pool().forDynamic(count, 1, body, &phase);
        poolStats.absorb(phase);
    }
};

/**
 * Phase A — store resolution. Every store entry is parsed in
 * byte-range pieces claimed one by one across campaigns, so one
 * large entry cannot serialize a warm prepass. The worker that
 * finishes a campaign's last unit resolves it: a hit loads (and
 * precomputes its analysis), a miss builds its workload, raw
 * header, sampler, and run slots for phase B, so misses build in
 * parallel and a hit builds nothing. Larger entries are queued
 * first, so the longest chain of work starts at once and the
 * small entries fill in around it. Each piece's runs are analyzed
 * as soon as they are parsed.
 */
void
resolvePhase(Prepass &pp)
{
    auto unitsOf = [](const PrepassItem &item) -> uint64_t {
        return std::max<uint64_t>(
            item.pieces ? item.pieces->count() : 0, 1);
    };
    std::vector<PrepassItem *> queue;
    for (auto &item : pp.items) {
        if (CampaignStore *store = pp.ctx.store()) {
            item->pieces.emplace(store->pathFor(storeKey(*item)),
                                 entryPieceBytes);
            item->pieceAnalysis.resize(item->pieces->count());
        }
        queue.push_back(item.get());
    }
    std::stable_sort(queue.begin(), queue.end(),
                     [&](const PrepassItem *a, const PrepassItem *b) {
                         return unitsOf(*a) > unitsOf(*b);
                     });
    std::vector<uint64_t> unitOffsets{0};
    for (const PrepassItem *item : queue)
        unitOffsets.push_back(unitOffsets.back() + unitsOf(*item));

    Timeline *tl = pp.tl;
    pp.dispatch(unitOffsets.back(), [&](unsigned worker,
                                        uint64_t begin,
                                        uint64_t end) {
        for (uint64_t g = begin; g < end; ++g) {
            size_t k = static_cast<size_t>(
                std::upper_bound(unitOffsets.begin(),
                                 unitOffsets.end(), g) -
                unitOffsets.begin() - 1);
            PrepassItem &item = *queue[k];
            uint64_t unit = g - unitOffsets[k];
            if (item.unitsClaimed.fetch_add(
                    1, std::memory_order_relaxed) == 0) {
                item.startNs = pp.nowNs();
                pp.enter();
            }
            if (item.pieces && unit < item.pieces->count()) {
                uint64_t span_begin = tl ? tl->nowNs() : 0;
                item.pieces->parse(unit);
                if (pp.analyze)
                    foldPiece(item, unit);
                if (tl) {
                    pp.lane(worker).span(
                        item.key, "prepass", span_begin,
                        tl->nowNs() - span_begin,
                        {{"campaign", item.key},
                         {"piece", std::to_string(unit)},
                         {"source", "store"}});
                }
            }
            // acq_rel: the last unit's worker sees every other
            // piece's parse. The unit count comes from the fixed
            // offsets: join() empties the pieces.
            uint64_t units = unitOffsets[k + 1] - unitOffsets[k];
            if (item.unitsDone.fetch_add(
                    1, std::memory_order_acq_rel) +
                    1 <
                units)
                continue;

            uint64_t span_begin = tl ? tl->nowNs() : 0;
            item.simulated = !resolveStore(item, pp.ctx);
            if (!item.simulated && pp.analyze)
                item.analysis = analyzeHit(item);
            item.wallNs = pp.nowNs() - item.startNs;
            if (tl) {
                // A miss's span is its golden build.
                pp.lane(worker).span(item.key, "prepass", span_begin,
                                     tl->nowNs() - span_begin,
                                     {{"campaign", item.key},
                                      {"source", item.simulated
                                           ? "build"
                                           : "store"}});
            }
            pp.leave();
            if (!item.simulated)
                pp.finished();
        }
    });
}

/**
 * Phase B — flattened simulation: every missed campaign's runs in
 * one global index space, claimed run by run so grains cross
 * campaign boundaries and one expensive campaign cannot serialize
 * the tail. forDynamic() hands grains out from one atomic cursor,
 * so each worker's claims only move forward through the campaigns:
 * one private workload clone per worker, replaced when its
 * campaign changes, serves them all. The sources stay pristine (no
 * worker ever injects on them), so concurrent clone() calls are
 * plain const reads. Each run goes through simulateGuardedRun(),
 * the campaign runner's own run body, so run i of a campaign is
 * byte-identical to the runner's whichever worker claims it. The
 * per-worker run shards and a "campaign.total" sample per campaign
 * land in the global registry afterwards, as a runner-simulated
 * campaign's would.
 */
void
simulatePhase(Prepass &pp, const std::vector<PrepassItem *> &misses)
{
    std::vector<uint64_t> offsets{0};
    for (const PrepassItem *item : misses)
        offsets.push_back(offsets.back() + item->cfg.sim.faultyRuns);
    unsigned jobs = pp.ctx.pool().jobs();
    std::vector<std::unique_ptr<Workload>> clones(jobs);
    std::vector<size_t> cloneOf(jobs, misses.size());
    std::vector<std::unique_ptr<RunShard>> shards;
    for (unsigned w = 0; w < jobs; ++w)
        shards.push_back(std::make_unique<RunShard>());

    Timeline *tl = pp.tl;
    pp.dispatch(offsets.back(), [&](unsigned worker, uint64_t begin,
                                    uint64_t end) {
        for (uint64_t g = begin; g < end; ++g) {
            size_t k = static_cast<size_t>(
                std::upper_bound(offsets.begin(), offsets.end(), g) -
                offsets.begin() - 1);
            PrepassItem &item = *misses[k];
            uint64_t i = g - offsets[k];
            if (!item.claimed.exchange(true,
                                       std::memory_order_relaxed)) {
                item.startNs = pp.nowNs();
                pp.enter();
            }
            if (cloneOf[worker] != k) {
                // Drop the previous campaign's clone first, so a
                // worker never holds two.
                clones[worker].reset();
                clones[worker] = item.workload->clone();
                cloneOf[worker] = k;
            }

            uint64_t span_begin = tl ? tl->nowNs() : 0;
            item.raw.runs[i] =
                simulateGuardedRun(*item.sampler, *clones[worker],
                                   item.cfg.sim, i, *shards[worker])
                    .run;
            if (tl) {
                pp.lane(worker).span(item.key, "prepass", span_begin,
                                     tl->nowNs() - span_begin,
                                     {{"campaign", item.key},
                                      {"run", std::to_string(i)},
                                      {"source", "simulated"}});
            }

            // acq_rel: the finishing worker reads the claimer's
            // startNs.
            uint64_t fin =
                item.runsDone.fetch_add(1, std::memory_order_acq_rel) +
                1;
            if (fin == item.cfg.sim.faultyRuns) {
                item.wallNs = pp.nowNs() - item.startNs;
                pp.leave();
            }
        }
    });

    StatsRegistry &global = StatsRegistry::global();
    for (const auto &shard : shards)
        global.merge(shard->reg.snapshot());
    PhaseTimer total(global, "campaign.total");
    for (const PrepassItem *item : misses)
        total.recordNs(item->wallNs);
    publishProcMem(global);
}

/**
 * Phase C — finalization of the misses, one campaign per grain:
 * rebuild the simulation counters in store-hit shape (the phase
 * timers went to the global registry in phase B), save the store
 * entry, and fold the default analysis in run order, so it is
 * identical to a later analyzeCampaign().
 */
void
finalizePhase(Prepass &pp, const std::vector<PrepassItem *> &misses)
{
    pp.dispatch(misses.size(), [&](unsigned, uint64_t begin,
                                   uint64_t end) {
        for (uint64_t idx = begin; idx < end; ++idx) {
            PrepassItem &item = *misses[idx];
            pp.enter();
            auto start = std::chrono::steady_clock::now();
            item.raw.stats =
                rebuildSimStats(item.raw, StatsRegistry::global());
            if (CampaignStore *store = pp.ctx.store())
                store->save(item.raw);
            if (pp.analyze)
                item.analysis =
                    analyzeCampaign(item.raw, item.cfg.analysis);
            item.wallNs += elapsedNs(start);
            pp.leave();
            pp.finished();
        }
    });
}

} // anonymous namespace

ScheduleStats
scheduleCampaigns(const std::vector<Experiment *> &experiments,
                  SuiteContext &ctx)
{
    ScheduleStats stats;
    std::vector<std::unique_ptr<PrepassItem>> items =
        collectItems(experiments, ctx, stats);
    if (items.empty())
        return stats;

    Prepass pp{ctx, items};
    resolvePhase(pp);
    std::vector<PrepassItem *> misses;
    for (auto &item : items)
        if (item->simulated)
            misses.push_back(item.get());
    if (!misses.empty()) {
        simulatePhase(pp, misses);
        finalizePhase(pp, misses);
    }
    publishPoolStats(pp.poolStats, StatsRegistry::global());
    stats.concurrentPeak = pp.peak.load();
    stats.prepassWallNs = pp.nowNs();

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

        ctx.addPlanned(item->key, {std::move(item->raw),
                                   std::move(item->analysis)});
    }
    if (stats.wallNs > stats.prepassWallNs)
        stats.overlapNs = stats.wallNs - stats.prepassWallNs;
    return stats;
}

} // namespace radcrit
