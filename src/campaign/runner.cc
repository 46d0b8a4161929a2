#include "campaign/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "campaign/analysis.hh"
#include "campaign/engine.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "exec/chaos.hh"
#include "exec/pool.hh"
#include "logs/beamlog.hh"
#include "metrics/relative_error.hh"
#include "obs/procmem.hh"
#include "obs/timeline.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"
#include "sim/sampler.hh"

namespace radcrit
{

namespace
{

/** CampaignRaw shell carrying only a campaign's identity, for the
 * checkpoint header/recovery machinery (which never reads runs). */
CampaignRaw
identityShell(const CampaignMeta &meta)
{
    CampaignRaw ident;
    ident.deviceName = meta.deviceName;
    ident.workloadName = meta.workloadName;
    ident.inputLabel = meta.inputLabel;
    ident.sim = meta.sim;
    ident.launch = meta.launch;
    ident.sensitiveAreaAu = meta.sensitiveAreaAu;
    return ident;
}

} // anonymous namespace

uint64_t
CampaignResult::count(Outcome outcome) const
{
    uint64_t n = 0;
    for (const auto &run : runs) {
        if (run.outcome == outcome)
            ++n;
    }
    return n;
}

double
CampaignResult::sdcOverDetectable() const
{
    uint64_t detectable = count(Outcome::Crash) +
        count(Outcome::Hang);
    if (detectable == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(count(Outcome::Sdc)) /
        static_cast<double>(detectable);
}

double
CampaignResult::fitAu(uint64_t event_count) const
{
    if (runs.empty())
        return 0.0;
    double rate = static_cast<double>(event_count) /
        static_cast<double>(runs.size());
    return sensitiveAreaAu * config.analysis.fitScaleAu * rate;
}

double
CampaignResult::fitTotalAu(bool filtered) const
{
    uint64_t events = 0;
    for (const auto &run : runs) {
        if (run.outcome != Outcome::Sdc)
            continue;
        if (filtered && run.crit.executionFiltered)
            continue;
        ++events;
    }
    return fitAu(events);
}

FitBreakdown
CampaignResult::fitByPattern(bool filtered) const
{
    FitBreakdown bd;
    double per_run = fitAu(1);
    for (const auto &run : runs) {
        if (run.outcome != Outcome::Sdc)
            continue;
        if (filtered) {
            if (run.crit.executionFiltered)
                continue;
            bd.add(run.crit.patternFiltered, per_run);
        } else {
            bd.add(run.crit.pattern, per_run);
        }
    }
    return bd;
}

double
CampaignResult::filteredOutFraction() const
{
    uint64_t sdc = 0;
    uint64_t removed = 0;
    for (const auto &run : runs) {
        if (run.outcome != Outcome::Sdc)
            continue;
        ++sdc;
        if (run.crit.executionFiltered)
            ++removed;
    }
    if (sdc == 0)
        return 0.0;
    return static_cast<double>(removed) /
        static_cast<double>(sdc);
}

GuardedRun
simulateGuardedRun(const StrikeSampler &sampler, Workload &workload,
                   const SimConfig &config, uint64_t index,
                   RunShard &shard)
{
    const ResilienceConfig &rz = config.resilience;
    RetryPolicy policy{std::max(rz.maxAttempts, 1u),
                       rz.softDeadlineNs, rz.backoffBaseNs};
    RunPhaseTimers timers{&shard.sample, &shard.classify,
                          &shard.replay};
    auto start = std::chrono::steady_clock::now();
    GuardedRun out;
    out.guard = runGuarded(policy, [&](unsigned attempt) {
        if (ChaosEngine *engine = chaos())
            engine->onRunAttempt(index, attempt);
        Rng rng = runRng(config, index);
        out.run = simulateRun(sampler, workload, config, index, rng,
                              timers);
    });
    const GuardReport &guard = out.guard;
    if (guard.status != GuardStatus::Ok) {
        // Quarantine: the run failed its whole attempt budget. It
        // stays in the campaign as an infra outcome (excluded from
        // AVF, visible in every report) instead of killing the
        // other runs.
        out.run = RawRun{};
        out.run.index = index;
        out.run.outcome = guard.status == GuardStatus::Timeout
            ? Outcome::InfraTimeout
            : Outcome::InfraError;
        warn("campaign run %llu quarantined after %u "
             "attempt(s)%s%s",
             static_cast<unsigned long long>(index), guard.attempts,
             guard.error.empty() ? "" : ": ", guard.error.c_str());
    }
    out.run.wallNs = elapsedNs(start);
    if (guard.retries() > 0)
        shard.reg.counter("resilience.retries").inc(guard.retries());
    return out;
}

void
simulateCampaignStream(const DeviceModel &device,
                       Workload &workload,
                       const SimConfig &config, RawSink &sink)
{
    WorkerPool pool(config.jobs);
    simulateCampaignStream(device, workload, config, pool, sink);
}

void
simulateCampaignStream(const DeviceModel &device,
                       Workload &workload,
                       const SimConfig &config, WorkerPool &pool,
                       RawSink &sink)
{
    if (config.faultyRuns == 0)
        fatal("campaign needs at least one run");

    CampaignMeta meta;
    meta.deviceName = device.name;
    meta.workloadName = workload.name();
    meta.inputLabel = workload.inputLabel();
    meta.sim = config;
    meta.launch = buildLaunch(device, workload.traits());

    StrikeSampler sampler(device, meta.launch);
    meta.sensitiveAreaAu = sampler.totalWeight();

    // --- Resume. Complete records recovered from the checkpoint
    // shard are held by index and replayed into their batch instead
    // of re-simulated; everything else (including a torn trailing
    // record) is simulated as usual. Because run i is always derived
    // from runRng(config, i) and serialized with %.17g, the resumed
    // campaign is bit-identical to an uninterrupted one.
    const ResilienceConfig &rz = config.resilience;
    if (rz.resume && rz.checkpointPath.empty())
        fatal("resume needs a checkpoint path");

    CampaignRaw ident = identityShell(meta);
    std::map<uint64_t, RawRun> recovered;
    uint64_t resumed = 0;
    CheckpointRecovery recovery;
    if (rz.resume) {
        recovery = readCheckpointShards(rz.checkpointPath, ident);
        for (RawRun &run : recovery.runs) {
            if (run.index >= config.faultyRuns ||
                recovered.count(run.index))
                continue;
            recovered.emplace(run.index, std::move(run));
            ++resumed;
        }
        if (recovery.found)
            inform("campaign %s/%s %s: resumed %llu/%llu run(s) "
                   "from '%s'",
                   meta.deviceName.c_str(),
                   meta.workloadName.c_str(),
                   meta.inputLabel.c_str(),
                   static_cast<unsigned long long>(resumed),
                   static_cast<unsigned long long>(
                       config.faultyRuns),
                   rz.checkpointPath.c_str());
    }

    uint64_t totalPending = config.faultyRuns - resumed;

    sink.begin(meta);

    // --- Telemetry. Workers tick the phase timers into private
    // shards; kernel instruments (PhaseTimer members of workloads
    // and their clones) land directly in the global registry, whose
    // instruments are thread-safe. The outcome tally is rebuilt
    // from each delivered batch, resumed runs included, exactly as
    // for a store hit. Shards, tally and the global kernel-side
    // diff are folded into a campaign-local registry: the snapshot
    // handed to sink.end().
    StatsRegistry &global = StatsRegistry::global();
    StatsSnapshot globalBefore = global.snapshot();
    StatsRegistry campaignReg;
    SimStatsRebuilder tally(meta.deviceName, meta.workloadName,
                            meta.sensitiveAreaAu,
                            meta.launch.occupancy);
    PhaseTimer campaignTimer(campaignReg, "campaign.total");
    auto campaign_start = std::chrono::steady_clock::now();
    if (resumed > 0)
        campaignReg.counter("resilience.resumed_runs").inc(resumed);

    unsigned workers = static_cast<unsigned>(std::min<uint64_t>(
        pool.jobs(), totalPending));

    if (config.progressEvery > 0)
        inform("campaign %s: %s (%u worker%s)",
               device.name.c_str(),
               describeLaunch(meta.launch).c_str(), workers,
               workers == 1 ? "" : "s");

    std::vector<std::unique_ptr<RunShard>> shards;
    shards.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        shards.push_back(std::make_unique<RunShard>());

    // Per-worker workload clones, taken here on the caller thread
    // while nothing is replaying: cloning inside the worker body
    // races against worker 0, which replays strikes on (and
    // temporarily corrupts) the caller's workload that the clone
    // copies from. Worker 0 keeps the caller's instance; cloning
    // once per campaign also keeps small streamed batches from
    // paying a clone per batch.
    std::vector<std::unique_ptr<Workload>> clones(workers);
    for (unsigned w = 1; w < workers; ++w)
        clones[w] = workload.clone();

    std::atomic<uint64_t> completed{resumed};

    // --- Resilience plumbing. simulateGuardedRun() retries a run
    // attempt that throws or overruns the soft deadline and
    // quarantines a run that fails every attempt. The watchdog
    // warns live about runs stuck past the deadline, and the
    // checkpoint writer appends each completed run so a killed
    // campaign can resume.
    std::optional<Watchdog> watchdog;
    if (rz.softDeadlineNs > 0 && workers > 0)
        watchdog.emplace(workers, rz.softDeadlineNs);

    std::optional<CheckpointWriter> checkpoint;
    if (!rz.checkpointPath.empty())
        checkpoint.emplace(rz.checkpointPath, ident,
                           rz.resume ? recovery.validBytes : 0,
                           rz.checkpointEvery);

    // Flight recorder: the control flow records on lane 0, worker w
    // on lane w+1. Recording only observes — with the recorder
    // detached nothing below changes, and runs/CSV/stats stay
    // bit-identical either way.
    Timeline *tl = timeline();
    uint64_t simulate_begin = tl ? tl->nowNs() : 0;
    // Each worker's lane, looked up on its first claim (lane lookup
    // takes the timeline's lock); a worker only touches its slot.
    std::vector<TimelineLane *> lanes(workers, nullptr);

    // --- Batched dispatch. Each batch covers a contiguous index
    // slice; within it, runs not replayed from the checkpoint are
    // claimed one at a time over the pool, and the completed batch
    // is handed to the sink before the next one starts, so a
    // streaming sink overlaps analysis/persistence with the rest of
    // the simulation. batchRuns == 0 delivers the campaign as one
    // batch.
    uint64_t batchRuns = config.batchRuns == 0
        ? config.faultyRuns
        : std::min(config.batchRuns, config.faultyRuns);
    PoolRunStats poolStats;
    uint64_t batches = 0;
    for (uint64_t first = 0; first < config.faultyRuns;
         first += batchRuns) {
        uint64_t count =
            std::min(batchRuns, config.faultyRuns - first);
        RunBatch batch;
        batch.firstIndex = first;
        batch.runs.resize(count);

        std::vector<uint64_t> pending;
        pending.reserve(count);
        for (uint64_t i = first; i < first + count; ++i) {
            auto it = recovered.find(i);
            if (it != recovered.end()) {
                batch.runs[i - first] = std::move(it->second);
                recovered.erase(it);
            } else {
                pending.push_back(i);
            }
        }

        PoolRunStats batchStats;
        pool.forDynamic(pending.size(), 1, [&](unsigned worker,
                                               uint64_t begin,
                                               uint64_t end) {
            // Worker 0 runs on the caller thread and reuses the
            // caller's workload; the others replay strikes on the
            // private clones taken before dispatch.
            Workload &wl = worker == 0 ? workload : *clones[worker];
            TimelineLane *&lane = lanes[worker];
            if (tl && !lane)
                lane = &tl->lane(worker + 1,
                                 "worker " + std::to_string(worker));

            for (uint64_t p = begin; p < end; ++p) {
                uint64_t i = pending[p];
                uint64_t span_begin = lane ? tl->nowNs() : 0;
                if (watchdog)
                    watchdog->beginItem(worker, i);
                GuardedRun done_run = simulateGuardedRun(
                    sampler, wl, config, i, *shards[worker]);
                if (watchdog)
                    watchdog->endItem(worker);
                RawRun &run = done_run.run;

                if (lane) {
                    lane->span(
                        "run " + std::to_string(i), "run",
                        span_begin, tl->nowNs() - span_begin,
                        {{"run", std::to_string(i)},
                         {"worker", std::to_string(worker)},
                         {"kernel", meta.workloadName},
                         {"outcome", outcomeName(run.outcome)},
                         {"attempts",
                          std::to_string(done_run.guard.attempts)}});
                }

                if (checkpoint)
                    checkpoint->append(run);
                batch.runs[i - first] = std::move(run);

                uint64_t done =
                    completed.fetch_add(
                        1, std::memory_order_relaxed) +
                    1;
                if (config.progressEvery > 0 &&
                    (done % config.progressEvery == 0 ||
                     done == config.faultyRuns)) {
                    // Throughput and ETA from the same monotonic
                    // clock the campaign timer uses; progress
                    // formatting never feeds results or the
                    // store's cache key.
                    double elapsed_s = static_cast<double>(
                        elapsedNs(campaign_start)) / 1e9;
                    double rate = elapsed_s > 0.0
                        ? static_cast<double>(done) / elapsed_s
                        : 0.0;
                    double eta_s = rate > 0.0
                        ? static_cast<double>(
                              config.faultyRuns - done) / rate
                        : 0.0;
                    inform("campaign %s/%s %s: %llu/%llu runs "
                           "(%.1f runs/s, ETA %.1fs)",
                           meta.deviceName.c_str(),
                           meta.workloadName.c_str(),
                           meta.inputLabel.c_str(),
                           static_cast<unsigned long long>(done),
                           static_cast<unsigned long long>(
                               config.faultyRuns),
                           rate, eta_s);
                }
            }
        }, &batchStats);
        poolStats.absorb(batchStats);
        for (const RawRun &run : batch.runs)
            tally.fold(run);
        ++batches;
        sink.consume(std::move(batch));
    }

    campaignTimer.recordNs(elapsedNs(campaign_start));

    if (tl) {
        tl->lane(0, "campaign")
            .span("simulate", "campaign", simulate_begin,
                  tl->nowNs() - simulate_begin,
                  {{"device", meta.deviceName},
                   {"workload", meta.workloadName},
                   {"input", meta.inputLabel},
                   {"runs",
                    std::to_string(config.faultyRuns)},
                   {"workers", std::to_string(workers)}});
    }

    // Fold the shards (worker order, so the aggregate is
    // deterministic up to timing values) and the outcome tally, pick
    // up the kernel-side instruments that advanced in the global
    // registry, and publish the campaign's own contribution back
    // into the global registry so process-wide tallies stay whole.
    // Pool utilization is published after the kernel diff is taken:
    // it describes the execution shape (worker count, claims),
    // which must never leak into the campaign's own jobs-independent
    // snapshot.
    for (auto &shard : shards)
        campaignReg.merge(shard->reg.snapshot());
    tally.finish(campaignReg);
    StatsSnapshot kernelDiff =
        global.snapshot().since(globalBefore);
    // Gauges always survive a snapshot diff, but a diff cannot
    // attribute a level to this campaign: every gauge in it was set
    // by the process or an earlier campaign ("pool.*", "proc.mem.*",
    // another campaign's sensitive-area gauge), so drop them all.
    // The same goes for the global "pool.*" and "resilience.*"
    // telemetry (watchdog flags, chaos fault tallies) and the
    // "stream.*" batch accounting below: all timing- and
    // process-shaped, while the campaign's own resilience counters
    // (retries, resumed runs) are already in campaignReg and stay
    // deterministic.
    kernelDiff.entries.erase(
        std::remove_if(kernelDiff.entries.begin(),
                       kernelDiff.entries.end(),
                       [](const StatsSnapshot::Entry &e) {
                           return e.kind == StatKind::Gauge ||
                               e.name.rfind("pool.", 0) == 0 ||
                               e.name.rfind("resilience.", 0) ==
                                   0 ||
                               e.name.rfind("stream.", 0) == 0 ||
                               e.name.rfind("store.io.", 0) ==
                                   0 ||
                               e.name.rfind("proc.", 0) == 0;
                       }),
        kernelDiff.entries.end());
    global.merge(campaignReg.snapshot());
    campaignReg.merge(kernelDiff);
    StatsSnapshot simStats = campaignReg.snapshot();
    publishPoolStats(poolStats, global);
    // Batch-shape accounting: global-only, like pool.* — streamed
    // and single-batch campaigns must produce identical campaign
    // snapshots.
    global.counter("stream.batches").inc(batches);
    global.gauge("stream.batch_runs")
        .set(static_cast<double>(batchRuns));
    // Sample RSS at campaign end — the high-water mark is what the
    // streaming pipeline exists to bound. Global-only, like the
    // batch accounting above.
    publishProcMem(global);
    sink.end(simStats);
}

CampaignRaw
simulateCampaign(const DeviceModel &device, Workload &workload,
                 const SimConfig &config)
{
    WorkerPool pool(config.jobs);
    return simulateCampaign(device, workload, config, pool);
}

CampaignRaw
simulateCampaign(const DeviceModel &device, Workload &workload,
                 const SimConfig &config, WorkerPool &pool)
{
    CollectRawSink sink;
    simulateCampaignStream(device, workload, config, pool, sink);
    return sink.take();
}

CampaignResult
analyzeCampaign(const CampaignRaw &raw,
                const AnalysisConfig &config)
{
    AnalysisAccumulator acc(campaignMeta(raw), config);
    for (const RawRun &run : raw.runs)
        acc.fold(run);
    return acc.finish(raw.stats);
}

CampaignResult
runCampaign(const DeviceModel &device, Workload &workload,
            const CampaignConfig &config)
{
    CampaignRaw raw = simulateCampaign(device, workload,
                                       config.sim);
    return analyzeCampaign(raw, config.analysis);
}

} // namespace radcrit
