/**
 * @file
 * Single-pass, mergeable campaign analysis.
 *
 * AnalysisAccumulator is the streaming core of analyzeCampaign():
 * it folds raw runs one at a time — criticality metrics, tolerance
 * filter, trace emission, telemetry — and produces the same
 * CampaignResult the materialized loop did, byte for byte.
 * Accumulators merge in run order under the same discipline as
 * StatsRegistry::merge, so per-worker shards can fold disjoint
 * index ranges and be combined deterministically.
 *
 * AnalyzeSink adapts the accumulator to the RawObserver interface
 * so analysis can ride directly behind a streaming producer (the
 * engine, a beam-log reader, a store load) and never hold more
 * than one batch of raw records; analyzeCampaignStream() is the
 * pull-side convenience over a RawSource.
 */

#ifndef RADCRIT_CAMPAIGN_ANALYSIS_HH
#define RADCRIT_CAMPAIGN_ANALYSIS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "campaign/runner.hh"
#include "campaign/stream.hh"
#include "metrics/relative_error.hh"
#include "obs/timer.hh"

namespace radcrit
{

class TraceSink;
class Timeline;

/**
 * Fold-style analysis of one campaign. Construction snapshots the
 * campaign identity; fold() consumes runs in index order; finish()
 * seals the result. Pure in its result exactly like
 * analyzeCampaign(): (meta, config, runs) fully determine the
 * returned CampaignResult.
 *
 * Telemetry: the "campaign.phase.metrics" timer and the
 * "<prefix>.filtered" counter accumulate in a private registry and
 * are published globally by finish(). When a trace sink is
 * installed, fold() emits one strike-trace record per run at fold
 * time — so when shards are folded in parallel, trace ordering is
 * only preserved if each shard covers a disjoint ascending range
 * and shards are folded serially or traces are disabled.
 */
class AnalysisAccumulator
{
  public:
    AnalysisAccumulator(const CampaignMeta &meta,
                        const AnalysisConfig &config);

    AnalysisAccumulator(const AnalysisAccumulator &) = delete;
    AnalysisAccumulator &operator=(const AnalysisAccumulator &) =
        delete;

    /** Analyze one raw run and append its RunRecord. */
    void fold(const RawRun &run);

    /**
     * Append another accumulator's records after this one's and
     * absorb its telemetry (StatsRegistry::merge discipline).
     * `other` must have folded the index range following this
     * accumulator's, and must not be used afterwards.
     */
    void merge(AnalysisAccumulator &&other);

    /** @return records folded so far. */
    uint64_t folded() const { return result_.runs.size(); }

    /**
     * Seal the result: emit the timeline span, publish the
     * analysis telemetry globally, and combine it with the
     * simulation-side share.
     *
     * @param simStats the campaign's simulation-side telemetry
     * (CampaignRaw::stats; empty for a standalone beam-log read).
     */
    CampaignResult finish(const StatsSnapshot &simStats);

  private:
    CampaignResult result_;
    StatsRegistry reg_;
    Counter *filteredCount_ = nullptr;
    PhaseTimer metricsTimer_;
    RelativeErrorFilter filter_;
    TraceSink *sink_ = nullptr;
    Timeline *tl_ = nullptr;
    uint64_t analyzeBegin_ = 0;
};

/**
 * RawObserver running an AnalysisAccumulator over the stream. With
 * progressEvery > 0 an inform() line with records-analyzed/s is
 * emitted every that many records (radcrit_cli analyze
 * --progress).
 */
class AnalyzeSink : public RawObserver
{
  public:
    explicit AnalyzeSink(const AnalysisConfig &config,
                         uint64_t progressEvery = 0);

    void begin(const CampaignMeta &meta) override;
    void observe(const RunBatch &batch) override;
    void end(const StatsSnapshot &simStats) override;

    /** @return the sealed result (call after end()). */
    CampaignResult take();

  private:
    AnalysisConfig config_;
    uint64_t progressEvery_ = 0;
    uint64_t total_ = 0;
    std::string deviceName_;
    std::string workloadName_;
    std::string inputLabel_;
    std::chrono::steady_clock::time_point start_;
    std::unique_ptr<AnalysisAccumulator> acc_;
    std::optional<CampaignResult> result_;
};

/**
 * Analyze a streamed campaign: drive `source` through an
 * AnalyzeSink batch by batch, never holding more than one batch of
 * raw records. For a CampaignRawSource over a materialized
 * campaign this returns exactly analyzeCampaign()'s result.
 */
CampaignResult analyzeCampaignStream(RawSource &source,
                                     const AnalysisConfig &config,
                                     uint64_t progressEvery = 0);

} // namespace radcrit

#endif // RADCRIT_CAMPAIGN_ANALYSIS_HH
