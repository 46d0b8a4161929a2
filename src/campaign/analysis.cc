#include "campaign/analysis.hh"

#include <utility>

#include "common/logging.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"

namespace radcrit
{

AnalysisAccumulator::AnalysisAccumulator(
    const CampaignMeta &meta, const AnalysisConfig &config)
    : filteredCount_(&reg_.counter(
          campaignStatsPrefix(meta.deviceName, meta.workloadName) +
          ".filtered")),
      metricsTimer_(reg_, "campaign.phase.metrics"),
      filter_(config.filterThresholdPct), sink_(traceSink()),
      tl_(timeline())
{
    result_.deviceName = meta.deviceName;
    result_.workloadName = meta.workloadName;
    result_.inputLabel = meta.inputLabel;
    result_.config.sim = meta.sim;
    result_.config.analysis = config;
    result_.launch = meta.launch;
    result_.sensitiveAreaAu = meta.sensitiveAreaAu;
    analyzeBegin_ = tl_ ? tl_->nowNs() : 0;
}

void
AnalysisAccumulator::fold(const RawRun &in)
{
    result_.runs.emplace_back();
    RunRecord &out = result_.runs.back();
    out.index = in.index;
    out.strike = in.strike;
    out.outcome = in.outcome;
    if (in.outcome == Outcome::Sdc) {
        ScopedTick tick(metricsTimer_);
        out.crit = analyzeCriticality(
            in.record, filter_, result_.config.analysis.locality);
        if (out.crit.executionFiltered)
            filteredCount_->inc();
    }

    if (sink_) {
        StrikeTraceRecord rec;
        rec.run = in.index;
        rec.device = result_.deviceName;
        rec.workload = result_.workloadName;
        rec.input = result_.inputLabel;
        rec.resource = in.strike.resource;
        rec.manifestation = in.strike.manifestation;
        rec.timeFraction = in.strike.timeFraction;
        rec.burstBits = in.strike.burstBits;
        rec.outcome = in.outcome;
        rec.numIncorrect = out.crit.numIncorrect;
        rec.meanRelErrPct = out.crit.meanRelErrPct;
        rec.pattern = out.crit.pattern;
        rec.executionFiltered = out.crit.executionFiltered;
        rec.wallNs = in.wallNs;
        sink_->strike(rec);
    }
}

void
AnalysisAccumulator::merge(AnalysisAccumulator &&other)
{
    result_.runs.insert(
        result_.runs.end(),
        std::make_move_iterator(other.result_.runs.begin()),
        std::make_move_iterator(other.result_.runs.end()));
    reg_.merge(other.reg_.snapshot());
}

CampaignResult
AnalysisAccumulator::finish(const StatsSnapshot &simStats)
{
    if (tl_) {
        tl_->lane(0, "campaign")
            .span("analyze", "campaign", analyzeBegin_,
                  tl_->nowNs() - analyzeBegin_,
                  {{"device", result_.deviceName},
                   {"workload", result_.workloadName},
                   {"runs",
                    std::to_string(result_.runs.size())}});
    }

    // result.stats is the union of the simulation-side telemetry
    // and this analysis pass; the analysis share is also published
    // globally so process-wide tallies stay whole.
    StatsSnapshot analysisSnap = reg_.snapshot();
    StatsRegistry::global().merge(analysisSnap);
    StatsRegistry combined;
    combined.merge(simStats);
    combined.merge(analysisSnap);
    result_.stats = combined.snapshot();
    return std::move(result_);
}

AnalyzeSink::AnalyzeSink(const AnalysisConfig &config,
                         uint64_t progressEvery)
    : config_(config), progressEvery_(progressEvery)
{
}

void
AnalyzeSink::begin(const CampaignMeta &meta)
{
    total_ = meta.sim.faultyRuns;
    deviceName_ = meta.deviceName;
    workloadName_ = meta.workloadName;
    inputLabel_ = meta.inputLabel;
    start_ = std::chrono::steady_clock::now();
    acc_ = std::make_unique<AnalysisAccumulator>(meta, config_);
    result_.reset();
}

void
AnalyzeSink::observe(const RunBatch &batch)
{
    for (const RawRun &run : batch.runs) {
        acc_->fold(run);
        uint64_t done = acc_->folded();
        if (progressEvery_ > 0 &&
            (done % progressEvery_ == 0 || done == total_)) {
            double elapsed_s =
                std::chrono::duration_cast<
                    std::chrono::duration<double>>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            double rate = elapsed_s > 0.0
                ? static_cast<double>(done) / elapsed_s
                : 0.0;
            inform("analyze %s/%s %s: %llu/%llu records "
                   "(%.1f records/s)",
                   deviceName_.c_str(), workloadName_.c_str(),
                   inputLabel_.c_str(),
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total_), rate);
        }
    }
}

void
AnalyzeSink::end(const StatsSnapshot &simStats)
{
    result_ = acc_->finish(simStats);
    acc_.reset();
}

CampaignResult
AnalyzeSink::take()
{
    if (!result_)
        fatal("AnalyzeSink::take() before the stream ended");
    CampaignResult out = std::move(*result_);
    result_.reset();
    return out;
}

CampaignResult
analyzeCampaignStream(RawSource &source,
                      const AnalysisConfig &config,
                      uint64_t progressEvery)
{
    AnalyzeSink sink(config, progressEvery);
    pumpRaw(source, sink);
    return sink.take();
}

} // namespace radcrit
