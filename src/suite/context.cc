#include "suite/context.hh"

#include <cstdlib>
#include <filesystem>

#include "common/logging.hh"
#include "suite/experiment.hh"
#include "suite/spec.hh"

namespace radcrit
{

std::string
resolveOutputDir(const std::string &cli_value)
{
    if (!cli_value.empty())
        return cli_value;
    const char *env = std::getenv("RADCRIT_BENCH_OUT");
    if (env && *env)
        return env;
    return "bench_out";
}

SuiteContext::SuiteContext(const Options &options,
                           CampaignStore *store, WorkerPool &pool)
    : options_(options), store_(store), pool_(pool),
      recorder_(&ownRecorder_)
{
}

const std::string &
SuiteContext::outputDir()
{
    if (!outDirReady_) {
        outDirReady_ = true;
        std::error_code ec;
        std::filesystem::create_directories(options_.outDir, ec);
        if (ec) {
            warn("cannot create output directory '%s': %s",
                 options_.outDir.c_str(), ec.message().c_str());
        }
    }
    return options_.outDir;
}

uint64_t
SuiteContext::runsFor(const Experiment &experiment) const
{
    if (options_.runsOverride >= 0)
        return static_cast<uint64_t>(options_.runsOverride);
    return experiment.info().defaultRuns;
}

void
SuiteContext::setRecorder(BenchRecorder *recorder)
{
    recorder_ = recorder ? recorder : &ownRecorder_;
}

CampaignRaw
SuiteContext::campaignRaw(const DeviceModel &device,
                          const WorkloadSpec &spec, uint64_t runs)
{
    auto it = plan_.find(campaignPlanKey(device.name, spec, runs));
    if (it != plan_.end()) {
        ++memoryServes_;
        recorder_->addCampaign(it->second.raw.runs.size(), true);
        return it->second.raw;
    }

    // Not in the plan: a campaign on an ad-hoc device variant. The
    // store is looked up by the workload's identity, so a hit builds
    // no workload and computes no golden output.
    WorkloadIdentity id = describeWorkload(device, spec);
    CampaignConfig cfg = defaultCampaign(runs, device.name,
                                         id.traits.name, id.inputLabel);
    cfg.sim.jobs = options_.jobs;
    if (store_) {
        if (auto hit = store_->load(CampaignKey{
                device.name, id.traits.name, id.inputLabel, cfg.sim})) {
            completeStoreHit(*hit, device, id.traits, cfg.sim);
            ++unplannedHits_;
            recorder_->addCampaign(hit->runs.size(), true);
            return std::move(*hit);
        }
    }
    std::unique_ptr<Workload> workload = buildWorkload(device, spec);
    CampaignRaw raw = simulateCampaign(device, *workload, cfg.sim, pool_);
    if (store_)
        store_->save(raw);
    ++unplannedMisses_;
    recorder_->addCampaign(raw.runs.size(), false);
    return raw;
}

CampaignResult
SuiteContext::campaignResult(const DeviceModel &device,
                             const WorkloadSpec &spec, uint64_t runs)
{
    const PlannedCampaign *entry =
        planned(campaignPlanKey(device.name, spec, runs));
    if (entry && entry->defaultAnalysis) {
        // The prepass already folded the default analysis on the
        // worker that simulated or loaded this campaign.
        ++memoryServes_;
        recorder_->addCampaign(entry->raw.runs.size(), true);
        return *entry->defaultAnalysis;
    }

    CampaignRaw raw = campaignRaw(device, spec, runs);
    CampaignConfig cfg = defaultCampaign(runs, device.name,
                                         raw.workloadName,
                                         raw.inputLabel);
    return analyzeCampaign(raw, cfg.analysis);
}

const SuiteContext::PlannedCampaign *
SuiteContext::planned(const std::string &key) const
{
    auto it = plan_.find(key);
    return it == plan_.end() ? nullptr : &it->second;
}

void
SuiteContext::addPlanned(const std::string &key,
                         PlannedCampaign entry)
{
    if (planned(key))
        panic("campaign '%s' planned twice", key.c_str());
    plan_.emplace(key, std::move(entry));
}

} // namespace radcrit
