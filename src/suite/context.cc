#include "suite/context.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/csv.hh"
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

void
SuiteContext::writeCsv(const std::string &name,
                       const std::vector<std::string> &header,
                       const std::vector<std::vector<std::string>> &rows)
{
    if (!writeCsv())
        return;
    std::string path = outputDir() + "/" + name;
    CsvWriter csv(path);
    csv.writeRow(header);
    for (const auto &row : rows)
        csv.writeRow(row);
    std::printf("[csv] %s\n", path.c_str());
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

const SuiteContext::PlannedCampaign &
SuiteContext::serve(const DeviceModel &device, const WorkloadSpec &spec,
                    uint64_t runs)
{
    const PlannedCampaign *entry =
        planned(campaignPlanKey(device.name, spec, runs));
    if (!entry) {
        panic("undeclared campaign consumed: device %s, workload %s, "
              "input %s, %llu runs (an experiment must declare every "
              "campaign it consumes in campaigns())",
              device.name.c_str(), workloadKindName(spec.kind),
              specInputLabel(spec).c_str(),
              static_cast<unsigned long long>(runs));
    }
    ++memoryServes_;
    recorder_->addCampaign(entry->raw.runs.size());
    return *entry;
}

const CampaignRaw &
SuiteContext::campaignRaw(const DeviceModel &device,
                          const WorkloadSpec &spec, uint64_t runs)
{
    return serve(device, spec, runs).raw;
}

CampaignResult
SuiteContext::campaignResult(const DeviceModel &device,
                             const WorkloadSpec &spec, uint64_t runs)
{
    const PlannedCampaign &entry = serve(device, spec, runs);
    // The prepass folds the default analysis on the worker that
    // simulated or loaded the campaign, unless a side channel was
    // armed.
    if (entry.defaultAnalysis)
        return *entry.defaultAnalysis;
    CampaignConfig cfg = defaultCampaign(runs, device.name,
                                         entry.raw.workloadName,
                                         entry.raw.inputLabel);
    return analyzeCampaign(entry.raw, cfg.analysis);
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
