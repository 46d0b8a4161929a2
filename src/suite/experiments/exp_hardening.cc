/**
 * @file
 * Selective-hardening study (paper Section VI future work): rank
 * each device/workload's resources by critical-FIT contribution,
 * then run the greedy advisor on the DGEMM attribution under an
 * area budget and report how much critical FIT targeted hardening
 * removes.
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "harden/advisor.hh"
#include "harden/attribution.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

/** Print the campaign's attribution table; @return the table. */
std::vector<ResourceCriticality>
attributionTable(SuiteContext &ctx, const DeviceModel &device,
                 const WorkloadSpec &spec, uint64_t runs)
{
    CampaignResult res = ctx.campaignResult(device, spec, runs);
    auto attribution = attributeCriticality(res, device);
    TextTable table("Criticality attribution: " + device.name +
                    " / " + res.workloadName + " " +
                    res.inputLabel);
    table.setHeader({"resource", "weight%", "strikes", "SDC",
                     "critical", "crash+hang", "criticalFIT"});
    for (const auto &r : attribution) {
        table.addRow({resourceKindName(r.resource),
                      TextTable::num(100.0 * r.weightShare, 1),
                      TextTable::num(r.strikes),
                      TextTable::num(r.sdcRuns),
                      TextTable::num(r.criticalRuns),
                      TextTable::num(r.detectableRuns),
                      TextTable::num(r.criticalFitAu, 2)});
    }
    table.render(std::cout);
    std::printf("\n");
    return attribution;
}

/** Print the device's greedy plan and add its rows to `csv`. */
void
advisorStudy(const DeviceModel &device,
             const std::vector<ResourceCriticality> &baseline,
             double budget, std::vector<std::vector<std::string>> &csv)
{
    auto plan = advise(device, baseline, budget);
    TextTable table("Greedy hardening plan: " + device.name +
                    " / DGEMM, budget " +
                    TextTable::num(budget, 0) + "% area");
    table.setHeader({"step", "technique", "cost%", "cum%",
                     "criticalFIT before", "after", "gain"});
    int step_no = 1;
    for (const auto &step : plan) {
        csv.push_back({device.name,
                       TextTable::num(static_cast<int64_t>(step_no)),
                       step.option.technique,
                       TextTable::num(step.option.areaCostPct, 1),
                       TextTable::num(step.cumulativeCostPct, 1),
                       TextTable::num(step.fitBefore, 4),
                       TextTable::num(step.fitAfter, 4)});
        table.addRow({
            TextTable::num(static_cast<int64_t>(step_no++)),
            step.option.technique,
            TextTable::num(step.option.areaCostPct, 1),
            TextTable::num(step.cumulativeCostPct, 1),
            TextTable::num(step.fitBefore, 2),
            TextTable::num(step.fitAfter, 2),
            TextTable::num(100.0 * (1.0 - step.fitAfter /
                                    step.fitBefore), 0) + "%"});
    }
    table.render(std::cout);
    if (!plan.empty()) {
        std::printf("total: %.1f%% area removes %.0f%% of "
                    "critical FIT\n\n",
                    plan.back().cumulativeCostPct,
                    100.0 * (1.0 - plan.back().fitAfter /
                             plan.front().fitBefore));
    }
}

class Hardening : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "hardening",
            .tag = "Sec. VI",
            .summary = "criticality attribution and greedy "
                       "selective-hardening advisor",
            .order = 42,
            .defaultRuns = 300};
        return info;
    }

    void
    addOptions(CliParser &cli) const override
    {
        cli.addDouble("budget", 12.0, "area budget in percent");
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        // The attribution tables' campaigns; the advisor reweights
        // the DGEMM ones.
        std::vector<CampaignRequest> reqs;
        for (DeviceId id : allDevices()) {
            reqs.push_back({makeDevice(id), dgemmSpec(256), runs});
            reqs.push_back(
                {makeDevice(id), lavamdSpec(LavaMdSize{7, 15}), runs});
        }
        return reqs;
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);
        double budget =
            ctx.cli() ? ctx.cli()->getDouble("budget") : 12.0;

        std::vector<std::pair<DeviceModel,
                              std::vector<ResourceCriticality>>>
            dgemm;
        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            dgemm.emplace_back(device, attributionTable(
                                           ctx, device,
                                           dgemmSpec(256), runs));
            attributionTable(ctx, device,
                             lavamdSpec(LavaMdSize{7, 15}), runs);
        }
        std::vector<std::vector<std::string>> csv_rows;
        for (const auto &[device, baseline] : dgemm)
            advisorStudy(device, baseline, budget, csv_rows);

        ctx.writeCsv("hardening_plan.csv",
                     {"device", "step", "technique", "costPct",
                      "cumulativePct", "criticalFitBefore",
                      "criticalFitAfter"},
                     csv_rows);
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Hardening)

} // namespace radcrit
