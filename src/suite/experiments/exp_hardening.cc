/**
 * @file
 * Selective-hardening study (paper Section VI future work): rank
 * each device/workload's resources by critical-FIT contribution,
 * then run the greedy advisor under an area budget and report how
 * much critical FIT targeted hardening removes.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/cli.hh"
#include "common/table.hh"
#include "harden/advisor.hh"
#include "harden/attribution.hh"
#include "kernels/dgemm.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

void
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
}

void
advisorStudy(const DeviceModel &device, double budget,
             uint64_t runs)
{
    WorkloadFactory factory = [](const DeviceModel &d) {
        return std::make_unique<Dgemm>(d, 256, 42);
    };
    auto plan = advise(device, factory, budget, runs, 77);
    TextTable table("Greedy hardening plan: " + device.name +
                    " / DGEMM, budget " +
                    TextTable::num(budget, 0) + "% area");
    table.setHeader({"step", "technique", "cost%", "cum%",
                     "criticalFIT before", "after", "gain"});
    int step_no = 1;
    for (const auto &step : plan) {
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
        // The attribution tables' campaigns. The advisor runs its
        // own campaigns, with a dedicated seed, outside the plan.
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

        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            attributionTable(ctx, device, dgemmSpec(256), runs);
            attributionTable(ctx, device,
                             lavamdSpec(LavaMdSize{7, 15}), runs);
        }
        for (DeviceId id : allDevices())
            advisorStudy(makeDevice(id), budget, runs);
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Hardening)

} // namespace radcrit
