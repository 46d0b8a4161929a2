/**
 * @file
 * System-scale projection (paper Section I): scale the campaign
 * failure rates to a Titan-class machine (18,688 accelerators),
 * check the "dozens of hours" MTBF the paper quotes, and compute
 * the Young/Daly checkpoint interval and resulting machine
 * efficiency — why criticality-aware tolerance matters at scale.
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/table.hh"
#include "mtbf/projection.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

class MtbfProjection : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "mtbf_projection",
            .tag = "Sec. I",
            .summary = "Titan-scale MTBF/MTBS projection with "
                       "Young/Daly checkpoint efficiency",
            .order = 44,
            .defaultRuns = 300};
        return info;
    }

    void
    addOptions(CliParser &cli) const override
    {
        cli.addInt("devices", 18688,
                   "accelerators in the machine (Titan: 18688)");
        cli.addDouble("fit-per-au", 25.0,
                      "absolute FIT per relative-FIT a.u. "
                      "(anchor)");
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        std::vector<CampaignRequest> reqs;
        for (DeviceId id : allDevices()) {
            reqs.push_back({makeDevice(id), dgemmSpec(256), runs});
            reqs.push_back(
                {makeDevice(id), lavamdSpec(LavaMdSize{7, 15}), runs});
            reqs.push_back({makeDevice(id), hotspotSpec(), runs});
        }
        return reqs;
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);

        SystemConfig system;
        system.devices = ctx.cli()
            ? static_cast<uint64_t>(ctx.cli()->getInt("devices"))
            : 18688;
        system.fitPerAu =
            ctx.cli() ? ctx.cli()->getDouble("fit-per-au") : 25.0;

        TextTable table("System projection: " +
                        TextTable::num(static_cast<uint64_t>(
                            system.devices)) +
                        " devices, anchor " +
                        TextTable::num(system.fitPerAu, 1) +
                        " FIT/a.u.");
        table.setHeader({"device", "workload", "MTBF det. [h]",
                         "MTBS SDC [h]", "MTBS crit. [h]",
                         "Daly ckpt [h]", "efficiency"});

        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            for (const WorkloadSpec &spec :
                 {dgemmSpec(256), lavamdSpec(LavaMdSize{7, 15}),
                  hotspotSpec()}) {
                CampaignResult res =
                    ctx.campaignResult(device, spec, runs);
                SystemProjection p = projectToSystem(res, system);
                table.addRow({device.name, res.workloadName,
                              TextTable::num(
                                  p.mtbfDetectableHours, 1),
                              TextTable::num(p.mtbsSdcHours, 1),
                              TextTable::num(p.mtbsCriticalHours,
                                             1),
                              TextTable::num(p.dalyIntervalHours,
                                             2),
                              TextTable::num(100.0 * p.efficiency,
                                             1) + "%"});
            }
            table.addSeparator();
        }
        table.render(std::cout);
        std::printf("\nMTBS = mean time between (critical) silent "
                    "corruptions. Checkpointing only recovers the "
                    "detectable failures; SDCs silently corrupt "
                    "science, and the 'critical' column shows how "
                    "much breathing room an application tolerance "
                    "buys (paper Sections I-II).\n");
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(MtbfProjection)

} // namespace radcrit
