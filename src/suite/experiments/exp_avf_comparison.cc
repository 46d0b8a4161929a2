/**
 * @file
 * Beam-vs-fault-injection comparison (paper Section IV-D): per-
 * resource AVFs from the campaigns, and the coverage a
 * SASSIFI/NVBitFI-style software injector (registers + memories
 * only) would achieve relative to the beam — quantifying why the
 * paper "take[s] advantage of the controlled neutron beam to
 * perform the error criticality analysis".
 */

#include <cstdio>
#include <iostream>

#include "avf/avf.hh"
#include "common/table.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

void
avfTable(const CampaignResult &res)
{
    TextTable table("Per-resource vulnerability factors: " +
                    res.deviceName + " / " + res.workloadName +
                    " " + res.inputLabel);
    table.setHeader({"resource", "injector?", "strikes",
                     "AVF(any)", "AVF(SDC)", "AVF(critical)"});
    for (const auto &r : computeAvf(res)) {
        table.addRow({resourceKindName(r.resource),
                      injectorAccessible(r.resource) ? "yes"
                                                     : "NO",
                      TextTable::num(r.strikes),
                      TextTable::num(r.avfAny, 2),
                      TextTable::num(r.avfSdc, 2),
                      TextTable::num(r.avfCritical, 2)});
    }
    table.render(std::cout);
}

class AvfComparison : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "avf_comparison",
            .tag = "Sec. IV-D",
            .summary = "per-resource AVFs and software-injector "
                       "coverage of the beam behaviour",
            .order = 43,
            .defaultRuns = 400};
        return info;
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

        TextTable coverage("Software-injector coverage of the "
                           "beam-observed behaviour (paper IV-D)");
        coverage.setHeader({"device", "workload", "strike cov.",
                            "SDC cov.", "critical cov.",
                            "crash/hang cov."});

        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            for (const WorkloadSpec &spec :
                 {dgemmSpec(256), lavamdSpec(LavaMdSize{7, 15}),
                  hotspotSpec()}) {
                CampaignResult res =
                    ctx.campaignResult(device, spec, runs);
                avfTable(res);
                std::printf("\n");
                InjectorCoverage cov = injectorCoverage(res);
                auto pct = [](double f) {
                    return TextTable::num(100.0 * f, 0) + "%";
                };
                coverage.addRow({device.name, res.workloadName,
                                 pct(cov.strikeCoverage),
                                 pct(cov.sdcCoverage),
                                 pct(cov.criticalFitCoverage),
                                 pct(cov.detectableCoverage)});
            }
            coverage.addSeparator();
        }
        coverage.render(std::cout);
        std::printf("\nResources marked 'NO' (schedulers, "
                    "dispatchers, execution-unit logic, control, "
                    "interconnect) are invisible to software fault "
                    "injectors — the coverage gaps above are the "
                    "paper's argument for beam testing.\n");
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(AvfComparison)

} // namespace radcrit
