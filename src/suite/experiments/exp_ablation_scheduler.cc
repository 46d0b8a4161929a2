/**
 * @file
 * Ablation 2 (DESIGN.md Section 6): scheduler philosophy. Swapping
 * the K40's hardware-scheduler strain growth for OS-style (and
 * vice versa) flips the input-size FIT trends of Section V-A —
 * showing that the trend really is carried by the parallelism-
 * management model, not by the kernels.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

double
fitGrowth(SuiteContext &ctx, const DeviceModel &device,
          uint64_t runs)
{
    double lo = ctx.campaignResult(device, dgemmSpec(128), runs)
        .fitTotalAu(false);
    double hi = ctx.campaignResult(device, dgemmSpec(512), runs)
        .fitTotalAu(false);
    return hi / lo;
}

class AblationScheduler : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "ablation_scheduler",
            .tag = "Ablation 2",
            .summary = "scheduler-philosophy swap vs. DGEMM FIT "
                       "growth with input size",
            .order = 61,
            .defaultRuns = 300};
        return info;
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        // Only the stock-device campaigns are declarable; the
        // OS/HW scheduler variants are ad-hoc device models and
        // simulate lazily through the context.
        std::vector<CampaignRequest> reqs;
        for (DeviceId id : allDevices()) {
            reqs.push_back({id, dgemmSpec(128), runs});
            reqs.push_back({id, dgemmSpec(512), runs});
        }
        return reqs;
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);

        TextTable table("Ablation: scheduler philosophy vs DGEMM "
                        "FIT growth (1024 -> 4096 paper sides)");
        table.setHeader({"device variant", "strain exp",
                         "reg exposure", "FIT growth"});

        DeviceModel k40 = makeDevice(DeviceId::K40);
        table.addRow({"K40 (hardware sched)",
                      TextTable::num(k40.schedulerStrainExponent,
                                     2),
                      "yes",
                      TextTable::num(fitGrowth(ctx, k40, runs),
                                     2) + "x"});

        DeviceModel k40_os = k40;
        k40_os.name = "K40+OS-sched";
        k40_os.schedulerStrainExponent = 0.14;
        k40_os.registerResidencyExposure = false;
        table.addRow({"K40 with OS-style scheduling",
                      TextTable::num(
                          k40_os.schedulerStrainExponent, 2),
                      "no",
                      TextTable::num(fitGrowth(ctx, k40_os, runs),
                                     2) + "x"});

        DeviceModel phi = makeDevice(DeviceId::XeonPhi);
        table.addRow({"XeonPhi (OS sched)",
                      TextTable::num(phi.schedulerStrainExponent,
                                     2),
                      "no",
                      TextTable::num(fitGrowth(ctx, phi, runs),
                                     2) + "x"});

        DeviceModel phi_hw = phi;
        phi_hw.name = "XeonPhi+HW-sched";
        phi_hw.schedulerStrainExponent = 0.85;
        phi_hw.registerResidencyExposure = true;
        table.addRow({"XeonPhi with HW-style scheduling",
                      TextTable::num(
                          phi_hw.schedulerStrainExponent, 2),
                      "yes",
                      TextTable::num(fitGrowth(ctx, phi_hw, runs),
                                     2) + "x"});

        table.render(std::cout);
        std::printf("\nPaper V-A: the K40's FIT rises strongly "
                    "with input (hardware scheduler strain + "
                    "register exposure) while the Phi's is nearly "
                    "flat. Removing the K40's hardware-scheduler "
                    "model collapses its growth to ~1x; giving "
                    "the Phi an HW-style strain law barely moves "
                    "it because its scheduling state is software "
                    "(tiny silicon cross-section) and its FIT is "
                    "storage-dominated.\n");
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(AblationScheduler)

} // namespace radcrit
