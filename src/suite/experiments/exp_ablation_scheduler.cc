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
#include <utility>
#include <vector>

#include "common/table.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

/** One table row: a device variant under its row label. */
struct SchedulerVariant
{
    const char *label;
    DeviceModel device;
};

/**
 * @return the stock devices and their scheduler-swapped variants,
 * in table order. A variant's name is part of its campaigns' labels,
 * so it fixes their seeds.
 */
std::vector<SchedulerVariant>
schedulerVariants()
{
    DeviceModel k40 = makeDevice(DeviceId::K40);
    DeviceModel k40_os = k40;
    k40_os.name = "K40+OS-sched";
    k40_os.schedulerStrainExponent = 0.14;
    k40_os.registerResidencyExposure = false;

    DeviceModel phi = makeDevice(DeviceId::XeonPhi);
    DeviceModel phi_hw = phi;
    phi_hw.name = "XeonPhi+HW-sched";
    phi_hw.schedulerStrainExponent = 0.85;
    phi_hw.registerResidencyExposure = true;

    return {{"K40 (hardware sched)", std::move(k40)},
            {"K40 with OS-style scheduling", std::move(k40_os)},
            {"XeonPhi (OS sched)", std::move(phi)},
            {"XeonPhi with HW-style scheduling", std::move(phi_hw)}};
}

/** The two DGEMM inputs whose FIT ratio the table reports. */
constexpr int64_t kSmallSide = 128;
constexpr int64_t kLargeSide = 512;

double
fitGrowth(SuiteContext &ctx, const DeviceModel &device,
          uint64_t runs)
{
    double lo = ctx.campaignResult(device, dgemmSpec(kSmallSide), runs)
        .fitTotalAu(false);
    double hi = ctx.campaignResult(device, dgemmSpec(kLargeSide), runs)
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
        std::vector<CampaignRequest> reqs;
        for (SchedulerVariant &v : schedulerVariants()) {
            reqs.push_back({v.device, dgemmSpec(kSmallSide), runs});
            reqs.push_back(
                {std::move(v.device), dgemmSpec(kLargeSide), runs});
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
        for (const SchedulerVariant &v : schedulerVariants()) {
            table.addRow(
                {v.label,
                 TextTable::num(v.device.schedulerStrainExponent, 2),
                 v.device.registerResidencyExposure ? "yes" : "no",
                 TextTable::num(fitGrowth(ctx, v.device, runs), 2) +
                     "x"});
        }

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
