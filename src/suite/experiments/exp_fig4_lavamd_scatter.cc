/**
 * @file
 * Paper Fig. 4: LavaMD mean relative error vs. incorrect elements.
 * Mean relative errors >= 20,000% plot at 20,000% as in the paper.
 */

#include <cstdio>

#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

class Fig4LavamdScatter : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig4_lavamd_scatter",
            .tag = "Fig. 4",
            .summary = "LavaMD mean relative error vs. incorrect "
                       "elements, per device and input",
            .order = 22};
        return info;
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        return lavamdRequests(runs);
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);
        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            std::vector<CampaignResult> results;
            for (const auto &size : lavamdScaledSizes(id)) {
                results.push_back(ctx.campaignResult(
                    device, lavamdSpec(size), runs));
            }
            std::string panel = id == DeviceId::K40
                ? "(a) K40"
                : "(b) Xeon Phi";
            renderScatterFigure(
                ctx,
                "Fig. 4" + panel +
                    ": LavaMD Mean relative error and Incorrect "
                    "Elements",
                results, 5000.0, 20000.0,
                std::string("fig4_lavamd_scatter_") + device.name +
                    ".csv");
            std::printf("\n");
        }
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Fig4LavamdScatter)

} // namespace radcrit
