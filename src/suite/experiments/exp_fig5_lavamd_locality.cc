/**
 * @file
 * Paper Fig. 5: LavaMD spatial locality and magnitude — relative
 * FIT per pattern (cubic/square/line/single/random), All vs > 2%.
 */

#include <cstdio>

#include "campaign/series.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

class Fig5LavamdLocality : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig5_lavamd_locality",
            .tag = "Fig. 5",
            .summary = "LavaMD spatial locality and magnitude "
                       "(relative FIT per 3D error pattern)",
            .order = 23};
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
            renderLocalityFigure(
                ctx,
                "Fig. 5" + panel +
                    ": LavaMD spatial locality and magnitude "
                    "[FIT a.u.]",
                results, patterns3d(),
                std::string("fig5_lavamd_locality_") + device.name +
                    ".csv");
            std::printf("\n");
        }
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Fig5LavamdLocality)

} // namespace radcrit
