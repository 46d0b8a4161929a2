/**
 * @file
 * Paper Fig. 6: HotSpot mean relative error vs. incorrect
 * elements. Counts >= 50,000 plot at 50,000 (scaled: the clamp
 * scales with the grid) and the mean relative error stays below
 * 25% — the stencil-dissipation signature.
 */

#include <cstdio>

#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

class Fig6HotspotScatter : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig6_hotspot_scatter",
            .tag = "Fig. 6",
            .summary = "HotSpot mean relative error vs. incorrect "
                       "elements, per device",
            .order = 24};
        return info;
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        return hotspotRequests(runs);
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);

        // Paper clamps at 50k elements of a 1024^2 grid; the scaled
        // clamp keeps the same fraction of our 256^2 grid.
        double count_clamp = 50000.0 / 16.0;

        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            std::vector<CampaignResult> results;
            results.push_back(
                ctx.campaignResult(device, hotspotSpec(), runs));
            std::string panel = id == DeviceId::K40
                ? "(a) K40"
                : "(b) Xeon Phi";
            renderScatterFigure(
                ctx,
                "Fig. 6" + panel +
                    ": HotSpot Mean relative error and Incorrect "
                    "Elements",
                results, count_clamp, 25.0,
                std::string("fig6_hotspot_scatter_") + device.name +
                    ".csv");
            std::printf("\n");
        }
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Fig6HotspotScatter)

} // namespace radcrit
