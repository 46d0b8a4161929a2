/**
 * @file
 * Paper Fig. 7: HotSpot spatial locality and magnitude. Both
 * architectures present only square and line errors, and 80-95% of
 * faulty executions fall under the 2% filter.
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

class Fig7HotspotLocality : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig7_hotspot_locality",
            .tag = "Fig. 7",
            .summary = "HotSpot spatial locality and magnitude "
                       "(relative FIT per error pattern)",
            .order = 25};
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
        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            std::vector<CampaignResult> results;
            results.push_back(
                ctx.campaignResult(device, hotspotSpec(), runs));
            std::string panel = id == DeviceId::K40
                ? "(a) K40"
                : "(b) Xeon Phi";
            renderLocalityFigure(
                ctx,
                "Fig. 7" + panel +
                    ": HotSpot spatial locality and magnitude "
                    "[FIT a.u.]",
                results, patterns2d(),
                std::string("fig7_hotspot_locality_") +
                    device.name + ".csv");
            std::printf("filtered executions: %.0f%%\n\n",
                        100.0 * results[0].filteredOutFraction());
        }
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Fig7HotspotLocality)

} // namespace radcrit
