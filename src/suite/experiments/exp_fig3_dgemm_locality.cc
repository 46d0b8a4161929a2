/**
 * @file
 * Paper Fig. 3: DGEMM spatial locality and magnitude — relative
 * FIT broken down by error pattern, per input size, All vs > 2%.
 * The paper notes the Phi shows no sub-2% errors, so its filtered
 * bars coincide with the All bars.
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

class Fig3DgemmLocality : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig3_dgemm_locality",
            .tag = "Fig. 3",
            .summary = "DGEMM spatial locality and magnitude "
                       "(relative FIT per error pattern)",
            .order = 21};
        return info;
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        return dgemmRequests(runs);
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);
        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            std::vector<CampaignResult> results;
            for (int64_t side : dgemmScaledSides(id)) {
                results.push_back(ctx.campaignResult(
                    device, dgemmSpec(side), runs));
            }
            std::string panel = id == DeviceId::K40
                ? "(a) K40"
                : "(b) Xeon Phi";
            renderLocalityFigure(
                ctx,
                "Fig. 3" + panel +
                    ": DGEMM spatial locality and magnitude "
                    "[FIT a.u.]",
                results, patterns2d(),
                std::string("fig3_dgemm_locality_") + device.name +
                    ".csv");
            std::printf("\n");
        }
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Fig3DgemmLocality)

} // namespace radcrit
