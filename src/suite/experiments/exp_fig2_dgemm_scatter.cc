/**
 * @file
 * Paper Fig. 2: DGEMM mean relative error vs. number of incorrect
 * elements per faulty execution, one panel per device, one series
 * per input size. Relative errors >= 100% plot at 100% as in the
 * paper ("we assign a 100% relative error to all those errors with
 * a relative error higher or equal to 100%").
 */

#include <cstdio>

#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

class Fig2DgemmScatter : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig2_dgemm_scatter",
            .tag = "Fig. 2",
            .summary = "DGEMM mean relative error vs. incorrect "
                       "elements, per device and input",
            .order = 20};
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
            renderScatterFigure(
                ctx,
                "Fig. 2" + panel +
                    ": DGEMM Mean relative error and Incorrect "
                    "Elements",
                results, 20000.0, 100.0,
                std::string("fig2_dgemm_scatter_") + device.name +
                    ".csv");
            std::printf("\n");
        }
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Fig2DgemmScatter)

} // namespace radcrit
