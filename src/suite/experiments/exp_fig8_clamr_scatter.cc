/**
 * @file
 * Paper Fig. 8: CLAMR mean relative error and incorrect elements
 * on the Xeon Phi (the paper has no K40 data: CLAMR is a LANL
 * proprietary workload targeted at Xeon-Phi-based Trinity).
 */

#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

class Fig8ClamrScatter : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig8_clamr_scatter",
            .tag = "Fig. 8",
            .summary = "CLAMR mean relative error vs. incorrect "
                       "elements (Xeon Phi only)",
            .order = 26,
            .defaultRuns = 150};
        return info;
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        return clamrRequests(runs);
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);
        DeviceModel device = makeDevice(DeviceId::XeonPhi);
        std::vector<CampaignResult> results;
        results.push_back(
            ctx.campaignResult(device, clamrSpec(), runs));
        renderScatterFigure(
            ctx,
            "Fig. 8: CLAMR Mean relative error and Incorrect "
            "Elements (Xeon Phi)",
            results, 0.0, 100.0, "fig8_clamr_scatter.csv");
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Fig8ClamrScatter)

} // namespace radcrit
