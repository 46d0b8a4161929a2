/**
 * @file
 * Ablation 3 (DESIGN.md Section 6): sensitivity of the reliability
 * conclusions to the relative-error tolerance. The paper uses 2%
 * "being conservative" and publishes raw logs so users can apply
 * their own filters; this sweep regenerates the K40-vs-Phi DGEMM
 * comparison under thresholds from 0% to 50%.
 *
 * The sweep is the poster child of the simulate/analyze split: each
 * device's campaign is simulated (or loaded from the store) exactly
 * once, and every threshold is a pure analyzeCampaign() pass over
 * the same raw records — zero kernel re-executions.
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

class AblationFilterThreshold : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "ablation_filter_threshold",
            .tag = "Ablation 3",
            .summary = "relative-error tolerance sweep over the "
                       "K40-vs-Phi DGEMM comparison",
            .order = 62,
            .defaultRuns = 400};
        return info;
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        std::vector<CampaignRequest> reqs;
        for (DeviceId id : allDevices())
            reqs.push_back({makeDevice(id), dgemmSpec(256), runs});
        return reqs;
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);

        TextTable table("Ablation: relative-error tolerance sweep "
                        "(DGEMM, paper side 2048)");
        table.setHeader({"threshold%", "K40 FIT", "K40 removed",
                         "Phi FIT", "Phi removed"});

        std::vector<CampaignRaw> raws;
        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            raws.push_back(
                ctx.campaignRaw(device, dgemmSpec(256), runs));
        }

        std::vector<double> thresholds{0.0, 0.5, 1.0, 2.0, 4.0,
                                       10.0, 50.0};
        std::vector<std::vector<std::string>> csv_rows;
        for (double threshold : thresholds) {
            std::vector<std::string> row{
                TextTable::num(threshold, 1)};
            for (const CampaignRaw &raw : raws) {
                AnalysisConfig acfg;
                acfg.filterThresholdPct = threshold;
                CampaignResult res = analyzeCampaign(raw, acfg);
                row.push_back(TextTable::num(res.fitTotalAu(true),
                                             1));
                row.push_back(TextTable::num(
                    100.0 * res.filteredOutFraction(), 0) + "%");
            }
            table.addRow(row);
            csv_rows.push_back(row);
        }
        table.render(std::cout);
        std::printf("\nThe K40's apparent reliability improves "
                    "steeply with tolerance (its errors are "
                    "small); the Phi's barely moves (its errors "
                    "are gross) — the paper's central "
                    "imprecise-computing observation.\n");

        ctx.writeCsv("ablation_filter_threshold.csv",
                     {"thresholdPct", "k40Fit", "k40Removed", "phiFit",
                      "phiRemoved"},
                     csv_rows);
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(AblationFilterThreshold)

} // namespace radcrit
