/**
 * @file
 * Paper Section V opening measurements: SDC : (crash + hang)
 * ratios per device, code and input size. Paper values for
 * comparison: DGEMM K40 1.1-4x (falling with input), Phi ~4x
 * flat; LavaMD K40 ~3x, Phi 3-12x (rising with input); HotSpot
 * K40 ~7x, Phi ~3x.
 */

#include <cmath>
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

/** SDC:(crash+hang) ratio cell; "n/a" when undefined. */
std::string
ratioCell(const CampaignResult &res, int digits)
{
    double ratio = res.sdcOverDetectable();
    return std::isnan(ratio) ? "n/a"
                             : TextTable::num(ratio, digits);
}

void
addRow(TextTable &table, const CampaignResult &res,
       const std::string &paper_band)
{
    table.addRow({res.deviceName, res.workloadName,
                  res.inputLabel,
                  TextTable::num(res.count(Outcome::Sdc)),
                  TextTable::num(res.count(Outcome::Crash)),
                  TextTable::num(res.count(Outcome::Hang)),
                  ratioCell(res, 2),
                  paper_band});
}

class SdcCrashRatios : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "sdc_crash_ratios",
            .tag = "Sec. V",
            .summary = "SDC : (crash+hang) ratios per device, "
                       "workload and input vs. paper bands",
            .order = 30,
            .defaultRuns = 300};
        return info;
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        std::vector<CampaignRequest> reqs = dgemmRequests(runs);
        for (const auto &req : lavamdRequests(runs))
            reqs.push_back(req);
        for (const auto &req : hotspotRequests(runs))
            reqs.push_back(req);
        return reqs;
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);

        TextTable table("SDC : (crash + hang) ratios "
                        "(paper Section V)");
        table.setHeader({"device", "workload", "input", "SDC",
                         "crash", "hang", "SDC:det",
                         "paper band"});

        std::vector<CampaignResult> all;
        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            bool k40 = id == DeviceId::K40;
            for (int64_t side : dgemmScaledSides(id)) {
                auto res = ctx.campaignResult(
                    device, dgemmSpec(side), runs);
                addRow(table, res,
                       k40 ? "1.1-4x, falls w/ input"
                           : "~4x flat");
                all.push_back(std::move(res));
            }
            for (const auto &size : lavamdScaledSizes(id)) {
                auto res = ctx.campaignResult(
                    device, lavamdSpec(size), runs);
                addRow(table, res,
                       k40 ? "~3x" : "3-12x, rises w/ input");
                all.push_back(std::move(res));
            }
            {
                auto res =
                    ctx.campaignResult(device, hotspotSpec(), runs);
                addRow(table, res, k40 ? "~7x" : "~3x");
                all.push_back(std::move(res));
            }
            table.addSeparator();
        }
        table.render(std::cout);

        std::vector<std::vector<std::string>> rows;
        for (const auto &res : all) {
            rows.push_back({res.deviceName, res.workloadName,
                            res.inputLabel,
                            TextTable::num(res.count(Outcome::Sdc)),
                            TextTable::num(res.count(Outcome::Crash)),
                            TextTable::num(res.count(Outcome::Hang)),
                            TextTable::num(res.count(Outcome::Masked)),
                            ratioCell(res, 3)});
        }
        ctx.writeCsv("sdc_crash_ratios.csv",
                     {"device", "workload", "input", "sdc", "crash",
                      "hang", "masked", "ratio"},
                     rows);
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(SdcCrashRatios)

} // namespace radcrit
