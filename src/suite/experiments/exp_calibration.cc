/**
 * @file
 * Calibration harness: prints every paper-band quantity the model
 * must reproduce, per (device, workload, input):
 *
 *  - outcome mix and the SDC : (crash + hang) ratio (paper V intro)
 *  - fraction of SDC runs fully removed by the 2% filter
 *  - mean-relative-error quartiles
 *  - spatial-pattern shares (All and filtered)
 *  - total relative FIT (All and filtered)
 *
 * Not one of the paper's figures itself; this is the tuning loop
 * for the device-model constants (see DESIGN.md Section 6).
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/sampler.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

void
summarize(const CampaignResult &res, TextTable &table)
{
    uint64_t sdc = res.count(Outcome::Sdc);
    std::vector<double> errs;
    std::array<uint64_t, numPatterns> pat{};
    std::array<uint64_t, numPatterns> patf{};
    RunningStat incorrect;
    for (const auto &run : res.runs) {
        if (run.outcome != Outcome::Sdc)
            continue;
        errs.push_back(run.crit.meanRelErrPct);
        pat[static_cast<size_t>(run.crit.pattern)]++;
        if (!run.crit.executionFiltered)
            patf[static_cast<size_t>(run.crit.patternFiltered)]++;
        incorrect.add(static_cast<double>(run.crit.numIncorrect));
    }
    auto pct = [&](uint64_t n) {
        return sdc ? 100.0 * static_cast<double>(n) /
            static_cast<double>(sdc) : 0.0;
    };
    std::string pat_str;
    for (size_t i = 0; i < numPatterns; ++i) {
        if (pat[i] == 0)
            continue;
        pat_str += std::string(patternName(
            static_cast<Pattern>(i))) + ":" +
            TextTable::num(pct(pat[i]), 0) + "% ";
    }
    table.addRow({
        res.deviceName, res.workloadName, res.inputLabel,
        TextTable::num(sdc),
        TextTable::num(res.count(Outcome::Crash)),
        TextTable::num(res.count(Outcome::Hang)),
        TextTable::num(res.count(Outcome::Masked)),
        std::isnan(res.sdcOverDetectable())
            ? "n/a"
            : TextTable::num(res.sdcOverDetectable(), 2),
        TextTable::num(100.0 * res.filteredOutFraction(), 0) +
            "%",
        errs.empty() ? "-" : TextTable::num(quantile(errs, 0.5),
                                            1),
        TextTable::num(incorrect.mean(), 0),
        TextTable::num(res.fitTotalAu(false), 1),
        TextTable::num(res.fitTotalAu(true), 1),
        pat_str,
    });
}

/** Per-resource breakdown: strikes, outcome mix, filtered share. */
void
detail(const CampaignResult &res)
{
    std::printf("--- %s %s %s: per-resource detail ---\n",
                res.deviceName.c_str(), res.workloadName.c_str(),
                res.inputLabel.c_str());
    StrikeSampler sampler(makeDevice(
        res.deviceName == "K40" ? DeviceId::K40
                                : DeviceId::XeonPhi), res.launch);
    TextTable t;
    t.setHeader({"resource", "weight%", "strikes", "sdc", "crash",
                 "hang", "masked", "filtered%", "medRelErr%"});
    for (size_t i = 0; i < numResourceKinds; ++i) {
        auto kind = static_cast<ResourceKind>(i);
        uint64_t strikes = 0;
        std::array<uint64_t, numOutcomes> mix{};
        uint64_t filt = 0, sdc = 0;
        std::vector<double> errs;
        for (const auto &run : res.runs) {
            if (run.strike.resource != kind)
                continue;
            ++strikes;
            mix[static_cast<size_t>(run.outcome)]++;
            if (run.outcome == Outcome::Sdc) {
                ++sdc;
                errs.push_back(run.crit.meanRelErrPct);
                if (run.crit.executionFiltered)
                    ++filt;
            }
        }
        if (!strikes)
            continue;
        t.addRow({resourceKindName(kind),
                  TextTable::num(100.0 * sampler.weight(kind) /
                                 sampler.totalWeight(), 1),
                  TextTable::num(strikes),
                  TextTable::num(mix[1]), TextTable::num(mix[2]),
                  TextTable::num(mix[3]), TextTable::num(mix[0]),
                  sdc ? TextTable::num(
                            100.0 * static_cast<double>(filt) /
                            static_cast<double>(sdc), 0)
                      : "-",
                  errs.empty() ? "-"
                               : TextTable::num(
                                     quantile(errs, 0.5), 2)});
    }
    std::fputs(t.toString().c_str(), stdout);
}

class Calibration : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "calibration",
            .tag = "tuning",
            .summary = "paper-band calibration summary across all "
                       "devices, workloads and inputs",
            .order = 50,
            .defaultRuns = 400};
        return info;
    }

    void
    addOptions(CliParser &cli) const override
    {
        cli.addString("only", "", "restrict to one workload name");
        cli.addFlag("detail", "print per-resource breakdowns");
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        // Declares the full canonical set: campaigns() sees no
        // options, so --only restricts only what run() prints.
        std::vector<CampaignRequest> reqs = dgemmRequests(runs);
        for (const auto &req : lavamdRequests(runs))
            reqs.push_back(req);
        for (const auto &req : hotspotRequests(runs))
            reqs.push_back(req);
        for (const auto &req : clamrRequests(runs))
            reqs.push_back(req);
        return reqs;
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);
        std::string only =
            ctx.cli() ? ctx.cli()->getString("only") : "";
        bool want_detail =
            ctx.cli() ? ctx.cli()->getFlag("detail") : false;

        TextTable table("=== radcrit calibration summary ===");
        table.setHeader({"device", "workload", "input", "SDC",
                         "crash", "hang", "masked", "SDC:det",
                         "filtered", "medianRelErr%",
                         "meanIncorrect", "FITall", "FIT>2%",
                         "patterns"});

        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);

            if (only.empty() || only == "DGEMM") {
                for (int64_t side : dgemmScaledSides(id)) {
                    auto res = ctx.campaignResult(
                        device, dgemmSpec(side), runs);
                    if (want_detail)
                        detail(res);
                    summarize(res, table);
                }
                table.addSeparator();
            }
            if (only.empty() || only == "LavaMD") {
                for (const auto &size : lavamdScaledSizes(id)) {
                    auto res = ctx.campaignResult(
                        device, lavamdSpec(size), runs);
                    if (want_detail)
                        detail(res);
                    summarize(res, table);
                }
                table.addSeparator();
            }
            if (only.empty() || only == "HotSpot") {
                auto res =
                    ctx.campaignResult(device, hotspotSpec(), runs);
                if (want_detail)
                    detail(res);
                summarize(res, table);
                table.addSeparator();
            }
            if ((only.empty() || only == "CLAMR") &&
                id == DeviceId::XeonPhi) {
                auto res =
                    ctx.campaignResult(device, clamrSpec(), runs);
                if (want_detail)
                    detail(res);
                summarize(res, table);
            }
        }
        std::fputs(table.toString().c_str(), stdout);
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Calibration)

} // namespace radcrit
