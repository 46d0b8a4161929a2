/**
 * @file
 * Paper Section V-A ABFT study: with Huang-Abraham checksums,
 * single and line errors are corrected in linear time; square and
 * random errors are only detected. The paper estimates DGEMM would
 * remain affected by 20-40% of all errors on the K40 and 60-80% on
 * the Xeon Phi. This experiment replays every SDC of a DGEMM
 * campaign through the real ABFT checker and reports the residual.
 */

#include <cstdio>
#include <iostream>

#include "abft/abft_dgemm.hh"
#include "common/csv.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "kernels/dgemm.hh"
#include "sim/sampler.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

class AbftCoverage : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "abft_coverage",
            .tag = "Sec. V-A",
            .summary = "residual DGEMM error rate under "
                       "Huang-Abraham ABFT checksums",
            .order = 40,
            .defaultRuns = 250};
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

        TextTable table("ABFT DGEMM coverage (paper Section V-A)");
        table.setHeader({"device", "input", "SDC", "corrected",
                         "detected", "missed", "residual%",
                         "paper residual"});

        std::vector<std::vector<std::string>> csv_rows;
        for (DeviceId id : allDevices()) {
            DeviceModel device = makeDevice(id);
            for (int64_t side : dgemmScaledSides(id)) {
                Dgemm dgemm(device, side);
                AbftDgemm abft(dgemm.a(), dgemm.b(), side);
                CampaignConfig cfg = defaultCampaign(
                    runs, device.name, dgemm.name(),
                    dgemm.inputLabel());
                CampaignResult res = ctx.campaignResult(
                    device, dgemmSpec(side), runs);

                uint64_t sdc = 0, corrected = 0, detected = 0,
                    missed = 0;
                Rng rng(cfg.sim.seed);
                for (const auto &run : res.runs) {
                    if (run.outcome != Outcome::Sdc)
                        continue;
                    ++sdc;
                    // Replay the strike to materialize the
                    // corrupted output, then run the checker.
                    SdcRecord rec = dgemm.inject(run.strike, rng);
                    auto c = dgemm.materializeOutput(rec);
                    auto verdict = abft.checkAndCorrect(c);
                    switch (verdict.status) {
                      case AbftDgemm::Status::Corrected:
                        ++corrected;
                        break;
                      case AbftDgemm::Status::
                          DetectedUncorrectable:
                        ++detected;
                        break;
                      case AbftDgemm::Status::Clean:
                        ++missed; // below checksum tolerance
                        break;
                    }
                }
                // Residual = errors ABFT cannot transparently
                // absorb (detected-but-uncorrectable;
                // sub-tolerance misses are by definition
                // insignificant corruption).
                double residual = sdc
                    ? 100.0 * static_cast<double>(detected) /
                        static_cast<double>(sdc)
                    : 0.0;
                table.addRow({device.name, dgemm.inputLabel(),
                              TextTable::num(sdc),
                              TextTable::num(corrected),
                              TextTable::num(detected),
                              TextTable::num(missed),
                              TextTable::num(residual, 0) + "%",
                              id == DeviceId::K40 ? "20-40%"
                                                  : "60-80%"});
                csv_rows.push_back({device.name,
                                    dgemm.inputLabel(),
                                    TextTable::num(sdc),
                                    TextTable::num(corrected),
                                    TextTable::num(detected),
                                    TextTable::num(missed),
                                    TextTable::num(residual, 2)});
            }
            table.addSeparator();
        }
        table.render(std::cout);
        std::printf("\nNote: with ABFT applied to both devices, "
                    "the residual error rates become comparable "
                    "(paper V-A).\n");

        if (ctx.writeCsv()) {
            std::string path = ctx.outputDir() +
                "/abft_coverage.csv";
            CsvWriter w(path);
            w.writeRow({"device", "input", "sdc", "corrected",
                        "detected", "missed", "residualPct"});
            for (const auto &row : csv_rows)
                w.writeRow(row);
            std::printf("[csv] %s\n", path.c_str());
        }
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(AbftCoverage)

} // namespace radcrit
