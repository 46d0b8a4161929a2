/**
 * @file
 * Paper Fig. 9: CLAMR error locality map — the output as a 2D
 * matrix with corrupted elements marked, showing the wave of
 * incorrect elements propagating from the strike site. Renders in
 * ASCII and writes a full-resolution PPM (red dots, as in the
 * paper's figure).
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/rng.hh"
#include "kernels/clamr.hh"
#include "metrics/locality_map.hh"
#include "sim/sampler.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/render.hh"

namespace radcrit
{
namespace
{

class Fig9ClamrMap : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig9_clamr_map",
            .tag = "Fig. 9",
            .summary = "CLAMR error locality map (ASCII + PPM) of "
                       "one representative faulty run",
            .order = 27};
        return info;
    }

    void
    addOptions(CliParser &cli) const override
    {
        cli.addInt("seed", 2017, "strike selection seed");
        cli.addDouble("time", 0.78,
                      "strike time as a fraction of the run");
    }

    void
    run(SuiteContext &ctx) override
    {
        DeviceModel device = makeDevice(DeviceId::XeonPhi);
        Clamr clamr(device, clamrScaledGrid());

        // One representative faulty run: a garbled update chunk in
        // the middle of the simulation, as in the paper's example
        // map.
        Strike strike;
        strike.resource = ResourceKind::Fpu;
        strike.manifestation = Manifestation::WrongOperation;
        strike.timeFraction =
            ctx.cli() ? ctx.cli()->getDouble("time") : 0.78;
        strike.entropy = ctx.cli()
            ? static_cast<uint64_t>(ctx.cli()->getInt("seed"))
            : 2017;
        Rng rng(strike.entropy);
        SdcRecord rec = clamr.inject(strike, rng);

        std::printf("Fig. 9: CLAMR Error Locality Map "
                    "(%zu incorrect elements, pattern %s)\n",
                    rec.numIncorrect(),
                    patternName(classifyLocality(rec)));
        LocalityMap map(rec);
        map.renderAscii(std::cout, 64);
        std::string ppm = ctx.outputDir() + "/fig9_clamr_map.ppm";
        map.writePpm(ppm);
        std::printf("[ppm] %s\n", ppm.c_str());
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Fig9ClamrMap)

} // namespace radcrit
