/**
 * @file
 * Paper Sections V-C / V-D detector studies:
 *  - HotSpot entropy check: widespread low-magnitude stencil
 *    corruption is hard to spot element-wise; distribution entropy
 *    drift flags it at a checkpoint.
 *  - CLAMR mass-conservation check: total mass is invariant, so a
 *    final-sum check detects most strikes (ref. [4] reports 82%
 *    fault coverage; momentum-only corruption escapes).
 *
 * Both checks read the SDC records of their planned campaigns: the
 * corrupted final state is the golden one with the record's reads
 * substituted.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "abft/detectors.hh"
#include "kernels/clamr.hh"
#include "kernels/hotspot.hh"
#include "metrics/filter.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"

namespace radcrit
{
namespace
{

/** Detector verdicts over one campaign's SDC runs. */
struct Coverage
{
    unsigned long long sdc = 0;
    unsigned long long detected = 0;
    /** SDCs with an element beyond the 2% tolerance. */
    unsigned long long critical = 0;
    unsigned long long criticalDetected = 0;
};

Coverage
coverage(const CampaignRaw &raw,
         const std::function<bool(const SdcRecord &)> &detect)
{
    RelativeErrorFilter filter(2.0);
    Coverage cov;
    for (const RawRun &run : raw.runs) {
        if (run.outcome != Outcome::Sdc)
            continue;
        bool hit = detect(run.record);
        ++cov.sdc;
        cov.detected += hit;
        if (!filter.removesExecution(run.record)) {
            ++cov.critical;
            cov.criticalDetected += hit;
        }
    }
    return cov;
}

std::vector<std::string>
csvRow(const char *check, const DeviceModel &device,
       const Workload &workload, const Coverage &c)
{
    return {check, device.name, workload.name(),
            std::to_string(c.sdc), std::to_string(c.detected),
            std::to_string(c.critical),
            std::to_string(c.criticalDetected)};
}

class Detectors : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "detectors",
            .tag = "Sec. V-C/D",
            .summary = "application-level SDC detectors: CLAMR "
                       "mass check and HotSpot entropy check",
            .order = 41};
        return info;
    }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        return {{makeDevice(DeviceId::XeonPhi), clamrSpec(), runs},
                {makeDevice(DeviceId::K40), hotspotSpec(), runs}};
    }

    void
    run(SuiteContext &ctx) override
    {
        uint64_t runs = ctx.runsFor(*this);
        std::printf("=== Application-level SDC detectors "
                    "(paper V-C / V-D) ===\n\n");

        DeviceModel phi = makeDevice(DeviceId::XeonPhi);
        Clamr clamr(phi, clamrScaledGrid());
        MassChecker checker(clamr.goldenMass(), 1e-9);
        Coverage mass = coverage(
            ctx.campaignRaw(phi, clamrSpec(), runs),
            [&](const SdcRecord &rec) {
                return checker.detect(clamr.recordMass(rec));
            });
        std::printf("CLAMR mass-conservation check: %llu/%llu SDCs "
                    "detected = %.0f%% coverage "
                    "(paper ref. [4]: 82%%)\n\n",
                    mass.detected, mass.sdc,
                    mass.sdc ? 100.0 * mass.detected / mass.sdc : 0.0);

        DeviceModel k40 = makeDevice(DeviceId::K40);
        HotSpot hotspot(k40, hotspotScaledGrid());
        EntropyDetector detector(hotspot.goldenTemp(), 64, 0.005);
        Coverage entropy = coverage(
            ctx.campaignRaw(k40, hotspotSpec(), runs),
            [&](const SdcRecord &rec) {
                return detector.detect(materializeField(
                    hotspot.goldenTemp(), rec, hotspot.grid()));
            });
        std::printf("HotSpot entropy check: %llu/%llu of all SDCs "
                    "flagged; %llu/%llu of >2%% SDCs flagged\n",
                    entropy.detected, entropy.sdc,
                    entropy.criticalDetected, entropy.critical);
        std::printf("  (the check trades coverage against how often "
                    "it runs; here: once on the final state)\n");

        ctx.writeCsv("detectors.csv",
                     {"check", "device", "workload", "sdc", "detected",
                      "sdcAbove2pct", "detectedAbove2pct"},
                     {csvRow("mass", phi, clamr, mass),
                      csvRow("entropy", k40, hotspot, entropy)});
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Detectors)

} // namespace radcrit
