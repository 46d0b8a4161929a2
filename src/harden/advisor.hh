/**
 * @file
 * Selective-hardening advisor (paper Section VI future work).
 *
 * Given a device, the per-resource criticality of one campaign on
 * it, and an area budget, the advisor greedily picks the hardening
 * techniques (ECC upgrades, residue-checked execution units,
 * protected scheduler state, ...) that remove the most critical
 * FIT per unit of area cost. A technique scales one resource's
 * strike-sampler weight by its survivalScale and nothing else the
 * campaign reads, so a hardened device's critical FIT is the
 * baseline's per-resource critical FIT reweighted (DESIGN.md): the
 * advisor simulates nothing. The result quantifies the paper's
 * closing claim that criticality attribution makes targeted
 * hardening cheap.
 */

#ifndef RADCRIT_HARDEN_ADVISOR_HH
#define RADCRIT_HARDEN_ADVISOR_HH

#include <string>
#include <vector>

#include "arch/device.hh"
#include "harden/attribution.hh"

namespace radcrit
{

/** One applicable hardening technique. */
struct HardeningOption
{
    /** Resource the technique protects. */
    ResourceKind resource = ResourceKind::NumKinds;
    /** Human-readable technique name. */
    std::string technique;
    /**
     * Multiplier on the resource's surviving-upset rate: for
     * storage it scales eccSurvival (e.g. 0.1 for SECDED over
     * parity); for logic it scales the effective area (e.g. 0.15
     * for residue checking that detects most wrong results).
     */
    double survivalScale = 0.1;
    /** Fractional silicon area / energy overhead. */
    double areaCostPct = 5.0;
};

/** @return the standard technique catalog for a device. */
std::vector<HardeningOption>
standardOptions(const DeviceModel &device);

/** @return a copy of the device with the option applied. */
DeviceModel applyHardening(const DeviceModel &device,
                           const HardeningOption &option);

/** One step of the greedy plan. */
struct AdvisorStep
{
    HardeningOption option;
    /** Critical (filtered) FIT before and after this step. */
    double fitBefore = 0.0;
    double fitAfter = 0.0;
    /** Cumulative area cost after this step. */
    double cumulativeCostPct = 0.0;
};

/**
 * Greedy selective-hardening plan. A candidate set H scores
 * sum_r s_r(H) * criticalFitAu_r, where s_r(H) is the product of
 * the survivalScales H applies to resource r.
 *
 * @param device Baseline device (its technique catalog).
 * @param baseline attributeCriticality() of a campaign on it.
 * @param budget_pct Total area budget in percent.
 * @return the chosen steps in application order.
 */
std::vector<AdvisorStep>
advise(const DeviceModel &device,
       const std::vector<ResourceCriticality> &baseline,
       double budget_pct);

} // namespace radcrit

#endif // RADCRIT_HARDEN_ADVISOR_HH
