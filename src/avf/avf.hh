/**
 * @file
 * Architectural / Program Vulnerability Factor estimation and the
 * fault-injector coverage study.
 *
 * The paper's methodology section (IV-D) positions beam testing
 * against fault-injection simulation: injectors measure the AVF
 * ("the probability for a failure in a resource to be observed at
 * the output", Mukherjee et al. [26]) or the PVF (Sridharan &
 * Kaeli [37]) but "provide the user with access to only a limited
 * set of GPU resources. Thus, not all the possible sources of
 * errors can be considered. Hardware schedulers and dispatchers as
 * well as the PCIe controller, for instance, are among the
 * inaccessible resources."
 *
 * This module computes per-resource AVFs from radcrit campaigns and
 * quantifies exactly that limitation: how much of the beam-observed
 * criticality a software injector restricted to the
 * architecturally-visible state would have seen.
 */

#ifndef RADCRIT_AVF_AVF_HH
#define RADCRIT_AVF_AVF_HH

#include <vector>

#include "arch/resource.hh"
#include "campaign/runner.hh"

namespace radcrit
{

/** Per-resource vulnerability factors estimated from a campaign. */
struct ResourceAvf
{
    ResourceKind resource = ResourceKind::NumKinds;
    /** Strikes sampled in this resource. */
    uint64_t strikes = 0;
    /** AVF: P(any program-visible failure | upset). */
    double avfAny = 0.0;
    /** SDC-only AVF: P(silent corruption | upset). */
    double avfSdc = 0.0;
    /**
     * Critical AVF: P(SDC surviving the tolerance filter | upset)
     * — the PVF-style, program-semantics-aware figure.
     */
    double avfCritical = 0.0;
};

/** Compute per-resource AVFs (ordered by ResourceKind). */
std::vector<ResourceAvf>
computeAvf(const CampaignResult &result);

/**
 * The set of resources a SASSIFI/NVBitFI-style software injector
 * can reach: architecturally visible state (registers, memories).
 * Schedulers, dispatchers, functional-unit logic, control and
 * interconnect are inaccessible (paper IV-D).
 */
bool injectorAccessible(ResourceKind kind);

/** Fault-injector coverage relative to the beam campaign. */
struct InjectorCoverage
{
    /** Fraction of all strikes in injector-reachable resources. */
    double strikeCoverage = 0.0;
    /** Fraction of SDC runs an injector-only study would see. */
    double sdcCoverage = 0.0;
    /** Fraction of *critical* (above-filter) SDC FIT visible. */
    double criticalFitCoverage = 0.0;
    /** Fraction of crash/hang events visible. */
    double detectableCoverage = 0.0;
};

/**
 * Quantify how much of the campaign's observed behaviour a
 * software fault injector restricted to injectorAccessible()
 * resources would capture. Quarantined (infra) runs count nowhere.
 */
InjectorCoverage
injectorCoverage(const CampaignResult &result);

} // namespace radcrit

#endif // RADCRIT_AVF_AVF_HH
