/**
 * @file
 * Criticality attribution: which architectural resource is
 * responsible for how much of a launch's critical (above-tolerance)
 * FIT. This is the analysis the paper's conclusion calls for:
 * "apply selective hardening to only those procedures, variables,
 * or resources whose corruption is likely to produce the observed
 * critical errors" (Section VI).
 */

#ifndef RADCRIT_HARDEN_ATTRIBUTION_HH
#define RADCRIT_HARDEN_ATTRIBUTION_HH

#include <vector>

#include "arch/resource.hh"
#include "campaign/runner.hh"

namespace radcrit
{

/** Per-resource criticality contribution of one campaign. */
struct ResourceCriticality
{
    ResourceKind resource = ResourceKind::NumKinds;
    /** Strikes that landed in this resource. */
    uint64_t strikes = 0;
    /** SDC runs attributed to this resource. */
    uint64_t sdcRuns = 0;
    /** SDC runs that survive the relative-error filter. */
    uint64_t criticalRuns = 0;
    /** Crash + hang runs attributed to this resource. */
    uint64_t detectableRuns = 0;
    /** Critical (filtered) FIT contribution, a.u. */
    double criticalFitAu = 0.0;
    /** Share of the launch's sensitive area. */
    double weightShare = 0.0;
};

/**
 * Attribute the campaign's critical FIT to resources, sorted by
 * descending criticalFitAu. `device` is the model the campaign ran
 * on; its weights give the shares. Quarantined (infra) runs are
 * harness failures, not strikes, and count nowhere.
 */
std::vector<ResourceCriticality>
attributeCriticality(const CampaignResult &result,
                     const DeviceModel &device);

} // namespace radcrit

#endif // RADCRIT_HARDEN_ATTRIBUTION_HH
