/**
 * @file
 * Declarative campaign specs for the experiment suite.
 *
 * Experiments declare the campaigns they need as CampaignRequest
 * values — (device, workload spec, runs) — instead of constructing
 * workloads eagerly, so the suite scheduler can compare requests
 * across experiments and simulate each distinct campaign exactly
 * once. A WorkloadSpec names one of the paper's four kernels plus
 * its size parameters; buildWorkload() materializes it through the
 * canonical campaign/paperconfigs factories, so a spec always
 * denotes the same workload a standalone bench would have built.
 * describeWorkload() gives the same workload's identity (name,
 * input label, launch traits) without its golden run: that is all
 * the plan key, the store key, the seed and a store hit need, so
 * only a campaign that must be simulated builds its workload.
 */

#ifndef RADCRIT_SUITE_SPEC_HH
#define RADCRIT_SUITE_SPEC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/paperconfigs.hh"
#include "sim/workload.hh"

namespace radcrit
{

/** The paper's four kernels. */
enum class WorkloadKind : uint8_t { Dgemm, LavaMd, HotSpot, Clamr };

/** Number of workload kinds (for iteration). */
inline constexpr size_t numWorkloadKinds = 4;

/** @return printable workload name ("DGEMM", "LavaMD", ...). */
const char *workloadKindName(WorkloadKind kind);

/**
 * One workload instance, by kind and size parameters:
 *
 *   Dgemm:   param0 = scaled matrix side
 *   LavaMd:  param0 = scaled boxes/dim, param1 = paper boxes/dim
 *   HotSpot: no parameters (canonical scaled grid)
 *   Clamr:   no parameters (canonical scaled grid)
 */
struct WorkloadSpec
{
    WorkloadKind kind = WorkloadKind::Dgemm;
    int64_t param0 = 0;
    int64_t param1 = 0;
};

/** Spec builders for the four kernels. */
WorkloadSpec dgemmSpec(int64_t scaled_side);
WorkloadSpec lavamdSpec(const LavaMdSize &size);
WorkloadSpec hotspotSpec();
WorkloadSpec clamrSpec();

/**
 * @return the input label buildWorkload() of the spec reports, on
 * any device and for every kind without building it.
 */
std::string specInputLabel(const WorkloadSpec &spec);

/** Materialize a spec on a device via the canonical factories. */
std::unique_ptr<Workload>
buildWorkload(const DeviceModel &device, const WorkloadSpec &spec);

/**
 * What identifies a workload apart from its golden output: its
 * input label and its launch traits on the bound device, which
 * carry its name.
 */
struct WorkloadIdentity
{
    std::string inputLabel;
    WorkloadTraits traits;
};

/**
 * @return the identity of buildWorkload(device, spec). DGEMM,
 * LavaMD and HotSpot are described without their golden run.
 * CLAMR's traits come from the AMR series of its golden run, so a
 * CLAMR spec is built to be described.
 */
WorkloadIdentity describeWorkload(const DeviceModel &device,
                                  const WorkloadSpec &spec);

/** @return the identity of a built workload. */
WorkloadIdentity describeWorkload(const Workload &workload);

/**
 * One campaign an experiment needs: device model, workload, run
 * count. The device is a whole model, so a variant of a paper device
 * (another name and parameters) is declared like the stock one. The
 * seed is not a member — it derives from the labels through
 * defaultCampaign().
 */
struct CampaignRequest
{
    DeviceModel device;
    WorkloadSpec workload;
    uint64_t runs = 0;
};

/**
 * @return the scheduler's dedup key for one concrete campaign:
 * two campaigns with equal keys produce bit-identical raw results,
 * so only one of them is ever simulated. Matches the identity the
 * CampaignStore hashes (labels + runs; the seed is derived from
 * the labels).
 */
std::string campaignPlanKey(const std::string &device_name,
                            const std::string &workload_name,
                            const std::string &input_label,
                            uint64_t runs);

/** @return the plan key of a spec's campaign on a device. */
std::string campaignPlanKey(const std::string &device_name,
                            const WorkloadSpec &spec, uint64_t runs);

/**
 * Helpers enumerating the canonical request sets the paper
 * experiments share (both devices unless the paper restricts one).
 */
std::vector<CampaignRequest> dgemmRequests(uint64_t runs);
std::vector<CampaignRequest> lavamdRequests(uint64_t runs);
std::vector<CampaignRequest> hotspotRequests(uint64_t runs);
std::vector<CampaignRequest> clamrRequests(uint64_t runs);

} // namespace radcrit

#endif // RADCRIT_SUITE_SPEC_HH
