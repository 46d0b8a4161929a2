#include "suite/spec.hh"

#include "common/logging.hh"
#include "kernels/clamr.hh"
#include "kernels/dgemm.hh"
#include "kernels/hotspot.hh"
#include "kernels/lavamd.hh"

namespace radcrit
{

std::string
specInputLabel(const WorkloadSpec &spec)
{
    switch (spec.kind) {
      case WorkloadKind::Dgemm:
        return Dgemm::labelFor(spec.param0);
      case WorkloadKind::LavaMd:
        return LavaMd::labelFor(spec.param1);
      case WorkloadKind::HotSpot:
        return HotSpot::labelFor(hotspotScaledGrid());
      case WorkloadKind::Clamr:
        return Clamr::labelFor(clamrScaledGrid());
    }
    panic("bad WorkloadKind %d", static_cast<int>(spec.kind));
}

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Dgemm:
        return "DGEMM";
      case WorkloadKind::LavaMd:
        return "LavaMD";
      case WorkloadKind::HotSpot:
        return "HotSpot";
      case WorkloadKind::Clamr:
        return "CLAMR";
    }
    panic("bad WorkloadKind %d", static_cast<int>(kind));
}

WorkloadSpec
dgemmSpec(int64_t scaled_side)
{
    return {WorkloadKind::Dgemm, scaled_side, 0};
}

WorkloadSpec
lavamdSpec(const LavaMdSize &size)
{
    return {WorkloadKind::LavaMd, size.scaledBoxes,
            size.paperBoxes};
}

WorkloadSpec
hotspotSpec()
{
    return {WorkloadKind::HotSpot, 0, 0};
}

WorkloadSpec
clamrSpec()
{
    return {WorkloadKind::Clamr, 0, 0};
}

std::unique_ptr<Workload>
buildWorkload(const DeviceModel &device, const WorkloadSpec &spec)
{
    switch (spec.kind) {
      case WorkloadKind::Dgemm:
        return makeDgemmWorkload(device, spec.param0);
      case WorkloadKind::LavaMd:
        return makeLavamdWorkload(
            device, LavaMdSize{spec.param0, spec.param1});
      case WorkloadKind::HotSpot:
        return makeHotspotWorkload(device);
      case WorkloadKind::Clamr:
        return makeClamrWorkload(device);
    }
    panic("bad WorkloadKind %d", static_cast<int>(spec.kind));
}

// The kernel parameters below are the ones the paperconfigs
// factories pass; DescribeWorkload.MatchesTheBuiltWorkload holds
// the two in step.
WorkloadIdentity
describeWorkload(const DeviceModel &device, const WorkloadSpec &spec)
{
    WorkloadTraits traits;
    switch (spec.kind) {
      case WorkloadKind::Dgemm:
        traits = Dgemm::traitsFor(device, spec.param0);
        break;
      case WorkloadKind::LavaMd:
        traits = LavaMd::traitsFor(device, spec.param1);
        break;
      case WorkloadKind::HotSpot:
        traits = HotSpot::traitsFor(device, hotspotScaledGrid());
        break;
      case WorkloadKind::Clamr:
        return describeWorkload(*buildWorkload(device, spec));
    }
    return {specInputLabel(spec), std::move(traits)};
}

WorkloadIdentity
describeWorkload(const Workload &workload)
{
    return {workload.inputLabel(), workload.traits()};
}

std::string
campaignPlanKey(const std::string &device_name,
                const std::string &workload_name,
                const std::string &input_label, uint64_t runs)
{
    // '\x1f' (unit separator) cannot appear in the labels, so the
    // concatenation is injective.
    return device_name + '\x1f' + workload_name + '\x1f' +
        input_label + '\x1f' + std::to_string(runs);
}

std::string
campaignPlanKey(const std::string &device_name,
                const WorkloadSpec &spec, uint64_t runs)
{
    return campaignPlanKey(device_name, workloadKindName(spec.kind),
                           specInputLabel(spec), runs);
}

std::vector<CampaignRequest>
dgemmRequests(uint64_t runs)
{
    std::vector<CampaignRequest> reqs;
    for (DeviceId id : allDevices()) {
        DeviceModel device = makeDevice(id);
        for (int64_t side : dgemmScaledSides(id))
            reqs.push_back({device, dgemmSpec(side), runs});
    }
    return reqs;
}

std::vector<CampaignRequest>
lavamdRequests(uint64_t runs)
{
    std::vector<CampaignRequest> reqs;
    for (DeviceId id : allDevices()) {
        DeviceModel device = makeDevice(id);
        for (const auto &size : lavamdScaledSizes(id))
            reqs.push_back({device, lavamdSpec(size), runs});
    }
    return reqs;
}

std::vector<CampaignRequest>
hotspotRequests(uint64_t runs)
{
    std::vector<CampaignRequest> reqs;
    for (DeviceId id : allDevices())
        reqs.push_back({makeDevice(id), hotspotSpec(), runs});
    return reqs;
}

std::vector<CampaignRequest>
clamrRequests(uint64_t runs)
{
    // The paper has no K40 CLAMR data (LANL proprietary workload
    // targeted at Xeon-Phi-based Trinity).
    return {{makeDevice(DeviceId::XeonPhi), clamrSpec(), runs}};
}

} // namespace radcrit
