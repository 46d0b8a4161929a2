/**
 * @file
 * Canonical experiment configurations for every paper table and
 * figure, shared by the suite experiments, examples/ and the
 * integration tests.
 *
 * Paper sizes and their scaled stand-ins (scale factors documented
 * per kernel; EXPERIMENTS.md records the mapping):
 *
 *   DGEMM   paper sides 1024..8192   -> scaled 128..1024 (/8)
 *   LavaMD  paper boxes 13,15,19,23  -> scaled 6,7,9,11  (/~2)
 *   HotSpot paper grid 1024^2        -> scaled 256^2     (/4)
 *   CLAMR   paper grid 512^2         -> scaled 128^2     (/4)
 */

#ifndef RADCRIT_CAMPAIGN_PAPERCONFIGS_HH
#define RADCRIT_CAMPAIGN_PAPERCONFIGS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/device.hh"
#include "campaign/runner.hh"
#include "sim/workload.hh"

namespace radcrit
{

/** The two devices of the paper. */
enum class DeviceId : uint8_t { K40, XeonPhi };

/** @return the device model for an id. */
DeviceModel makeDevice(DeviceId id);

/** @return both device ids. */
std::vector<DeviceId> allDevices();

/** @return printable device name. */
const char *deviceIdName(DeviceId id);

/**
 * Scaled DGEMM sides for the device (paper Fig. 2: the Phi was also
 * tested at 8192^2).
 */
std::vector<int64_t> dgemmScaledSides(DeviceId id);

/**
 * Scaled LavaMD boxes-per-dimension (paper Fig. 4: 15/19/23 on the
 * K40, 13/15/19/23 on the Phi) plus the paper size label for each.
 */
struct LavaMdSize
{
    int64_t scaledBoxes;
    int64_t paperBoxes;
};
std::vector<LavaMdSize> lavamdScaledSizes(DeviceId id);

/** Scaled HotSpot grid side (paper: 1024). */
int64_t hotspotScaledGrid();

/** Scaled CLAMR grid side (paper: 512). */
int64_t clamrScaledGrid();

/** Workload factories bound to a device. */
std::unique_ptr<Workload>
makeDgemmWorkload(const DeviceModel &device, int64_t scaled_side);
std::unique_ptr<Workload>
makeLavamdWorkload(const DeviceModel &device,
                   const LavaMdSize &size);
std::unique_ptr<Workload>
makeHotspotWorkload(const DeviceModel &device);
std::unique_ptr<Workload>
makeClamrWorkload(const DeviceModel &device);

/**
 * @return a campaign config with the given number of faulty runs
 * and a seed derived from device/workload labels so every
 * (device, workload, size) pair gets an independent stream.
 */
CampaignConfig
defaultCampaign(uint64_t runs, const std::string &device_name,
                const std::string &workload_name,
                const std::string &input_label);

} // namespace radcrit

#endif // RADCRIT_CAMPAIGN_PAPERCONFIGS_HH
