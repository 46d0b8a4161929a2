/**
 * @file
 * Strike descriptors: what one neutron did to the device.
 *
 * Experiments are tuned so at most one neutron generates a failure
 * per execution (paper Section IV-D, error rate < 1e-3 per run), so
 * a faulty run is fully described by a single Strike.
 */

#ifndef RADCRIT_SIM_FAULT_HH
#define RADCRIT_SIM_FAULT_HH

#include <cstdint>

#include "arch/manifestation.hh"
#include "arch/resource.hh"

namespace radcrit
{

/**
 * One neutron strike surviving to program visibility.
 */
struct Strike
{
    /** Which architectural resource was upset. */
    ResourceKind resource = ResourceKind::RegisterFile;
    /** How the upset manifests to the kernel. */
    Manifestation manifestation = Manifestation::BitFlipValue;
    /** When during execution the strike lands, uniform in [0, 1). */
    double timeFraction = 0.0;
    /** Bits flipped by the (possibly multi-cell) upset. */
    uint32_t burstBits = 1;
    /** Seed for the kernel's strike-local random choices. */
    uint64_t entropy = 0;
};

/**
 * Program-level outcome classes (paper Section II-A), plus the two
 * infrastructure outcomes a beam campaign's own harness can
 * produce: a run whose execution machinery failed permanently
 * (infra_error) or overran its watchdog deadline on every attempt
 * (infra_timeout). Infra outcomes describe the harness, not the
 * device under test — they never appear without injected or real
 * infrastructure faults, and they are excluded from AVF.
 */
enum class Outcome : uint8_t
{
    /** No effect on the output. */
    Masked,
    /** Silent Data Corruption: wrong output, no indication. */
    Sdc,
    /** Application crash (detectable). */
    Crash,
    /** System hang; node reboot required (detectable). */
    Hang,
    /** Run quarantined: execution failed on every attempt. */
    InfraError,
    /** Run quarantined: soft deadline exceeded on every attempt. */
    InfraTimeout,

    NumOutcomes
};

/** Number of outcome classes for array sizing. */
constexpr size_t numOutcomes =
    static_cast<size_t>(Outcome::NumOutcomes);

/** @return a stable printable name of the outcome. */
const char *outcomeName(Outcome o);

/**
 * @return whether the run was quarantined (InfraError or
 * InfraTimeout): its strike never reached the device.
 */
inline bool
isInfraOutcome(Outcome o)
{
    return o == Outcome::InfraError || o == Outcome::InfraTimeout;
}

} // namespace radcrit

#endif // RADCRIT_SIM_FAULT_HH
