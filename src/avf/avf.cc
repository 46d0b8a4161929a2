#include "avf/avf.hh"

namespace radcrit
{

std::vector<ResourceAvf>
computeAvf(const CampaignResult &result)
{
    std::array<uint64_t, numResourceKinds> strikes{};
    std::array<uint64_t, numResourceKinds> any{};
    std::array<uint64_t, numResourceKinds> sdc{};
    std::array<uint64_t, numResourceKinds> critical{};

    for (const auto &run : result.runs) {
        // Infra outcomes are harness failures, not device faults:
        // the strike never manifested, so it contributes to no
        // vulnerability factor.
        if (isInfraOutcome(run.outcome))
            continue;
        auto i = static_cast<size_t>(run.strike.resource);
        ++strikes[i];
        if (run.outcome != Outcome::Masked)
            ++any[i];
        if (run.outcome == Outcome::Sdc) {
            ++sdc[i];
            if (!run.crit.executionFiltered)
                ++critical[i];
        }
    }

    std::vector<ResourceAvf> out;
    for (size_t i = 0; i < numResourceKinds; ++i) {
        if (strikes[i] == 0)
            continue;
        ResourceAvf r;
        r.resource = static_cast<ResourceKind>(i);
        r.strikes = strikes[i];
        auto n = static_cast<double>(strikes[i]);
        r.avfAny = static_cast<double>(any[i]) / n;
        r.avfSdc = static_cast<double>(sdc[i]) / n;
        r.avfCritical = static_cast<double>(critical[i]) / n;
        out.push_back(r);
    }
    return out;
}

bool
injectorAccessible(ResourceKind kind)
{
    switch (kind) {
      case ResourceKind::RegisterFile:
      case ResourceKind::L1Cache:
      case ResourceKind::SharedMemory:
      case ResourceKind::L2Cache:
        return true; // architecturally visible state
      default:
        // Schedulers, dispatchers, FPU/SFU logic, control logic,
        // pipeline latches and interconnect are inaccessible to
        // software injectors (paper IV-D).
        return false;
    }
}

InjectorCoverage
injectorCoverage(const CampaignResult &result)
{
    InjectorCoverage cov;
    uint64_t strikes = 0, strikes_vis = 0;
    uint64_t sdc = 0, sdc_vis = 0;
    uint64_t critical = 0, critical_vis = 0;
    uint64_t det = 0, det_vis = 0;

    for (const auto &run : result.runs) {
        // Quarantined runs count nowhere, as in computeAvf().
        if (isInfraOutcome(run.outcome))
            continue;
        bool visible = injectorAccessible(run.strike.resource);
        ++strikes;
        strikes_vis += visible;
        if (run.outcome == Outcome::Sdc) {
            ++sdc;
            sdc_vis += visible;
            if (!run.crit.executionFiltered) {
                ++critical;
                critical_vis += visible;
            }
        } else if (run.outcome == Outcome::Crash ||
                   run.outcome == Outcome::Hang) {
            ++det;
            det_vis += visible;
        }
    }

    auto frac = [](uint64_t num, uint64_t den) {
        return den ? static_cast<double>(num) /
            static_cast<double>(den) : 0.0;
    };
    cov.strikeCoverage = frac(strikes_vis, strikes);
    cov.sdcCoverage = frac(sdc_vis, sdc);
    cov.criticalFitCoverage = frac(critical_vis, critical);
    cov.detectableCoverage = frac(det_vis, det);
    return cov;
}

} // namespace radcrit
