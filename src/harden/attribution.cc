#include "harden/attribution.hh"

#include <algorithm>

#include "sim/sampler.hh"

namespace radcrit
{

std::vector<ResourceCriticality>
attributeCriticality(const CampaignResult &result,
                     const DeviceModel &device)
{
    std::array<ResourceCriticality, numResourceKinds> acc{};
    for (size_t i = 0; i < numResourceKinds; ++i)
        acc[i].resource = static_cast<ResourceKind>(i);

    for (const auto &run : result.runs) {
        if (isInfraOutcome(run.outcome))
            continue;
        auto &r = acc[static_cast<size_t>(run.strike.resource)];
        ++r.strikes;
        switch (run.outcome) {
          case Outcome::Sdc:
            ++r.sdcRuns;
            if (!run.crit.executionFiltered) {
                ++r.criticalRuns;
                r.criticalFitAu += result.fitAu(1);
            }
            break;
          case Outcome::Crash:
          case Outcome::Hang:
            ++r.detectableRuns;
            break;
          default:
            break;
        }
    }

    // Weight shares come from the sampler the campaign used.
    StrikeSampler sampler(device, result.launch);
    for (auto &r : acc) {
        r.weightShare = sampler.weight(r.resource) /
            sampler.totalWeight();
    }

    std::vector<ResourceCriticality> out;
    for (const auto &r : acc) {
        if (r.strikes > 0)
            out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const ResourceCriticality &a,
                 const ResourceCriticality &b) {
                  return a.criticalFitAu > b.criticalFitAu;
              });
    return out;
}

} // namespace radcrit
