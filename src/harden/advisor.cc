#include "harden/advisor.hh"

#include <array>

#include "common/logging.hh"

namespace radcrit
{

std::vector<HardeningOption>
standardOptions(const DeviceModel &device)
{
    std::vector<HardeningOption> options;
    auto add = [&](ResourceKind kind, const char *technique,
                   double scale, double cost) {
        if (device.hasResource(kind))
            options.push_back({kind, technique, scale, cost});
    };
    add(ResourceKind::RegisterFile,
        "SECDED ECC on register file + operand queues", 0.10,
        6.0);
    add(ResourceKind::L1Cache, "SECDED ECC on L1 data arrays",
        0.10, 3.0);
    add(ResourceKind::SharedMemory,
        "SECDED ECC on scratchpad", 0.10, 3.0);
    add(ResourceKind::L2Cache,
        "DECTED ECC + tag duplication on LLC", 0.12, 4.0);
    add(ResourceKind::Scheduler,
        "parity-protected scheduler state + re-dispatch", 0.15,
        4.0);
    add(ResourceKind::Dispatcher,
        "instruction-encoding parity + replay", 0.20, 3.0);
    add(ResourceKind::Fpu, "residue-checked FPU lanes", 0.15,
        8.0);
    add(ResourceKind::Sfu,
        "duplicated special-function units", 0.05, 5.0);
    add(ResourceKind::ControlLogic,
        "triplicated launch/control state machines", 0.10, 2.0);
    add(ResourceKind::PipelineLatch,
        "hardened (DICE) pipeline latches", 0.25, 7.0);
    add(ResourceKind::Interconnect,
        "CRC-protected ring flits + retry", 0.10, 2.0);
    return options;
}

DeviceModel
applyHardening(const DeviceModel &device,
               const HardeningOption &option)
{
    DeviceModel hardened = device;
    bool found = false;
    for (auto &res : hardened.resources) {
        if (res.kind != option.resource)
            continue;
        found = true;
        if (isStorage(res.kind)) {
            res.eccSurvival *= option.survivalScale;
        } else {
            // Checked/hardened logic: most upsets are caught and
            // retried, shrinking the effective cross-section.
            res.sizeBits *= option.survivalScale;
        }
    }
    if (!found)
        fatal("device %s has no resource %s to harden",
              device.name.c_str(),
              resourceKindName(option.resource));
    hardened.name = device.name + "+hardened";
    return hardened;
}

std::vector<AdvisorStep>
advise(const DeviceModel &device,
       const std::vector<ResourceCriticality> &baseline,
       double budget_pct)
{
    if (budget_pct <= 0.0)
        fatal("hardening budget must be positive");

    std::array<double, numResourceKinds> fit_of{};
    double fit = 0.0;
    for (const auto &r : baseline) {
        fit_of[static_cast<size_t>(r.resource)] += r.criticalFitAu;
        fit += r.criticalFitAu;
    }

    std::vector<AdvisorStep> plan;
    std::vector<HardeningOption> remaining =
        standardOptions(device);
    double spent = 0.0;
    while (!remaining.empty()) {
        // Evaluate every affordable candidate; keep the best
        // critical-FIT reduction per unit cost.
        double best_score = 0.0;
        size_t best_idx = remaining.size();
        for (size_t i = 0; i < remaining.size(); ++i) {
            const auto &opt = remaining[i];
            if (spent + opt.areaCostPct > budget_pct)
                continue;
            double score = (1.0 - opt.survivalScale) *
                fit_of[static_cast<size_t>(opt.resource)] /
                opt.areaCostPct;
            if (score > best_score) {
                best_score = score;
                best_idx = i;
            }
        }
        if (best_idx == remaining.size())
            break; // nothing affordable improves anything

        AdvisorStep step;
        step.option = remaining[best_idx];
        double &resource_fit =
            fit_of[static_cast<size_t>(step.option.resource)];
        step.fitBefore = fit;
        fit -= (1.0 - step.option.survivalScale) * resource_fit;
        resource_fit *= step.option.survivalScale;
        step.fitAfter = fit;
        spent += step.option.areaCostPct;
        step.cumulativeCostPct = spent;
        plan.push_back(step);
        remaining.erase(remaining.begin() +
                        static_cast<long>(best_idx));
    }
    return plan;
}

} // namespace radcrit
