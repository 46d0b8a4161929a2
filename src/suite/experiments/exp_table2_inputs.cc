/**
 * @file
 * Paper Table II: parallel kernels' details — domain, input sizes
 * and thread counts, computed from the launch descriptors of the
 * actual implementations on both devices. The labels and traits
 * come from describeWorkload(), so only CLAMR (whose traits need
 * its golden run) is built.
 */

#include <cstdio>
#include <iostream>

#include "common/table.hh"
#include "exec/launch.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"
#include "suite/spec.hh"

namespace radcrit
{
namespace
{

void
addRow(TextTable &table, const DeviceModel &device,
       const WorkloadSpec &spec, const char *domain,
       const char *label_suffix = "")
{
    WorkloadIdentity w = describeWorkload(device, spec);
    KernelLaunch l = buildLaunch(device, w.traits);
    table.addRow({device.name, w.traits.name, domain,
                  w.inputLabel + label_suffix,
                  TextTable::num(w.traits.totalThreads),
                  TextTable::num(l.residentThreads),
                  TextTable::num(l.occupancy, 2),
                  TextTable::num(l.schedulerStrain, 2)});
}

void
addRows(TextTable &table, DeviceId id)
{
    DeviceModel device = makeDevice(id);
    for (int64_t side : dgemmScaledSides(id))
        addRow(table, device, dgemmSpec(side), "Linear algebra");
    for (const auto &size : lavamdScaledSizes(id))
        addRow(table, device, lavamdSpec(size), "Molecular dynamics");
    addRow(table, device, hotspotSpec(), "Physics simulation");
    addRow(table, device, clamrSpec(), "Fluid dynamics", " (+AMR)");
    table.addSeparator();
}

class Table2Inputs : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "table2_inputs",
            .tag = "Table II",
            .summary = "kernel details: inputs, threads, and "
                       "launch view on both devices",
            .order = 12};
        return info;
    }

    void
    run(SuiteContext &ctx) override
    {
        (void)ctx;
        TextTable table("Table II: Parallel kernels' details "
                        "(paper-equivalent launch view)");
        table.setHeader({"Device", "Kernel", "Domain",
                         "Input size", "#Threads", "resident",
                         "occupancy", "sched strain"});
        for (DeviceId id : allDevices())
            addRows(table, id);
        table.render(std::cout);
        std::printf("\nLavaMD particles/box: 192 on K40, 100 on "
                    "Xeon Phi (paper IV-C, scaled /4 "
                    "internally)\n");
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(Table2Inputs)

} // namespace radcrit
