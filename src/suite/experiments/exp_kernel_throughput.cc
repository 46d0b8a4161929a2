/**
 * @file
 * google-benchmark microbenches of the kernel substrates: golden
 * computation throughput and injection-replay latency. These are
 * the sanity checks that the simulator can sustain the campaign
 * sizes used by the figure harnesses.
 *
 * As an experiment this wraps the google-benchmark runner, with
 * the harness arguments assembled from the suite's
 * --gbench-filter / --gbench-min-time.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "campaign/paperconfigs.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "kernels/clamr.hh"
#include "kernels/dgemm.hh"
#include "kernels/hotspot.hh"
#include "kernels/lavamd.hh"
#include "sim/sampler.hh"
#include "suite/context.hh"
#include "suite/experiment.hh"

namespace radcrit
{
namespace
{

void
BM_DgemmGolden(benchmark::State &state)
{
    DeviceModel device = makeK40();
    auto n = static_cast<int64_t>(state.range(0));
    for (auto _ : state) {
        Dgemm dgemm(device, n, 42);
        benchmark::DoNotOptimize(dgemm.goldenC().data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_DgemmGolden)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void
BM_DgemmInject(benchmark::State &state)
{
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 256, 42);
    KernelLaunch launch = buildLaunch(device, dgemm.traits());
    StrikeSampler sampler(device, launch);
    Rng rng(1);
    for (auto _ : state) {
        Strike s = sampler.sampleStrike(rng);
        benchmark::DoNotOptimize(dgemm.inject(s, rng));
    }
}
BENCHMARK(BM_DgemmInject)->Unit(benchmark::kMicrosecond);

void
BM_LavaMdGolden(benchmark::State &state)
{
    DeviceModel device = makeK40();
    auto nb = static_cast<int64_t>(state.range(0));
    for (auto _ : state) {
        LavaMd lava(device, nb, 42);
        benchmark::DoNotOptimize(lava.goldenForce().data());
    }
}
BENCHMARK(BM_LavaMdGolden)->Arg(5)->Arg(7)
    ->Unit(benchmark::kMillisecond);

void
BM_LavaMdInject(benchmark::State &state)
{
    DeviceModel device = makeXeonPhi();
    LavaMd lava(device, 7, 42, 2, 4, 15);
    KernelLaunch launch = buildLaunch(device, lava.traits());
    StrikeSampler sampler(device, launch);
    Rng rng(2);
    for (auto _ : state) {
        Strike s = sampler.sampleStrike(rng);
        benchmark::DoNotOptimize(lava.inject(s, rng));
    }
}
BENCHMARK(BM_LavaMdInject)->Unit(benchmark::kMicrosecond);

void
BM_HotSpotStep(benchmark::State &state)
{
    DeviceModel device = makeK40();
    auto n = static_cast<int64_t>(state.range(0));
    HotSpot hotspot(device, n, 16, 42);
    std::vector<float> src = hotspot.goldenTemp();
    std::vector<float> dst(src.size());
    for (auto _ : state) {
        hotspot.step(src, dst);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_HotSpotStep)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void
BM_HotSpotInject(benchmark::State &state)
{
    DeviceModel device = makeK40();
    HotSpot hotspot(device, 256, 192, 42);
    KernelLaunch launch = buildLaunch(device, hotspot.traits());
    StrikeSampler sampler(device, launch);
    Rng rng(3);
    for (auto _ : state) {
        Strike s = sampler.sampleStrike(rng);
        benchmark::DoNotOptimize(hotspot.inject(s, rng));
    }
}
BENCHMARK(BM_HotSpotInject)->Unit(benchmark::kMillisecond);

void
BM_ClamrStep(benchmark::State &state)
{
    DeviceModel device = makeXeonPhi();
    auto n = static_cast<int64_t>(state.range(0));
    Clamr clamr(device, n, 16, 42);
    SweState src;
    src.resize(static_cast<size_t>(n) * n);
    for (auto &h : src.h)
        h = 1.0;
    SweState dst;
    dst.resize(src.h.size());
    for (auto _ : state) {
        clamr.step(src, dst);
        benchmark::DoNotOptimize(dst.h.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ClamrStep)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void
BM_ClamrInject(benchmark::State &state)
{
    DeviceModel device = makeXeonPhi();
    Clamr clamr(device, 128, 256, 42);
    KernelLaunch launch = buildLaunch(device, clamr.traits());
    StrikeSampler sampler(device, launch);
    Rng rng(4);
    for (auto _ : state) {
        Strike s = sampler.sampleStrike(rng);
        benchmark::DoNotOptimize(clamr.inject(s, rng));
    }
}
BENCHMARK(BM_ClamrInject)->Unit(benchmark::kMillisecond);

void
BM_StrikeSampling(benchmark::State &state)
{
    DeviceModel device = makeK40();
    Dgemm dgemm(device, 128, 42);
    KernelLaunch launch = buildLaunch(device, dgemm.traits());
    StrikeSampler sampler(device, launch);
    Rng rng(5);
    for (auto _ : state) {
        Strike s = sampler.sampleStrike(rng);
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_StrikeSampling);

class KernelThroughput : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "kernel_throughput",
            .tag = "perf",
            .summary = "google-benchmark microbenches of kernel "
                       "golden compute and injection replay",
            .order = 70};
        return info;
    }

    void
    addOptions(CliParser &cli) const override
    {
        cli.addString("gbench-filter", "",
                      "google-benchmark filter regex");
        cli.addString("gbench-min-time", "0.05",
                      "google-benchmark min time per bench");
    }

    void
    run(SuiteContext &ctx) override
    {
        std::vector<std::string> args{"radcrit_suite"};
        std::string filter =
            ctx.cli() ? ctx.cli()->getString("gbench-filter") : "";
        if (!filter.empty())
            args.push_back("--benchmark_filter=" + filter);
        args.push_back(
            "--benchmark_min_time=" +
            (ctx.cli() ? ctx.cli()->getString("gbench-min-time")
                       : std::string("0.05")));
        std::vector<char *> argv;
        argv.reserve(args.size());
        for (auto &arg : args)
            argv.push_back(arg.data());
        int argc = static_cast<int>(argv.size());
        benchmark::Initialize(&argc, argv.data());
        if (benchmark::ReportUnrecognizedArguments(argc,
                                                   argv.data()))
            fatal("unrecognized google-benchmark arguments");
        benchmark::RunSpecifiedBenchmarks();
    }
};

} // anonymous namespace

RADCRIT_REGISTER_EXPERIMENT(KernelThroughput)

} // namespace radcrit
