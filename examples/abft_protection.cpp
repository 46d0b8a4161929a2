/**
 * @file
 * ABFT protection demo: run DGEMM under strikes with and without
 * Huang-Abraham checksums and report what the spatial-locality
 * metric predicts — line/single errors are absorbed, square and
 * random errors survive (paper Sections III and V-A).
 *
 *   $ abft_protection [--device=K40] [--strikes=200]
 */

#include <cstdio>
#include <iostream>

#include "abft/abft_dgemm.hh"
#include "campaign/paperconfigs.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "kernels/dgemm.hh"
#include "metrics/criticality.hh"
#include "sim/sampler.hh"

using namespace radcrit;

int
main(int argc, char **argv)
{
    CliParser cli("abft_protection");
    cli.addString("device", "K40", "K40 or XeonPhi");
    cli.addInt("strikes", 200, "strikes to simulate");
    cli.parse(argc, argv);

    DeviceModel device = makeDevice(
        cli.getString("device") == "XeonPhi" ? DeviceId::XeonPhi
                                             : DeviceId::K40);
    Dgemm dgemm(device, 256);
    AbftDgemm abft(dgemm.a(), dgemm.b(), dgemm.n());
    KernelLaunch launch = buildLaunch(device, dgemm.traits());
    StrikeSampler sampler(device, launch);
    Rng rng(99);

    auto strikes = static_cast<uint64_t>(cli.getInt("strikes"));
    uint64_t sdc = 0, absorbed = 0, survived = 0, hidden = 0;
    std::array<uint64_t, numPatterns> survived_pattern{};
    for (uint64_t i = 0; i < strikes; ++i) {
        Strike strike = sampler.sampleStrike(rng);
        if (sampler.sampleOutcome(strike.resource, rng) !=
            Outcome::Sdc) {
            continue;
        }
        SdcRecord rec = dgemm.inject(strike, rng);
        if (rec.empty())
            continue;
        ++sdc;
        auto c = materializeField(dgemm.goldenC(), rec, dgemm.n());
        auto verdict = abft.checkAndCorrect(c);
        switch (verdict.status) {
          case AbftDgemm::Status::Corrected:
            ++absorbed;
            break;
          case AbftDgemm::Status::DetectedUncorrectable:
            ++survived;
            survived_pattern[static_cast<size_t>(
                classifyLocality(rec))]++;
            break;
          case AbftDgemm::Status::Clean:
            ++hidden; // corruption below checksum tolerance
            break;
        }
    }

    std::printf("DGEMM on %s, %llu strikes -> %llu SDCs\n",
                device.name.c_str(),
                static_cast<unsigned long long>(strikes),
                static_cast<unsigned long long>(sdc));
    TextTable table;
    table.setHeader({"ABFT verdict", "runs", "share"});
    auto pct = [&](uint64_t n) {
        return sdc ? TextTable::num(
            100.0 * static_cast<double>(n) /
            static_cast<double>(sdc), 0) + "%"
                   : std::string("-");
    };
    table.addRow({"corrected in place",
                  TextTable::num(absorbed), pct(absorbed)});
    table.addRow({"detected, not correctable",
                  TextTable::num(survived), pct(survived)});
    table.addRow({"below checksum tolerance",
                  TextTable::num(hidden), pct(hidden)});
    table.render(std::cout);

    std::printf("\npatterns of the surviving errors:\n");
    for (size_t p = 0; p < numPatterns; ++p) {
        if (survived_pattern[p] == 0)
            continue;
        std::printf("  %-8s %llu\n",
                    patternName(static_cast<Pattern>(p)),
                    static_cast<unsigned long long>(
                        survived_pattern[p]));
    }
    std::printf("\nThe locality metric told us in advance: "
                "square/random errors defeat the checksum "
                "scheme, so knowing a device's pattern mix "
                "predicts whether ABFT is worth deploying "
                "(paper Section III).\n");
    return 0;
}
