/**
 * @file
 * Tests for the experiment suite layer: the self-registration
 * registry (uniqueness, lookup, glob matching, ordering), the
 * scheduler's campaign dedup key and prepass, and the
 * output-directory resolution that replaced the hard-coded
 * bench_out.
 *
 * This binary links radcrit_experiments, so the full set of
 * registered paper experiments is visible — the registry tests
 * double as a contract check that every paper artifact has a
 * registered experiment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>

#include "campaign/analysis.hh"
#include "campaign/series.hh"
#include "exec/launch.hh"
#include "exec/chaos.hh"
#include "exec/pool.hh"
#include "logs/beamlog.hh"
#include "obs/stats_registry.hh"
#include "obs/timeline.hh"
#include "suite/context.hh"
#include "suite/driver.hh"
#include "suite/experiment.hh"
#include "suite/scheduler.hh"
#include "suite/spec.hh"

namespace radcrit
{
namespace
{

// ---------------------------------------------------------------
// Registry contents
// ---------------------------------------------------------------

/** Every paper artifact's experiment must be registered. */
const char *const kExpectedExperiments[] = {
    "abft_coverage",
    "ablation_filter_threshold",
    "ablation_injection_level",
    "ablation_scheduler",
    "avf_comparison",
    "calibration",
    "detectors",
    "fig1_setup",
    "fig2_dgemm_scatter",
    "fig3_dgemm_locality",
    "fig4_lavamd_scatter",
    "fig5_lavamd_locality",
    "fig6_hotspot_scatter",
    "fig7_hotspot_locality",
    "fig8_clamr_scatter",
    "fig9_clamr_map",
    "hardening",
    "kernel_throughput",
    "mtbf_projection",
    "sdc_crash_ratios",
    "table1_kernels",
    "table2_inputs",
};

TEST(ExperimentRegistry, AllExpectedExperimentsRegistered)
{
    auto &registry = ExperimentRegistry::instance();
    for (const char *name : kExpectedExperiments) {
        Experiment *exp = registry.find(name);
        ASSERT_NE(exp, nullptr) << "missing experiment " << name;
        EXPECT_EQ(exp->info().name, name);
        EXPECT_FALSE(exp->info().tag.empty()) << name;
        EXPECT_FALSE(exp->info().summary.empty()) << name;
        EXPECT_GT(exp->info().defaultRuns, 0u) << name;
    }
    EXPECT_EQ(registry.all().size(),
              std::size(kExpectedExperiments));
}

TEST(ExperimentRegistry, NamesUniqueAndSortedByOrder)
{
    auto all = ExperimentRegistry::instance().all();
    std::set<std::string> names;
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_TRUE(names.insert(all[i]->info().name).second)
            << "duplicate name " << all[i]->info().name;
        if (i == 0)
            continue;
        const auto &prev = all[i - 1]->info();
        const auto &cur = all[i]->info();
        EXPECT_TRUE(prev.order < cur.order ||
                    (prev.order == cur.order &&
                     prev.name < cur.name))
            << prev.name << " should sort before " << cur.name;
    }
}

TEST(ExperimentRegistry, FindIsExactMatchOnly)
{
    auto &registry = ExperimentRegistry::instance();
    EXPECT_NE(registry.find("fig2_dgemm_scatter"), nullptr);
    EXPECT_EQ(registry.find("fig2"), nullptr);
    EXPECT_EQ(registry.find("fig2*"), nullptr);
    EXPECT_EQ(registry.find(""), nullptr);
}

TEST(ExperimentRegistry, MatchSelectsByGlob)
{
    auto &registry = ExperimentRegistry::instance();
    EXPECT_EQ(registry.match("fig?_*").size(), 9u);
    EXPECT_EQ(registry.match("ablation_*").size(), 3u);
    EXPECT_EQ(registry.match("table?_*").size(), 2u);
    EXPECT_EQ(registry.match("*").size(),
              std::size(kExpectedExperiments));
    EXPECT_TRUE(registry.match("no_such_experiment_*").empty());
    // Exact names work as globs too (the driver treats every
    // positional the same way).
    auto one = registry.match("calibration");
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0]->info().name, "calibration");
}

class DuplicateOfFig1 : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "fig1_setup", .tag = "dup", .summary = "dup"};
        return info;
    }
    void run(SuiteContext &) override {}
};

TEST(ExperimentRegistryDeathTest, DuplicateRegistrationPanics)
{
    EXPECT_DEATH(ExperimentRegistry::instance().add(
                     std::make_unique<DuplicateOfFig1>()),
                 "duplicate experiment registration");
}

class NamelessExperiment : public Experiment
{
  public:
    const ExperimentInfo &
    info() const override
    {
        static const ExperimentInfo info{
            .name = "", .tag = "none", .summary = "none"};
        return info;
    }
    void run(SuiteContext &) override {}
};

TEST(ExperimentRegistryDeathTest, EmptyNamePanics)
{
    EXPECT_DEATH(ExperimentRegistry::instance().add(
                     std::make_unique<NamelessExperiment>()),
                 "empty name");
}

// ---------------------------------------------------------------
// Glob matcher
// ---------------------------------------------------------------

TEST(GlobMatch, Literals)
{
    EXPECT_TRUE(globMatch("abc", "abc"));
    EXPECT_FALSE(globMatch("abc", "abd"));
    EXPECT_FALSE(globMatch("abc", "ab"));
    EXPECT_FALSE(globMatch("ab", "abc"));
    EXPECT_TRUE(globMatch("", ""));
    EXPECT_FALSE(globMatch("", "a"));
}

TEST(GlobMatch, QuestionMarkMatchesExactlyOne)
{
    EXPECT_TRUE(globMatch("fig?_setup", "fig1_setup"));
    EXPECT_FALSE(globMatch("fig?_setup", "fig12_setup"));
    EXPECT_FALSE(globMatch("fig?", "fig"));
}

TEST(GlobMatch, StarMatchesAnyRun)
{
    EXPECT_TRUE(globMatch("*", ""));
    EXPECT_TRUE(globMatch("*", "anything"));
    EXPECT_TRUE(globMatch("fig*", "fig2_dgemm_scatter"));
    EXPECT_TRUE(globMatch("*scatter", "fig2_dgemm_scatter"));
    EXPECT_TRUE(globMatch("*dgemm*", "fig2_dgemm_scatter"));
    EXPECT_FALSE(globMatch("*lavamd*", "fig2_dgemm_scatter"));
    // Backtracking: the first '*' must be able to absorb more
    // after a failed literal run.
    EXPECT_TRUE(globMatch("*ab", "aab"));
    EXPECT_TRUE(globMatch("a*b*c", "axxbxxbc"));
    EXPECT_FALSE(globMatch("a*b*c", "axxbxxb"));
    EXPECT_TRUE(globMatch("**", "x"));
}

// ---------------------------------------------------------------
// Campaign dedup key
// ---------------------------------------------------------------

TEST(CampaignPlanKey, IdenticalCampaignsShareOneKey)
{
    EXPECT_EQ(campaignPlanKey("K40", "DGEMM", "2048x2048", 300),
              campaignPlanKey("K40", "DGEMM", "2048x2048", 300));
}

TEST(CampaignPlanKey, EveryFieldDistinguishes)
{
    std::string base =
        campaignPlanKey("K40", "DGEMM", "2048x2048", 300);
    EXPECT_NE(base,
              campaignPlanKey("XeonPhi", "DGEMM", "2048x2048",
                              300));
    EXPECT_NE(base,
              campaignPlanKey("K40", "LavaMD", "2048x2048", 300));
    EXPECT_NE(base,
              campaignPlanKey("K40", "DGEMM", "4096x4096", 300));
    EXPECT_NE(base,
              campaignPlanKey("K40", "DGEMM", "2048x2048", 301));
}

TEST(CampaignPlanKey, FieldShufflingCannotCollide)
{
    // The separator keeps ("ab", "c") distinct from ("a", "bc");
    // naive concatenation would collide.
    EXPECT_NE(campaignPlanKey("ab", "c", "d", 1),
              campaignPlanKey("a", "bc", "d", 1));
    EXPECT_NE(campaignPlanKey("a", "b1", "", 2),
              campaignPlanKey("a", "b", "1", 2));
}

TEST(CampaignPlanKey, RequestSetsDedupAcrossExperiments)
{
    // The canonical request helpers must agree on the key for the
    // same (device, workload, input, runs) so the scheduler can
    // collapse them across experiments.
    auto keys_of = [](const std::vector<CampaignRequest> &reqs) {
        std::set<std::string> keys;
        for (const auto &req : reqs) {
            keys.insert(campaignPlanKey(req.device.name,
                                        req.workload, req.runs));
        }
        return keys;
    };
    auto dgemm = keys_of(dgemmRequests(100));
    EXPECT_EQ(dgemm.size(), dgemmRequests(100).size())
        << "dgemm requests are not distinct campaigns";
    // A second experiment declaring the same requests adds no new
    // distinct campaigns.
    auto twice = dgemmRequests(100);
    for (const auto &req : dgemmRequests(100))
        twice.push_back(req);
    EXPECT_EQ(keys_of(twice), dgemm);
    // Different run counts are different campaigns.
    auto other = keys_of(dgemmRequests(101));
    for (const auto &key : other)
        EXPECT_EQ(dgemm.count(key), 0u);
}

// ---------------------------------------------------------------
// Workload identity without the golden run
// ---------------------------------------------------------------

TEST(DescribeWorkload, MatchesTheBuiltWorkload)
{
    // Every canonical spec, on both devices: the described
    // identity is what the built workload reports, so keys, seeds
    // and a store hit's launch view cannot tell the two apart.
    // The builds compute their goldens in bands over four jobs.
    WorkerPool pool(4);
    ScopedBuildPool attach(pool);
    std::vector<WorkloadSpec> specs;
    for (const auto &reqs :
         {dgemmRequests(1), lavamdRequests(1), hotspotRequests(1),
          clamrRequests(1)}) {
        for (const CampaignRequest &req : reqs)
            specs.push_back(req.workload);
    }
    for (DeviceId id : allDevices()) {
        DeviceModel device = makeDevice(id);
        for (const WorkloadSpec &spec : specs) {
            WorkloadIdentity described = describeWorkload(device, spec);
            auto built = buildWorkload(device, spec);
            std::string where = device.name + " " + built->name() +
                " " + built->inputLabel();
            EXPECT_EQ(described.traits.name, built->name()) << where;
            EXPECT_EQ(described.inputLabel, built->inputLabel())
                << where;

            const WorkloadTraits &a = described.traits;
            const WorkloadTraits &b = built->traits();
            EXPECT_EQ(a.totalThreads, b.totalThreads) << where;
            EXPECT_EQ(a.blockThreads, b.blockThreads) << where;
            EXPECT_EQ(a.perBlockLocalBytes, b.perBlockLocalBytes)
                << where;
            EXPECT_EQ(a.registersPerThread, b.registersPerThread)
                << where;
            EXPECT_EQ(a.flopsPerThread, b.flopsPerThread) << where;
            for (size_t r = 0; r < numResourceKinds; ++r) {
                auto kind = static_cast<ResourceKind>(r);
                EXPECT_EQ(a.util(kind), b.util(kind))
                    << where << " " << resourceKindName(kind);
            }
            EXPECT_EQ(a.controlFlowIntensity, b.controlFlowIntensity)
                << where;
            EXPECT_EQ(a.sfuIntensity, b.sfuIntensity) << where;
            EXPECT_EQ(a.kernelInvocations, b.kernelInvocations)
                << where;
            EXPECT_EQ(a.doublePrecision, b.doublePrecision) << where;
            EXPECT_EQ(a.crashExposure, b.crashExposure) << where;

            EXPECT_EQ(campaignPlanKey(device.name, spec, 100),
                      campaignPlanKey(device.name, built->name(),
                                      built->inputLabel(), 100))
                << where;
            EXPECT_EQ(defaultCampaign(100, device.name,
                                      described.traits.name,
                                      described.inputLabel)
                          .sim.seed,
                      defaultCampaign(100, device.name,
                                      built->name(),
                                      built->inputLabel())
                          .sim.seed)
                << where;
        }
    }
}

// ---------------------------------------------------------------
// Campaign prepass
// ---------------------------------------------------------------

/** An unregistered experiment that only declares campaigns. */
class DeclaringExperiment : public Experiment
{
  public:
    DeclaringExperiment(const std::string &name,
                        std::vector<CampaignRequest> requests)
        : info_{.name = name, .tag = "test", .summary = "test"},
          requests_(std::move(requests))
    {
    }

    const ExperimentInfo &info() const override { return info_; }

    std::vector<CampaignRequest>
    campaigns(uint64_t runs) const override
    {
        std::vector<CampaignRequest> requests = requests_;
        for (CampaignRequest &req : requests)
            req.runs = runs;
        return requests;
    }

    void run(SuiteContext &) override {}

  private:
    ExperimentInfo info_;
    std::vector<CampaignRequest> requests_;
};

/**
 * Two experiments sharing one small campaign (K40 DGEMM): four
 * declarations, three distinct campaigns.
 */
class PrepassTest : public ::testing::Test
{
  protected:
    static constexpr uint64_t kRuns = 12;
    static constexpr uint64_t kDistinct = 3;

    void
    SetUp() override
    {
        const auto *info = ::testing::UnitTest::GetInstance()
                               ->current_test_info();
        dir_ = ::testing::TempDir() + "radcrit_prepass_" +
            info->name();
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    /** What one prepass left in the plan. */
    struct Plan
    {
        ScheduleStats stats;
        /** Beam-log bytes of every plan entry, by plan key. */
        std::map<std::string, std::string> logs;
    };

    /** What one prepass served the experiments. */
    struct Served
    {
        ScheduleStats stats;
        /** runRows() of every declared campaign, by plan key. */
        std::map<std::string, std::vector<std::vector<std::string>>>
            rows;
    };

    /**
     * @return golden-output computations so far of the kernels
     * whose identity needs none (CLAMR's does).
     */
    static double
    goldenCalls()
    {
        StatsSnapshot snap = StatsRegistry::global().snapshot();
        double calls = 0.0;
        for (const char *kernel : {"dgemm", "lavamd", "hotspot"}) {
            calls += snap.value(std::string("kernel.") + kernel +
                                ".golden.calls");
        }
        return calls;
    }

    /**
     * Run the prepass for both experiments on a fresh context, then
     * read every declared campaign back the way an experiment's
     * run() does.
     */
    Served
    serve(unsigned jobs, CampaignStore *store)
    {
        WorkerPool pool(jobs);
        SuiteContext::Options options;
        options.jobs = jobs;
        options.writeCsv = false;
        options.runsOverride = static_cast<int64_t>(kRuns);
        SuiteContext ctx(options, store, pool);
        Served served;
        served.stats = scheduleCampaigns({&first_, &second_}, ctx);
        for (Experiment *exp : {&first_, &second_}) {
            for (const CampaignRequest &req : exp->campaigns(kRuns)) {
                const DeviceModel &device = req.device;
                served.rows[campaignPlanKey(device.name, req.workload,
                                            kRuns)] =
                    runRows(ctx.campaignResult(device, req.workload,
                                               kRuns));
            }
        }
        return served;
    }

    /**
     * Run the prepass for both experiments on `jobs` workers and
     * collect the plan, checking on the way that every entry
     * carries a default analysis equal to analyzeCampaign() of
     * its raw campaign.
     */
    Plan
    schedule(unsigned jobs, CampaignStore *store)
    {
        WorkerPool pool(jobs);
        SuiteContext::Options options;
        options.jobs = jobs;
        options.writeCsv = false;
        options.runsOverride = static_cast<int64_t>(kRuns);
        SuiteContext ctx(options, store, pool);
        Plan plan;
        plan.stats = scheduleCampaigns({&first_, &second_}, ctx);
        for (Experiment *exp : {&first_, &second_}) {
            for (const CampaignRequest &req : exp->campaigns(kRuns)) {
                const DeviceModel &device = req.device;
                std::string key =
                    campaignPlanKey(device.name, req.workload, kRuns);
                const SuiteContext::PlannedCampaign *entry =
                    ctx.planned(key);
                if (!entry) {
                    ADD_FAILURE() << "no plan entry for " << key;
                    continue;
                }
                std::ostringstream log;
                writeBeamLog(entry->raw, log);
                plan.logs[key] = log.str();

                if (!entry->defaultAnalysis) {
                    ADD_FAILURE() << "no default analysis for " << key;
                    continue;
                }
                CampaignConfig cfg = defaultCampaign(
                    kRuns, device.name, entry->raw.workloadName,
                    entry->raw.inputLabel);
                CampaignResult fresh =
                    analyzeCampaign(entry->raw, cfg.analysis);
                const CampaignResult &folded = *entry->defaultAnalysis;
                EXPECT_EQ(runRows(folded), runRows(fresh)) << key;
                EXPECT_EQ(folded.fitTotalAu(true),
                          fresh.fitTotalAu(true))
                    << key;
                EXPECT_EQ(folded.fitTotalAu(false),
                          fresh.fitTotalAu(false))
                    << key;
            }
        }
        return plan;
    }

    /**
     * @return the beam-log bytes simulateCampaign() produces on
     * `jobs` workers for every campaign the two experiments
     * declare, by plan key: what a clean prepass must reproduce.
     */
    std::map<std::string, std::string>
    runnerLogs(unsigned jobs)
    {
        std::map<std::string, std::string> logs;
        for (Experiment *exp : {&first_, &second_}) {
            for (const CampaignRequest &req : exp->campaigns(kRuns)) {
                const DeviceModel &device = req.device;
                auto workload = buildWorkload(device, req.workload);
                CampaignConfig cfg = defaultCampaign(
                    kRuns, device.name, workload->name(),
                    workload->inputLabel());
                cfg.sim.jobs = jobs;
                std::ostringstream log;
                writeBeamLog(simulateCampaign(device, *workload, cfg.sim),
                             log);
                logs[campaignPlanKey(device.name, req.workload,
                                     kRuns)] = log.str();
            }
        }
        return logs;
    }

    DeclaringExperiment first_{
        "prepass_first",
        {{makeDevice(DeviceId::K40), dgemmSpec(128)},
         {makeDevice(DeviceId::XeonPhi), dgemmSpec(128)}}};
    DeclaringExperiment second_{
        "prepass_second",
        {{makeDevice(DeviceId::K40), dgemmSpec(128)},
         {makeDevice(DeviceId::XeonPhi),
          lavamdSpec(LavaMdSize{6, 13})}}};
    std::string dir_;
};

TEST_F(PrepassTest, ColdPlanIsIdenticalAtOneAndFourJobs)
{
    Plan one = schedule(1, nullptr);
    Plan four = schedule(4, nullptr);
    for (const Plan *plan : {&one, &four}) {
        EXPECT_EQ(plan->stats.requested, 4u);
        EXPECT_EQ(plan->stats.distinct, kDistinct);
        EXPECT_EQ(plan->stats.simulated, kDistinct);
        EXPECT_EQ(plan->stats.storeHits, 0u);
    }
    EXPECT_EQ(one.logs.size(), kDistinct);
    EXPECT_EQ(one.logs, four.logs);
    // Every plan entry is the campaign the runner simulates for the
    // same config.
    EXPECT_EQ(one.logs, runnerLogs(1));
    EXPECT_EQ(four.logs, runnerLogs(4));
}

TEST_F(PrepassTest, WarmStoreServesTheColdPlan)
{
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    Plan cold = schedule(4, store.get());
    EXPECT_EQ(cold.stats.simulated, kDistinct);
    EXPECT_EQ(cold.stats.storeHits, 0u);

    for (unsigned jobs : {1u, 4u}) {
        Plan warm = schedule(jobs, store.get());
        EXPECT_EQ(warm.stats.simulated, 0u) << "jobs " << jobs;
        EXPECT_EQ(warm.stats.storeHits, kDistinct) << "jobs " << jobs;
        EXPECT_EQ(warm.logs, cold.logs) << "jobs " << jobs;
    }
    EXPECT_EQ(cold.logs, schedule(1, nullptr).logs);
}

TEST_F(PrepassTest, WarmPlanComputesNoGolden)
{
    // A warm suite run only loads and analyzes: neither the
    // prepass nor the experiments' reads may build a workload.
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    Served cold = serve(4, store.get());
    EXPECT_EQ(cold.stats.simulated, kDistinct);

    double before = goldenCalls();
    Served warm = serve(4, store.get());
    EXPECT_EQ(goldenCalls(), before);
    EXPECT_EQ(warm.stats.storeHits, kDistinct);
    EXPECT_EQ(warm.rows.size(), kDistinct);
    EXPECT_EQ(warm.rows, cold.rows);
}

TEST_F(PrepassTest, WarmPlannedVariantComputesNoGolden)
{
    // A device variant is declared like a stock device: a cold
    // prepass simulates it once, a warm one serves it from the
    // store without building the workload.
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    DeviceModel variant = makeDevice(DeviceId::K40);
    variant.name = "K40+OS-sched";
    variant.schedulerStrainExponent = 0.14;
    variant.registerResidencyExposure = false;
    DeclaringExperiment declaring("prepass_variant",
                                  {{variant, dgemmSpec(128)}});

    CampaignRaw raws[2];
    for (int warm : {0, 1}) {
        WorkerPool pool(2);
        SuiteContext::Options options;
        options.jobs = 2;
        options.writeCsv = false;
        options.runsOverride = static_cast<int64_t>(kRuns);
        SuiteContext ctx(options, store.get(), pool);
        double before = goldenCalls();
        ScheduleStats stats = scheduleCampaigns({&declaring}, ctx);
        raws[warm] = ctx.campaignRaw(variant, dgemmSpec(128), kRuns);
        EXPECT_EQ(goldenCalls() - before, warm ? 0.0 : 1.0)
            << "warm " << warm;
        EXPECT_EQ(stats.simulated, warm ? 0u : 1u);
        EXPECT_EQ(stats.storeHits, warm ? 1u : 0u);
        EXPECT_EQ(ctx.memoryServes(), 1u);
    }
    const CampaignRaw &cold = raws[0];
    const CampaignRaw &warm = raws[1];
    ASSERT_EQ(cold.runs.size(), kRuns);
    EXPECT_EQ(cold.deviceName, variant.name);
    // The variant's launch view, not the stock K40's.
    EXPECT_EQ(warm.launch.schedulerStrain, cold.launch.schedulerStrain);
    EXPECT_EQ(warm.launch.registerExposure,
              cold.launch.registerExposure);
    EXPECT_NE(cold.launch.schedulerStrain,
              buildLaunch(makeDevice(DeviceId::K40),
                          describeWorkload(variant, dgemmSpec(128))
                              .traits)
                  .schedulerStrain);
    std::ostringstream cold_log, warm_log;
    writeBeamLog(cold, cold_log);
    writeBeamLog(warm, warm_log);
    EXPECT_EQ(warm_log.str(), cold_log.str());
}

using PrepassDeathTest = PrepassTest;

TEST_F(PrepassDeathTest, UndeclaredConsumePanics)
{
    // The context serves only the plan: consuming a campaign no
    // selected experiment declared is a bug in that experiment.
    WorkerPool pool(1);
    SuiteContext::Options options;
    options.runsOverride = static_cast<int64_t>(kRuns);
    SuiteContext ctx(options, nullptr, pool);
    scheduleCampaigns({&first_}, ctx);
    DeviceModel k40 = makeDevice(DeviceId::K40);
    EXPECT_DEATH(ctx.campaignRaw(k40, dgemmSpec(128), kRuns + 1),
                 "undeclared campaign consumed: device K40, workload "
                 "DGEMM, input .*, 13 runs");
    EXPECT_DEATH(ctx.campaignResult(k40, lavamdSpec(LavaMdSize{6, 13}),
                                    kRuns),
                 "undeclared campaign consumed: device K40, workload "
                 "LavaMD");
}

TEST_F(PrepassTest, ColdPlanBuildsEachMissOnce)
{
    // The two experiments share one campaign: four declarations,
    // three misses, so three golden outputs at any --jobs.
    for (unsigned jobs : {1u, 4u}) {
        double before = goldenCalls();
        Served cold = serve(jobs, nullptr);
        EXPECT_EQ(cold.stats.requested, 4u) << "jobs " << jobs;
        EXPECT_EQ(cold.stats.simulated, kDistinct) << "jobs " << jobs;
        EXPECT_EQ(goldenCalls() - before,
                  static_cast<double>(kDistinct))
            << "jobs " << jobs;
    }
}

TEST_F(PrepassTest, TimelineShowsOneBuildSpanPerSimulatedCampaign)
{
    // A miss's golden build is a prepass span with source "build",
    // one per simulated campaign; a warm run builds nothing.
    auto store = CampaignStore::open(dir_);
    ASSERT_TRUE(store);
    for (bool warm : {false, true}) {
        Timeline tl;
        setTimeline(&tl);
        Served served = serve(4, store.get());
        setTimeline(nullptr);
        EXPECT_EQ(served.stats.simulated, warm ? 0u : kDistinct);
        std::multiset<std::string> built;
        for (const TimelineLane *lane : tl.lanes()) {
            for (const TimelineEvent &ev : lane->events()) {
                auto has = [&ev](const TimelineArg &arg) {
                    return std::find(ev.args.begin(), ev.args.end(),
                                     arg) != ev.args.end();
                };
                if (ev.category == "prepass" &&
                    has({"source", "build"}) &&
                    has({"campaign", ev.name}))
                    built.insert(ev.name);
            }
        }
        EXPECT_EQ(built.size(), served.stats.simulated)
            << (warm ? "warm" : "cold");
        EXPECT_EQ(std::set<std::string>(built.begin(), built.end())
                      .size(),
                  built.size());
    }
}

TEST_F(PrepassTest, EmptyPlanSchedulesNothing)
{
    DeclaringExperiment idle("prepass_idle", {});
    WorkerPool pool(4);
    SuiteContext::Options options;
    options.jobs = 4;
    SuiteContext ctx(options, nullptr, pool);
    using Selection = std::vector<Experiment *>;
    for (const Selection &experiments :
         {Selection{}, Selection{&idle}}) {
        ScheduleStats stats = scheduleCampaigns(experiments, ctx);
        EXPECT_EQ(stats.requested, 0u);
        EXPECT_EQ(stats.distinct, 0u);
        EXPECT_EQ(stats.simulated, 0u);
        EXPECT_EQ(stats.storeHits, 0u);
        EXPECT_EQ(stats.concurrentPeak, 0u);
        EXPECT_EQ(stats.wallNs, 0u);
    }
}

TEST_F(PrepassTest, PublishesThePhaseTimers)
{
    // The prepass simulates outside the campaign runner, so it
    // must publish the timers a runner-simulated campaign would:
    // one sample/classify tick per run, one campaign.total sample
    // per campaign, and the process RSS gauges.
    StatsRegistry &global = StatsRegistry::global();
    StatsSnapshot before = global.snapshot();
    schedule(2, nullptr);
    StatsSnapshot after = global.snapshot();
    auto grew = [&](const std::string &name) {
        return after.value(name) - before.value(name);
    };
    EXPECT_EQ(grew("campaign.phase.sample.calls"),
              static_cast<double>(kDistinct * kRuns));
    EXPECT_EQ(grew("campaign.phase.classify.calls"),
              static_cast<double>(kDistinct * kRuns));
    EXPECT_GT(grew("campaign.phase.sample.ns"), 0.0);
    EXPECT_GT(grew("campaign.phase.replay.calls"), 0.0);
    EXPECT_EQ(grew("campaign.total.calls"),
              static_cast<double>(kDistinct));
    EXPECT_GT(after.value("proc.mem.peak_rss_bytes"), 0.0);
}

TEST_F(PrepassTest, ChaosRunsMatchTheRunner)
{
    // The prepass executes runs through the runner's own guarded
    // run body, so under one chaos plan it must quarantine the same
    // run and absorb the same transient fault as simulateCampaign().
    const uint64_t permanent = 3;
    const uint64_t transient = 7;
    ChaosPlan plan;
    plan.faults.push_back({ChaosFaultKind::Throw, permanent, 3, 0});
    plan.faults.push_back({ChaosFaultKind::Throw, transient, 1, 0});

    DeclaringExperiment single("prepass_chaos",
                               {{makeDevice(DeviceId::K40),
                                 dgemmSpec(128)}});
    DeviceModel device = makeDevice(DeviceId::K40);
    auto workload = buildWorkload(device, dgemmSpec(128));
    CampaignConfig cfg =
        defaultCampaign(kRuns, device.name, workload->name(),
                        workload->inputLabel());
    ASSERT_EQ(cfg.sim.resilience.maxAttempts, 3u);

    WorkerPool pool(4);
    SuiteContext::Options options;
    options.jobs = 4;
    options.writeCsv = false;
    options.runsOverride = static_cast<int64_t>(kRuns);
    SuiteContext ctx(options, nullptr, pool);
    ChaosEngine prepassChaos(plan);
    setChaos(&prepassChaos);
    ScheduleStats stats = scheduleCampaigns({&single}, ctx);
    setChaos(nullptr);
    EXPECT_EQ(stats.simulated, 1u);
    const SuiteContext::PlannedCampaign *entry =
        ctx.planned(campaignPlanKey(device.name, workload->name(),
                                    workload->inputLabel(), kRuns));
    ASSERT_NE(entry, nullptr);

    ChaosEngine runnerChaos(plan);
    setChaos(&runnerChaos);
    const CampaignRaw runner =
        simulateCampaign(device, *workload, cfg.sim);
    setChaos(nullptr);

    ASSERT_EQ(entry->raw.runs.size(), kRuns);
    const CampaignRaw &prepass = entry->raw;
    for (const CampaignRaw *raw : {&prepass, &runner}) {
        EXPECT_EQ(raw->runs[permanent].outcome, Outcome::InfraError);
        EXPECT_EQ(raw->count(Outcome::InfraError), 1u);
        EXPECT_NE(raw->runs[transient].outcome, Outcome::InfraError);
    }
    EXPECT_EQ(runRows(analyzeCampaign(prepass, cfg.analysis)),
              runRows(analyzeCampaign(runner, cfg.analysis)));
}

TEST(SuiteOptionsDeathTest, ExecutionShapeFlagsAreUnknown)
{
    // The prepass has one shape, so the suite takes no flag that
    // picks one.
    for (const char *flag : {"--shard-campaigns", "--stream",
                             "--batch-runs=4", "--io-threads=2"}) {
        char prog[] = "radcrit_suite", run[] = "run", glob[] = "fig2*";
        std::string option = flag;
        char *suite_argv[] = {prog, run, glob, option.data()};
        std::string name = option.substr(0, option.find('='));
        EXPECT_EXIT(suiteMain(4, suite_argv),
                    ::testing::ExitedWithCode(1),
                    "unknown option " + name)
            << flag;
    }
}

// ---------------------------------------------------------------
// Output directory resolution
// ---------------------------------------------------------------

class OutputDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const char *env = std::getenv("RADCRIT_BENCH_OUT");
        saved_ = env ? env : "";
        hadEnv_ = env != nullptr;
    }

    void
    TearDown() override
    {
        if (hadEnv_)
            setenv("RADCRIT_BENCH_OUT", saved_.c_str(), 1);
        else
            unsetenv("RADCRIT_BENCH_OUT");
    }

  private:
    std::string saved_;
    bool hadEnv_ = false;
};

TEST_F(OutputDirTest, DefaultIsBenchOut)
{
    unsetenv("RADCRIT_BENCH_OUT");
    EXPECT_EQ(resolveOutputDir(""), "bench_out");
}

TEST_F(OutputDirTest, EnvironmentOverridesDefault)
{
    setenv("RADCRIT_BENCH_OUT", "env_dir", 1);
    EXPECT_EQ(resolveOutputDir(""), "env_dir");
}

TEST_F(OutputDirTest, CliValueBeatsEnvironment)
{
    setenv("RADCRIT_BENCH_OUT", "env_dir", 1);
    EXPECT_EQ(resolveOutputDir("cli_dir"), "cli_dir");
}

} // anonymous namespace
} // namespace radcrit
