/**
 * @file
 * Experiment interface and self-registration registry.
 *
 * Every paper figure, table, and ablation is an Experiment: a
 * named unit that declares the campaigns it needs (for the suite
 * scheduler's cross-experiment dedup) and renders its output from
 * a SuiteContext. Experiments register themselves at static-init
 * time via RADCRIT_REGISTER_EXPERIMENT, so the one radcrit_suite
 * driver discovers them by name or glob without a central list.
 */

#ifndef RADCRIT_SUITE_EXPERIMENT_HH
#define RADCRIT_SUITE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "suite/spec.hh"

namespace radcrit
{

class CliParser;
class SuiteContext;

/** Static description of one experiment. */
struct ExperimentInfo
{
    /** Registry name ("fig2_dgemm_scatter"); globally unique. */
    std::string name;
    /** Paper artifact tag ("Fig. 2", "Table I", "Ablation 3"). */
    std::string tag;
    /** One-line summary for `list`. */
    std::string summary;
    /** Sort key for `run all` (ties broken by name). */
    int order = 0;
    /** Default --runs when the user gives none. */
    uint64_t defaultRuns = 200;
};

/**
 * One registered experiment. Implementations are stateless between
 * runs: everything an invocation needs arrives via the
 * SuiteContext.
 */
class Experiment
{
  public:
    virtual ~Experiment() = default;

    /** @return the static description. */
    virtual const ExperimentInfo &info() const = 0;

    /**
     * Register extra CLI options (beyond the standard
     * runs/jobs/cache/out/no-csv set). Option names must be unique
     * across all experiments: the suite driver exposes the union
     * on one command line.
     */
    virtual void
    addOptions(CliParser &cli) const
    {
        (void)cli;
    }

    /**
     * Declare the campaigns this experiment will consume at the
     * given run count, for the scheduler's dedup prepass. run()
     * may consume only declared campaigns (device variants
     * included): the context serves nothing else.
     */
    virtual std::vector<CampaignRequest>
    campaigns(uint64_t runs) const
    {
        (void)runs;
        return {};
    }

    /** Produce the experiment's output (render + CSV side files). */
    virtual void run(SuiteContext &ctx) = 0;
};

/**
 * Process-wide experiment registry, populated by static
 * registrars. Lookup is by exact name or by glob ("fig*", "?vf*":
 * '*' matches any run, '?' one character).
 */
class ExperimentRegistry
{
  public:
    /** @return the singleton registry. */
    static ExperimentRegistry &instance();

    /**
     * Register an experiment; a duplicate name is a panic() (two
     * registrars claiming one name is a programming error).
     */
    void add(std::unique_ptr<Experiment> experiment);

    /** @return all experiments, sorted by (order, name). */
    std::vector<Experiment *> all() const;

    /** @return experiments whose name matches the glob, sorted. */
    std::vector<Experiment *> match(const std::string &glob) const;

    /** @return the experiment with this exact name, or null. */
    Experiment *find(const std::string &name) const;

  private:
    std::vector<std::unique_ptr<Experiment>> experiments_;
};

/** @return true when glob `pattern` ('*', '?') matches `text`. */
bool globMatch(const std::string &pattern, const std::string &text);

/**
 * Define the static registrar for an experiment class. Use at
 * namespace scope in the experiment's .cc file.
 */
#define RADCRIT_REGISTER_EXPERIMENT(cls)                           \
    namespace                                                      \
    {                                                              \
    const bool cls##_registered = [] {                             \
        ExperimentRegistry::instance().add(                        \
            std::make_unique<cls>());                              \
        return true;                                               \
    }();                                                           \
    }

} // namespace radcrit

#endif // RADCRIT_SUITE_EXPERIMENT_HH
