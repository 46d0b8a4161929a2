/**
 * @file
 * Entry points of the experiment suite.
 *
 * suiteMain() implements the radcrit_suite command:
 *
 *   radcrit_suite list [--json]
 *   radcrit_suite run <glob>... [--runs N] [--jobs N]
 *       [--cache DIR] [--out DIR] [--no-csv] [--json PATH]
 *       [experiment-specific options]
 *
 * `run all` (or any glob, or one experiment's name) selects
 * experiments from the registry, runs the scheduler's
 * campaign-dedup prepass on one shared WorkerPool, then each
 * experiment's pure analyze/render phase, and emits one suite JSON
 * (validated by tools/check_bench_json.py --suite) with
 * per-experiment blocks, suite totals and dedup/cache traffic.
 * This is the only way to run an experiment.
 *
 * printCatalog() renders the `list` output (devices, workloads,
 * experiments) and is shared with radcrit_cli.
 */

#ifndef RADCRIT_SUITE_DRIVER_HH
#define RADCRIT_SUITE_DRIVER_HH

#include <iosfwd>

namespace radcrit
{

/** radcrit_suite main. @return process exit code. */
int suiteMain(int argc, char **argv);

/**
 * Render the known devices, workloads, and experiments to `os`,
 * human-readable or as one JSON document.
 */
void printCatalog(std::ostream &os, bool json);

} // namespace radcrit

#endif // RADCRIT_SUITE_DRIVER_HH
