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
 * `run all` (or any glob) selects experiments from the registry,
 * runs the scheduler's campaign-dedup prepass on one shared
 * WorkerPool, then each experiment's pure analyze/render phase,
 * and emits one suite JSON (version benchJsonSchema, validated by
 * tools/check_bench_json.py) with per-experiment blocks, suite
 * totals and dedup/cache traffic.
 *
 * experimentShimMain() is the whole body of a per-figure shim
 * executable: it resolves one experiment by name, parses the
 * standard bench CLI (plus the experiment's extra options), and
 * reproduces the standalone bench behavior — including the
 * per-bench JSON — on top of the same registry.
 *
 * printCatalog() renders the `list` output (devices, workloads,
 * experiments) and is shared with radcrit_cli.
 */

#ifndef RADCRIT_SUITE_DRIVER_HH
#define RADCRIT_SUITE_DRIVER_HH

#include <iosfwd>
#include <string>

namespace radcrit
{

/** radcrit_suite main. @return process exit code. */
int suiteMain(int argc, char **argv);

/**
 * Body of a per-figure compatibility shim.
 *
 * @param name Experiment registry name (no "bench_" prefix).
 * @return process exit code.
 */
int experimentShimMain(const std::string &name, int argc,
                       char **argv);

/**
 * Render the known devices, workloads, and experiments to `os`,
 * human-readable or as one JSON document.
 */
void printCatalog(std::ostream &os, bool json);

} // namespace radcrit

#endif // RADCRIT_SUITE_DRIVER_HH
