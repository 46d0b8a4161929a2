/**
 * @file
 * Shared render steps for experiments: the paper's two figure
 * shapes (scatter + stacked locality bars) with CSV side-output,
 * and the per-bench JSON document the standalone shims emit.
 * Ported from the old header-only bench_util.hh, with the
 * process-wide state replaced by the SuiteContext.
 */

#ifndef RADCRIT_SUITE_RENDER_HH
#define RADCRIT_SUITE_RENDER_HH

#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "metrics/locality.hh"
#include "suite/context.hh"

namespace radcrit
{

/**
 * Version of the per-bench and suite JSON documents;
 * tools/check_bench_json.py validates the same number.
 */
inline constexpr uint64_t benchJsonSchema = 9;

/**
 * Render one scatter figure (mean relative error vs. number of
 * incorrect elements) from a set of campaigns, with the paper's
 * axis clamps, and dump per-run CSV when the context wants CSV.
 */
void renderScatterFigure(SuiteContext &ctx,
                         const std::string &title,
                         const std::vector<CampaignResult> &results,
                         double x_clamp, double y_clamp,
                         const std::string &csv_name);

/**
 * Render one locality/magnitude figure (stacked FIT bars, All and
 * >threshold) from a set of campaigns.
 */
void renderLocalityFigure(
    SuiteContext &ctx, const std::string &title,
    const std::vector<CampaignResult> &results,
    const std::vector<Pattern> &patterns,
    const std::string &csv_name);

/**
 * Emit one experiment's machine-readable results as
 * <outputDir>/<bench_name>.json (benchJsonSchema): campaign/run
 * tallies with worker count and cache traffic, ns-per-run and
 * parallel runs-per-second, the perf-trajectory "timings" block,
 * the prepass "sharding" block, the
 * execution-resilience "resilience" block, the process "memory"
 * block, and the full global stats snapshot.
 * tools/check_bench_json.py validates the shape in CI.
 */
void writeBenchJson(SuiteContext &ctx,
                    const std::string &bench_name);

/**
 * Write the "resilience" JSON object from a stats snapshot:
 * retry/resume/quarantine tallies plus the chaos fault counters,
 * all zero on a clean run. Shared by the per-bench and suite
 * documents so both carry the identical shape.
 *
 * @param indent Indentation level handed to JsonObjectWriter.
 */
void writeResilienceJson(std::ostream &os,
                         const StatsSnapshot &snap, int indent);

/**
 * Write the "sharding" JSON object shared by the per-bench and
 * suite documents: the suite prepass's concurrency high-water
 * mark, overlap win and wall time (all 0 for standalone benches,
 * which have no prepass).
 */
void writeShardingJson(std::ostream &os, int indent,
                       uint64_t concurrent_campaigns,
                       uint64_t overlap_ns,
                       uint64_t prepass_wall_ns);

/**
 * Write the "memory" JSON object: a live
 * /proc/self/status RSS sample (peak_rss_bytes /
 * current_rss_bytes, 0 when /proc is unavailable) plus the
 * streaming pipeline's batch accounting from the stats snapshot
 * (stream_batches, batch_runs — 0 on a materialized run). Shared
 * by the per-bench and suite documents.
 */
void writeMemoryJson(std::ostream &os, const StatsSnapshot &snap,
                     int indent);

} // namespace radcrit

#endif // RADCRIT_SUITE_RENDER_HH
