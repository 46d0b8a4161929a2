/**
 * @file
 * Process-memory observability: peak and current resident set
 * size, read from Linux /proc/self/status (VmHWM / VmRSS).
 *
 * The streaming campaign pipeline exists to bound peak RSS; this
 * is the instrument that proves it does. readProcMem() samples the
 * kernel's accounting, publishProcMem() publishes the sample as
 * "proc.mem.peak_rss_bytes" / "proc.mem.current_rss_bytes" gauges
 * (global registry material: process-shaped, never part of a
 * campaign's jobs-independent snapshot — the campaign runner
 * strips "proc.*" from its kernel diff), and the suite JSON
 * "memory" block and the HTML campaign report surface it.
 *
 * On platforms without /proc the sample comes back invalid and
 * gauges are simply not set; nothing downstream depends on the
 * values being present.
 */

#ifndef RADCRIT_OBS_PROCMEM_HH
#define RADCRIT_OBS_PROCMEM_HH

#include <cstdint>

#include "obs/stats_registry.hh"

namespace radcrit
{

/** One sample of the process's memory accounting. */
struct ProcMemSample
{
    /** Peak resident set size (VmHWM), bytes. */
    uint64_t peakRssBytes = 0;
    /** Current resident set size (VmRSS), bytes. */
    uint64_t currentRssBytes = 0;
    /** False when /proc/self/status was unreadable. */
    bool valid = false;
};

/** @return the current /proc/self/status VmHWM/VmRSS sample. */
ProcMemSample readProcMem();

/**
 * Sample and publish "proc.mem.{peak,current}_rss_bytes" gauges
 * into `reg` (typically the global registry). No-op when the
 * sample is invalid.
 *
 * @return the sample taken.
 */
ProcMemSample publishProcMem(StatsRegistry &reg);

} // namespace radcrit

#endif // RADCRIT_OBS_PROCMEM_HH
