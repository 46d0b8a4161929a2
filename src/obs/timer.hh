/**
 * @file
 * Scoped phase timers over the stats registry.
 *
 * A PhaseTimer names one phase ("campaign.phase.replay",
 * "kernel.dgemm.inject") and resolves its registry instruments once
 * — a call counter "<name>.calls", a nanosecond total "<name>.ns"
 * and optionally a log-scale latency histogram "<name>.hist" — so
 * hot paths pay only two steady_clock reads and a few relaxed
 * atomic adds per timed section. ScopedTick is the RAII guard for a
 * cached PhaseTimer; ScopedTimer is the one-shot convenience that
 * resolves by name for coarse, infrequent phases.
 */

#ifndef RADCRIT_OBS_TIMER_HH
#define RADCRIT_OBS_TIMER_HH

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/stats_registry.hh"

namespace radcrit
{

/** @return steady-clock nanoseconds elapsed since `since`. */
inline uint64_t
elapsedNs(std::chrono::steady_clock::time_point since)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

/**
 * One named phase accumulating call count and total nanoseconds
 * (plus an optional latency histogram) into a registry.
 */
class PhaseTimer
{
  public:
    /**
     * @param registry Registry owning the instruments.
     * @param name Phase name; instruments are created under it.
     * @param with_hist Also record per-call latencies into
     * "<name>.hist" (skip for the very hottest paths).
     */
    PhaseTimer(StatsRegistry &registry, const std::string &name,
               bool with_hist = true);

    /** Account one timed section of the given duration. */
    void recordNs(uint64_t ns)
    {
        calls_.inc();
        ns_.inc(ns);
        if (hist_)
            hist_->add(static_cast<double>(ns));
    }

    /** @return the phase name. */
    const std::string &name() const { return name_; }

    /** @return calls recorded so far. */
    uint64_t calls() const { return calls_.value(); }

    /** @return total nanoseconds recorded so far. */
    uint64_t totalNs() const { return ns_.value(); }

  private:
    std::string name_;
    Counter &calls_;
    Counter &ns_;
    LogHistogram *hist_;
};

/**
 * RAII guard timing one section into a cached PhaseTimer.
 */
class ScopedTick
{
  public:
    explicit ScopedTick(PhaseTimer &timer)
        : timer_(timer),
          start_(std::chrono::steady_clock::now())
    {}

    ~ScopedTick() { timer_.recordNs(elapsedNs()); }

    ScopedTick(const ScopedTick &) = delete;
    ScopedTick &operator=(const ScopedTick &) = delete;

    /** @return nanoseconds elapsed since construction. */
    uint64_t elapsedNs() const { return radcrit::elapsedNs(start_); }

  private:
    PhaseTimer &timer_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * One-shot scoped timer resolving instruments by name; for coarse
 * phases (golden-run setup, whole-campaign sections) where the map
 * lookup is negligible.
 */
class ScopedTimer
{
  public:
    ScopedTimer(StatsRegistry &registry, const std::string &name)
        : timer_(registry, name), tick_(timer_)
    {}

    /** @return nanoseconds elapsed since construction. */
    uint64_t elapsedNs() const { return tick_.elapsedNs(); }

  private:
    // Member order matters: tick_ destructs first and records into
    // timer_ while it is still alive.
    PhaseTimer timer_;
    ScopedTick tick_;
};

} // namespace radcrit

#endif // RADCRIT_OBS_TIMER_HH
