/**
 * @file
 * Campaign flight recorder: per-worker trace-event timelines.
 *
 * A Timeline records where campaign wall-clock goes: span events
 * (phases, per-run execution) and instant events, each stamped with
 * nanoseconds since the timeline's epoch and appended to a lane.
 * Lanes map one-to-one to trace "threads" — the campaign control
 * flow gets lane 0, worker w gets lane w+1 — and are single-writer:
 * each lane is only ever appended to by the thread that owns it, so
 * the hot recording path is a plain vector push_back with no lock.
 * The only lock in the subsystem guards lane creation/lookup, which
 * the campaign runner's workers hit once per campaign, not once per
 * run.
 *
 * Export is Chrome trace-event JSON ("X" complete events plus
 * thread-name metadata), loadable in Perfetto / chrome://tracing;
 * tools/check_timeline.py validates the structure in CI. Export
 * must be quiescent — call writeJson() only after every recording
 * thread has been joined (the campaign runner records inside
 * WorkerPool::forDynamic(), which joins before returning, so any
 * point after simulateCampaign()/analyzeCampaign() is safe).
 *
 * The process-wide recorder is attached with setTimeline(); the
 * runner records only when one is attached, so the disabled path
 * costs a single atomic pointer load per run and recording cannot
 * change campaign results (runs/CSV/stats stay bit-identical with
 * the recorder on or off).
 */

#ifndef RADCRIT_OBS_TIMELINE_HH
#define RADCRIT_OBS_TIMELINE_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace radcrit
{

/** One key/value annotation on a timeline event. */
using TimelineArg = std::pair<std::string, std::string>;

/**
 * One recorded event. Spans carry a duration; instants do not.
 */
struct TimelineEvent
{
    std::string name;
    /** Trace-event category ("campaign", "run", ...). */
    std::string category;
    bool instant = false;
    /** Start time in nanoseconds since the timeline epoch. */
    uint64_t tsNs = 0;
    /** Span duration in nanoseconds (0 for instants). */
    uint64_t durNs = 0;
    std::vector<TimelineArg> args;
};

/**
 * One lane of the timeline (= one trace tid). Single-writer: only
 * the owning thread may record into a lane, which is what keeps
 * recording lock-free.
 */
class TimelineLane
{
  public:
    /** Record a completed span that started at `ts_ns`. */
    void span(std::string name, std::string category,
              uint64_t ts_ns, uint64_t dur_ns,
              std::vector<TimelineArg> args = {});

    /** Record an instant event. */
    void instant(std::string name, std::string category,
                 uint64_t ts_ns, std::vector<TimelineArg> args = {});

    /** @return the trace tid this lane exports as. */
    uint32_t tid() const { return tid_; }

    /** @return the lane's thread-name label ("worker 3"). */
    const std::string &label() const { return label_; }

    /**
     * @return recorded events in recording order. Only valid once
     * the owning thread has been joined.
     */
    const std::vector<TimelineEvent> &events() const
    {
        return events_;
    }

    /** @return total span nanoseconds recorded in this lane. */
    uint64_t busyNs() const;

  private:
    friend class Timeline;

    TimelineLane(uint32_t tid, std::string label)
        : tid_(tid), label_(std::move(label))
    {}

    uint32_t tid_;
    std::string label_;
    std::vector<TimelineEvent> events_;
};

/**
 * The flight recorder: owns the lanes and the epoch, and exports
 * Chrome trace-event JSON.
 */
class Timeline
{
  public:
    /** The epoch is the construction instant. */
    Timeline();

    /**
     * @return the lane exporting as trace tid `tid`, creating it
     * with `label` as its thread name on first use (later labels
     * are ignored). The returned reference stays valid for the
     * Timeline's lifetime; the caller thread becomes the lane's
     * writer.
     */
    TimelineLane &lane(uint32_t tid, const std::string &label);

    /** @return nanoseconds elapsed since the epoch. */
    uint64_t nowNs() const;

    /** @return lanes in tid order. Quiescent use only. */
    std::vector<const TimelineLane *> lanes() const;

    /** @return total events across lanes. Quiescent use only. */
    size_t eventCount() const;

    /**
     * Export as a Chrome trace-event JSON object: thread-name
     * metadata first, then each lane's events in tid order (per
     * lane, events appear in recording order, so timestamps are
     * monotonic within a tid). Quiescent use only.
     */
    void writeJson(std::ostream &os) const;

    /** writeJson() into `path`; fatal() when it cannot be opened. */
    void writeJsonFile(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<TimelineLane>> lanes_;
};

/**
 * Attach the process-wide flight recorder (non-owning; pass
 * nullptr to detach).
 *
 * @return the previously attached recorder.
 */
Timeline *setTimeline(Timeline *timeline);

/** @return the attached recorder, or nullptr when off. */
Timeline *timeline();

} // namespace radcrit

#endif // RADCRIT_OBS_TIMELINE_HH
