/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The probe wraps each call into a radcrit layer's public function
 * in a ScopedSpan. A span carries its name, start and end on the
 * monotonic clock, the span that caused it, a campaign id and a few
 * tags (kernel, manifestation, a byte or element count). Spans are
 * appended to a per-thread buffer, so recording takes no lock on
 * the hot path, and are written out once at the end as Chrome
 * trace-event JSON (the format radcrit's --timeline emits), which
 * Perfetto opens. Self times and per-layer metrics are derived from
 * that file by perfbench/run.py.
 *
 * Recording is off until setEnabled(true); a disabled ScopedSpan
 * reads the clock not at all, which is how the probe measures the
 * untraced wall that trace.overhead_s subtracts.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <ostream>
#include <string>

namespace perfbench
{

/** @return monotonic time in nanoseconds. */
uint64_t nowNs();

/** One closed span. */
struct Span
{
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t campaign = 0;
    /** Kernel name tag, or empty. */
    std::string kernel;
    /** Manifestation tag (static string), or null. */
    const char *manifestation = nullptr;
    /** Bytes written/read, or 1/0 for a replay's yield. */
    uint64_t value = 0;
    /** Mismatch elements touched by the call. */
    uint64_t elements = 0;
};

/** Turn recording on or off for every thread. */
void setEnabled(bool on);

/** @return whether spans are being recorded. */
bool enabled();

/** Drop every recorded span (buffers stay registered). */
void clearSpans();

/** @return the number of spans recorded so far. */
uint64_t spanCount();

/**
 * Write every recorded span as a Chrome trace-event document. Call
 * only while no thread is recording.
 */
void writeChromeTrace(std::ostream &os);

/**
 * Make `parent` and `campaign` the context of spans opened by
 * threads that have no open span of their own (pool workers, which
 * the program creates) until destruction, when the previous shared
 * context is restored. Spans of the thread that holds the context
 * keep their own parents.
 */
class WorkerContext
{
  public:
    WorkerContext(uint64_t parent, uint64_t campaign);
    ~WorkerContext();
    WorkerContext(const WorkerContext &) = delete;
    WorkerContext &operator=(const WorkerContext &) = delete;

  private:
    uint64_t savedParent_;
    uint64_t savedCampaign_;
};

/**
 * RAII span: opens on construction, records on destruction. Tags
 * may be set on span() while it is open.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    /** Open a span that also sets the campaign id of its subtree. */
    ScopedSpan(const char *name, uint64_t campaign);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** @return the open span (tags may be filled in). */
    Span &span() { return span_; }

    /** @return this span's id (0 when recording is off). */
    uint64_t id() const { return span_.id; }

  private:
    void open(const char *name);

    bool active_ = false;
    uint64_t savedParent_ = 0;
    uint64_t savedCampaign_ = 0;
    Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
