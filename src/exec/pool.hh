/**
 * @file
 * Worker pool for embarrassingly parallel index ranges.
 *
 * Workers claim fixed-size grains of [0, count) from one shared
 * atomic cursor until the range drains, so a worker stuck on a slow
 * item does not hold back the rest. Which worker runs which index
 * is timing-dependent; work whose output depends only on the item
 * index — like the campaign engine's seed-split runs — therefore
 * still produces identical results for any worker count. Used by
 * the campaign runner and the suite prepass.
 *
 * Worker threads are persistent: they are spawned lazily on the
 * first parallel dispatch and then parked on a per-thread semaphore
 * between dispatches, so a pool reused across many campaigns (the
 * suite scheduler runs every distinct campaign of a whole
 * experiment suite on one pool) pays thread-creation cost once
 * instead of once per campaign. The serial path (jobs == 1, or a
 * single item) never spawns a thread at all.
 *
 * A pool can also be attached to a thread for the length of a scope
 * (ScopedBuildPool), so that work on that thread fans out over it
 * without the pool appearing in any signature: a workload
 * constructor splits its golden computation into contiguous bands
 * (forBands()), and the beam-log writer formats its lines in
 * ordered slices (forOrderedSlices()) that the workers emit in
 * index order. Both run inline when nothing is attached, when the
 * attached pool has one job, or when the thread is already inside
 * a pool body.
 */

#ifndef RADCRIT_EXEC_POOL_HH
#define RADCRIT_EXEC_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

namespace radcrit
{

/**
 * Utilization accounting of one forDynamic() dispatch: how long the
 * dispatch took wall-clock, and how much of it each worker spent
 * inside the body versus idle (it found the range drained before
 * the slowest worker finished). Filled by the pool itself so the numbers are
 * measured around exactly the code the pool ran; the campaign
 * runner publishes them into the stats registry under "pool.*".
 */
struct PoolRunStats
{
    /** Per-worker share of the dispatch. */
    struct Worker
    {
        /** Nanoseconds this worker spent inside the body. */
        uint64_t busyNs = 0;
        /** Items in this worker's claimed grains. */
        uint64_t items = 0;
        /**
         * Grains this worker claimed (the load-balance view: a
         * worker stuck on a slow item claims fewer).
         */
        uint64_t chunks = 0;
    };

    /** Wall nanoseconds of the whole dispatch (dispatch to join). */
    uint64_t wallNs = 0;
    /** One entry per participating worker, indexed by worker id. */
    std::vector<Worker> workers;

    /** @return summed busy nanoseconds across workers. */
    uint64_t busyNs() const;

    /**
     * @return summed idle nanoseconds: wall time each worker was
     * alive but not executing the body (clamped at 0 per worker).
     */
    uint64_t idleNs() const;

    /**
     * @return busy / (workers * wall) in [0, 1]; 1.0 means every
     * worker computed for the full dispatch. 0 when no work ran.
     */
    double utilization() const;

    /**
     * Fold another dispatch's accounting into this one: wall time
     * adds up, and each worker's busy time and item count add up
     * by worker id. The streaming campaign runner dispatches once
     * per batch but publishes one pool.* record per campaign, so
     * single-batch and multi-batch campaigns report through the
     * same instruments.
     */
    void absorb(const PoolRunStats &other);
};

/**
 * Fixed-width thread pool over dynamically claimed grains.
 *
 * Dispatches are issued from one thread at a time: forDynamic() is
 * not reentrant and must not be called concurrently on the same
 * pool (each dispatch blocks its caller until the pool drains, so
 * sequential callers compose naturally). forBands() relies on the
 * same rule from the other side: a thread already running any
 * pool's body never dispatches again, it runs the whole range
 * inline as one band.
 */
class WorkerPool
{
  public:
    /**
     * Body invoked once per claimed grain.
     *
     * @param worker Zero-based index of the claiming worker.
     * @param begin First item index of the grain.
     * @param end One past the last item index of the grain.
     */
    using ChunkBody =
        std::function<void(unsigned worker, uint64_t begin,
                           uint64_t end)>;

    /**
     * @param jobs Requested worker count; 0 selects
     * hardware_concurrency (resolved immediately, see jobs()).
     */
    explicit WorkerPool(unsigned jobs = 0);

    /** Parks, then joins any persistent worker threads. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** @return the resolved worker count (always >= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * @return dispatches served so far (telemetry: how much reuse a
     * shared pool saw).
     */
    uint64_t dispatches() const { return dispatches_; }

    /**
     * Run `body` over [0, count): workers claim `grain`-sized
     * chunks from a shared atomic cursor until the range is
     * exhausted. Each claimed [begin, end) is contiguous and every
     * index is delivered exactly once, but the (index -> worker)
     * mapping is timing-dependent, so callers needing deterministic
     * output must make the body's effect a pure function of the
     * index range, not of `worker`. Worker 0 runs on the calling
     * thread; with a single worker (jobs() == 1, or a single grain)
     * no thread is spawned at all. Blocks until the range drains;
     * the first body exception stops further claims and is
     * rethrown on the caller.
     *
     * @param grain Items per claimed chunk (0 is treated as 1).
     * @param stats When non-null, overwritten with the dispatch's
     * utilization accounting (valid once forDynamic returns; an
     * empty dispatch leaves it zeroed with no workers).
     * Worker::chunks counts the grains each worker claimed.
     */
    void forDynamic(uint64_t count, uint64_t grain,
                    const ChunkBody &body,
                    PoolRunStats *stats = nullptr);

    /**
     * Resolve a requested job count: 0 becomes
     * std::thread::hardware_concurrency() (itself clamped to >= 1),
     * anything else passes through.
     */
    static unsigned resolveJobs(unsigned requested);

    /**
     * Job count requested via the RADCRIT_JOBS environment
     * variable, or `fallback` when unset or unparsable. A value of
     * 0 means "all hardware threads", as with --jobs.
     */
    static unsigned envJobs(unsigned fallback);

  private:
    /** One parked dispatch, shared with the worker threads. */
    struct Dispatch
    {
        uint64_t count = 0;
        unsigned workers = 0;
        const ChunkBody *body = nullptr;
        PoolRunStats *stats = nullptr;
        /**
         * The claim cursor workers take `grain`-sized chunks from.
         * Points at a stack local of forDynamic(), which outlives
         * the dispatch (it blocks until the pool drains).
         */
        std::atomic<uint64_t> *cursor = nullptr;
        uint64_t grain = 0;
    };

    /** Spawn persistent helper threads up to `helpers` total. */
    void ensureThreads(unsigned helpers);

    /**
     * Parked loop of helper thread `index` (worker id index+1),
     * woken once per dispatch it takes part in through `wake`.
     */
    void workerLoop(unsigned index, std::binary_semaphore *wake);

    /**
     * Run a dispatch of dispatch.workers >= 2 workers, the caller
     * as worker 0. @return the first exception a body threw.
     */
    std::exception_ptr runParallel(const Dispatch &dispatch);

    /** Run one worker's claims, recording stats and first error. */
    void runChunk(unsigned worker, const Dispatch &dispatch);

    unsigned jobs_;
    uint64_t dispatches_ = 0;

    std::vector<std::thread> threads_;
    /**
     * One wake-up per helper thread, so woken helpers never queue
     * on a shared lock: with more workers than CPUs each hand-off
     * of such a lock can wait for a scheduler tick (8 workers on a
     * 4-vCPU VM joined a dispatch ~4 ms apart behind one mutex).
     */
    std::vector<std::unique_ptr<std::binary_semaphore>> wake_;
    /** Participating helpers still running this dispatch. */
    std::atomic<unsigned> pending_{0};
    std::atomic<bool> stop_{false};
    /** Guards firstError_ while a dispatch runs. */
    std::mutex mutex_;
    /** The running dispatch; fixed until pending_ drains. */
    Dispatch dispatch_;
    std::exception_ptr firstError_;
};

/**
 * Attaches `pool` as the pool that work on the constructing thread
 * may fan out over through forBands(), until the scope ends (the
 * previous attachment, usually none, is then restored). The
 * attachment is per thread: helper threads of any pool, and every
 * other thread, see nothing attached.
 */
class ScopedBuildPool
{
  public:
    explicit ScopedBuildPool(WorkerPool &pool);
    ~ScopedBuildPool();

    ScopedBuildPool(const ScopedBuildPool &) = delete;
    ScopedBuildPool &operator=(const ScopedBuildPool &) = delete;

  private:
    WorkerPool *previous_;
};

/** Body of one band: the item range [begin, end). */
using BandBody = std::function<void(uint64_t begin, uint64_t end)>;

/**
 * Run `body` over [0, count) in at most jobs() contiguous bands of
 * the pool attached to this thread, one band per grain; band b of
 * n covers [count * b / n, count * (b + 1) / n). The bands are a
 * function of count and the job count only, and the body must make
 * its effect a pure function of the range (disjoint writes), so
 * the result is the same for every job count.
 *
 * Runs body(0, count) inline on the calling thread, as one band,
 * when nothing is attached, when the attached pool has one job, or
 * when this thread is already running a pool body (a suite prepass
 * build inside a dispatch): that last case keeps a nested build
 * serial instead of re-entering forDynamic(). Blocks until every
 * band finished; the first body exception is rethrown. A count of
 * 0 runs nothing.
 */
void forBands(uint64_t count, const BandBody &body);

/**
 * Formats ordered slice `index` into `out`, which arrives empty
 * (its buffer is reused for later slices).
 */
using SliceFormat =
    std::function<void(uint64_t index, std::string &out)>;

/** Takes the bytes of one formatted slice. */
using SliceEmit = std::function<void(const std::string &bytes)>;

/**
 * Format slices [0, count) on the pool attached to this thread and
 * emit them in index order. Each worker claims the next slice
 * index from one counter and formats it into one of a window of
 * 2 * jobs reused buffers, once the slice that last used that
 * buffer was emitted. It does not wait for its turn: whichever
 * worker finds the slice due next ready emits it and every ready
 * slice after it, so a worker slow on (or descheduled in) the slice
 * due next stalls the others only once the window is full. emit
 * is called once per slice, one call at a time, in index order, so
 * the emitted bytes are those of a serial loop; at most 2 * jobs
 * formatted slices are in flight.
 *
 * Runs inline on the calling thread, with one buffer, under the
 * rules of forBands(): when nothing is attached, when the attached
 * pool has one job, or when this thread is already running a pool
 * body. The first exception from either callback stops further
 * claims, wakes every worker waiting for a free buffer, and is
 * rethrown once the workers have left; no later slice is emitted.
 * A count of 0 runs nothing.
 */
void forOrderedSlices(uint64_t count, const SliceFormat &format,
                      const SliceEmit &emit);

class StatsRegistry;

/**
 * Publish one pool dispatch's utilization accounting into a
 * registry under "pool.*". These are execution-shape telemetry
 * (they depend on the worker count and on timing), so they go to
 * the global registry only — never into a campaign's own stats
 * snapshot, which must stay identical across --jobs values. An
 * empty accounting (no workers, e.g. a dispatch that never ran)
 * publishes nothing, so the "pool.utilization" gauge is absent —
 * not NaN — when a pool saw no work.
 */
void publishPoolStats(const PoolRunStats &ps, StatsRegistry &reg);

/**
 * How a guarded work item may be retried. The executor treats an
 * attempt that throws as a transient infrastructure error and an
 * attempt that overruns softDeadlineNs as a timeout; either is
 * retried (with exponential backoff) until the attempt budget is
 * spent, at which point the item is quarantined with the status of
 * its last failure.
 */
struct RetryPolicy
{
    /** Total attempts per item (1 = no retry). */
    unsigned maxAttempts = 1;
    /**
     * Soft per-attempt deadline: an attempt measured longer than
     * this counts as a timeout even though it completed (the
     * harness cannot preempt a compute thread, so detection is
     * post-hoc; the watchdog provides the live view). 0 = no
     * deadline.
     */
    uint64_t softDeadlineNs = 0;
    /** Backoff before retry k is backoffBaseNs << (k - 1). */
    uint64_t backoffBaseNs = 1'000'000;
};

/** Terminal status of one guarded item. */
enum class GuardStatus : uint8_t
{
    /** An attempt completed within the deadline. */
    Ok,
    /** Every attempt threw; the item is quarantined. */
    Error,
    /** Every attempt missed the soft deadline; quarantined. */
    Timeout,
};

/** @return a stable printable name of the guard status. */
const char *guardStatusName(GuardStatus status);

/** What happened to one guarded item. */
struct GuardReport
{
    GuardStatus status = GuardStatus::Ok;
    /** Attempts actually made (>= 1). */
    unsigned attempts = 0;
    /** Attempts beyond the first (== attempts - 1). */
    unsigned retries() const { return attempts - 1; }
    /** what() of the last exception; empty unless status==Error. */
    std::string error;
};

/**
 * Run `body` under the retry policy. The body receives the 1-based
 * attempt number so deterministic fault injection can key on it.
 * Exceptions never escape: they are converted into the report.
 */
GuardReport runGuarded(const RetryPolicy &policy,
                       const std::function<void(unsigned attempt)>
                           &body);

/**
 * Liveness monitor for pool workers: each worker publishes the item
 * it is currently executing via beginItem()/endItem(), and a
 * background thread flags items that have been in flight longer
 * than the soft deadline — the live mirror of runGuarded()'s
 * post-hoc timeout classification, so a genuinely stuck run is
 * reported while it is stuck instead of never. Detection only
 * observes: the watchdog cannot preempt a worker, it warns and
 * counts ("resilience.watchdog.overdue" in the global registry).
 *
 * All slot traffic is lock-free atomics, so arming the watchdog
 * adds no synchronization to the run hot path.
 */
class Watchdog
{
  public:
    /**
     * @param workers Number of worker slots to monitor.
     * @param softDeadlineNs Deadline after which an in-flight item
     * is flagged (must be > 0).
     * @param pollIntervalNs Scan period of the monitor thread
     * (default: a quarter of the deadline, clamped to >= 1 ms).
     */
    Watchdog(unsigned workers, uint64_t softDeadlineNs,
             uint64_t pollIntervalNs = 0);

    /** Stops and joins the monitor thread. */
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Mark worker `worker` as executing item `item` from now. */
    void beginItem(unsigned worker, uint64_t item);

    /** Mark worker `worker` as idle. */
    void endItem(unsigned worker);

    /** @return items flagged overdue so far. */
    uint64_t overdue() const { return overdue_.load(); }

  private:
    /**
     * One worker's published state. `sequence` is even when idle
     * and odd when an item is in flight; it increments on every
     * transition, so the monitor can tell a new item from the one
     * it already flagged without locking.
     */
    struct Slot
    {
        std::atomic<uint64_t> sequence{0};
        std::atomic<uint64_t> item{0};
        std::atomic<uint64_t> startNs{0};
    };

    void monitorLoop();

    uint64_t softDeadlineNs_;
    uint64_t pollIntervalNs_;
    std::vector<Slot> slots_;
    /** Last sequence the monitor flagged, per slot. */
    std::vector<uint64_t> flagged_;
    std::atomic<uint64_t> overdue_{0};

    std::mutex mutex_;
    std::condition_variable stopCv_;
    bool stop_ = false;
    std::thread monitor_;
};

} // namespace radcrit

#endif // RADCRIT_EXEC_POOL_HH
