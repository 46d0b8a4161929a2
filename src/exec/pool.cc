#include "exec/pool.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/logging.hh"
#include "obs/stats_registry.hh"
#include "obs/timer.hh"

namespace radcrit
{

namespace
{

/** The pool forBands() may dispatch on from this thread. */
thread_local WorkerPool *tBuildPool = nullptr;
/** Whether this thread is inside a WorkerPool body right now. */
thread_local bool tInPoolBody = false;

} // anonymous namespace

uint64_t
PoolRunStats::busyNs() const
{
    uint64_t total = 0;
    for (const auto &worker : workers)
        total += worker.busyNs;
    return total;
}

uint64_t
PoolRunStats::idleNs() const
{
    uint64_t total = 0;
    for (const auto &worker : workers) {
        if (wallNs > worker.busyNs)
            total += wallNs - worker.busyNs;
    }
    return total;
}

double
PoolRunStats::utilization() const
{
    if (workers.empty() || wallNs == 0)
        return 0.0;
    double capacity = static_cast<double>(wallNs) *
        static_cast<double>(workers.size());
    return std::min(static_cast<double>(busyNs()) / capacity, 1.0);
}

void
PoolRunStats::absorb(const PoolRunStats &other)
{
    wallNs += other.wallNs;
    if (workers.size() < other.workers.size())
        workers.resize(other.workers.size());
    for (size_t w = 0; w < other.workers.size(); ++w) {
        workers[w].busyNs += other.workers[w].busyNs;
        workers[w].items += other.workers[w].items;
        workers[w].chunks += other.workers[w].chunks;
    }
}

void
publishPoolStats(const PoolRunStats &ps, StatsRegistry &reg)
{
    if (ps.workers.empty())
        return;
    reg.counter("pool.dispatches").inc();
    reg.counter("pool.busy.ns").inc(ps.busyNs());
    reg.counter("pool.idle.ns").inc(ps.idleNs());
    reg.counter("pool.wall.ns").inc(ps.wallNs);
    reg.gauge("pool.utilization").set(ps.utilization());
    LogHistogram &chunk_items = reg.histogram("pool.chunk_items");
    uint64_t chunks = 0;
    for (size_t w = 0; w < ps.workers.size(); ++w) {
        chunk_items.add(
            static_cast<double>(ps.workers[w].items));
        reg.counter("pool.worker." + std::to_string(w) + ".runs")
            .inc(ps.workers[w].items);
        chunks += ps.workers[w].chunks;
    }
    reg.counter("pool.chunks").inc(chunks);
}

WorkerPool::WorkerPool(unsigned jobs)
    : jobs_(resolveJobs(jobs))
{
}

WorkerPool::~WorkerPool()
{
    stop_.store(true, std::memory_order_relaxed);
    for (auto &wake : wake_)
        wake->release();
    for (auto &t : threads_)
        t.join();
}

unsigned
WorkerPool::resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(hw, 1u);
}

unsigned
WorkerPool::envJobs(unsigned fallback)
{
    const char *env = std::getenv("RADCRIT_JOBS");
    if (!env || !*env)
        return fallback;
    char *end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0') {
        warn("RADCRIT_JOBS '%s' is not a job count; using %u",
             env, fallback);
        return fallback;
    }
    return resolveJobs(static_cast<unsigned>(v));
}

void
WorkerPool::runChunk(unsigned worker, const Dispatch &dispatch)
{
    uint64_t items = 0;
    uint64_t chunks = 0;
    bool was_in_body = std::exchange(tInPoolBody, true);
    auto chunk_start = std::chrono::steady_clock::now();
    try {
        // Claim grains until the range drains.
        for (;;) {
            uint64_t begin = dispatch.cursor->fetch_add(
                dispatch.grain, std::memory_order_relaxed);
            if (begin >= dispatch.count)
                break;
            uint64_t end =
                std::min(begin + dispatch.grain, dispatch.count);
            (*dispatch.body)(worker, begin, end);
            items += end - begin;
            ++chunks;
        }
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        // Fast-forward the cursor so the surviving workers stop
        // claiming fresh work for a dispatch that already failed.
        dispatch.cursor->store(dispatch.count,
                               std::memory_order_relaxed);
    }
    tInPoolBody = was_in_body;
    // Each worker writes only its own stats slot (the vector is
    // sized before the dispatch is published), so accounting needs
    // no lock.
    if (dispatch.stats) {
        dispatch.stats->workers[worker].busyNs =
            elapsedNs(chunk_start);
        dispatch.stats->workers[worker].items = items;
        dispatch.stats->workers[worker].chunks = chunks;
    }
}

void
WorkerPool::ensureThreads(unsigned helpers)
{
    while (threads_.size() < helpers) {
        wake_.push_back(std::make_unique<std::binary_semaphore>(0));
        threads_.emplace_back(&WorkerPool::workerLoop, this,
                              static_cast<unsigned>(
                                  threads_.size()),
                              wake_.back().get());
    }
}

void
WorkerPool::workerLoop(unsigned index, std::binary_semaphore *wake)
{
    for (;;) {
        // The release() that wakes this helper publishes dispatch_
        // (or stop_), which stays fixed until pending_ drains.
        wake->acquire();
        if (stop_.load(std::memory_order_relaxed))
            return;
        runChunk(index + 1, dispatch_);
        if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            pending_.notify_one();
    }
}

std::exception_ptr
WorkerPool::runParallel(const Dispatch &dispatch)
{
    ensureThreads(dispatch.workers - 1);
    dispatch_ = dispatch;
    firstError_ = nullptr;
    pending_.store(dispatch.workers - 1, std::memory_order_relaxed);
    // Each participating helper has its own wake-up, so none of
    // them queues on a shared lock on the way in.
    for (unsigned helper = 0; helper + 1 < dispatch.workers;
         ++helper)
        wake_[helper]->release();

    // The dispatching thread is worker 0, exactly as when threads
    // were spawned per dispatch.
    runChunk(0, dispatch);

    for (unsigned left;
         (left = pending_.load(std::memory_order_acquire)) != 0;)
        pending_.wait(left, std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(firstError_, nullptr);
}

void
WorkerPool::forDynamic(uint64_t count, uint64_t grain,
                       const ChunkBody &body, PoolRunStats *stats)
{
    if (stats)
        *stats = PoolRunStats{};
    if (count == 0)
        return;
    if (grain == 0)
        grain = 1;
    ++dispatches_;
    uint64_t num_chunks = (count + grain - 1) / grain;
    unsigned workers = static_cast<unsigned>(
        std::min<uint64_t>(jobs_, num_chunks));
    if (stats)
        stats->workers.resize(workers);
    auto dispatch_start = std::chrono::steady_clock::now();

    std::atomic<uint64_t> cursor{0};
    Dispatch dispatch{count, workers, &body, stats, &cursor,
                      grain};

    std::exception_ptr error;
    if (workers == 1) {
        // Serial path: worker 0 claims every grain in order. Run
        // through runChunk so chunk accounting and error capture
        // match the parallel path.
        firstError_ = nullptr;
        runChunk(0, dispatch);
        error = std::exchange(firstError_, nullptr);
    } else {
        error = runParallel(dispatch);
    }
    if (stats) {
        stats->wallNs = elapsedNs(dispatch_start);
        // A lone worker is the whole dispatch: fully utilized.
        if (workers == 1)
            stats->workers[0].busyNs = stats->wallNs;
    }
    if (error)
        std::rethrow_exception(error);
}

ScopedBuildPool::ScopedBuildPool(WorkerPool &pool)
    : previous_(std::exchange(tBuildPool, &pool))
{
}

ScopedBuildPool::~ScopedBuildPool()
{
    tBuildPool = previous_;
}

void
forBands(uint64_t count, const BandBody &body)
{
    if (count == 0)
        return;
    WorkerPool *pool = tBuildPool;
    uint64_t bands =
        pool ? std::min<uint64_t>(pool->jobs(), count) : 1;
    if (bands == 1 || tInPoolBody) {
        body(0, count);
        return;
    }
    pool->forDynamic(bands, 1,
                     [&](unsigned, uint64_t first, uint64_t last) {
                         for (uint64_t b = first; b < last; ++b)
                             body(count * b / bands,
                                  count * (b + 1) / bands);
                     });
}

void
forOrderedSlices(uint64_t count, const SliceFormat &format,
                 const SliceEmit &emit)
{
    if (count == 0)
        return;
    WorkerPool *pool = tBuildPool;
    uint64_t workers =
        pool ? std::min<uint64_t>(pool->jobs(), count) : 1;
    if (workers == 1 || tInPoolBody) {
        std::string out;
        for (uint64_t index = 0; index < count; ++index) {
            out.clear();
            format(index, out);
            emit(out);
        }
        return;
    }
    // Slice `index` is formatted into slot index % window once the
    // slot's previous slice was emitted. A worker does not wait for
    // its slice's turn: it leaves the slice ready and claims the
    // next one, and whoever finds the slice due next ready emits it
    // and every ready slice after it. So a worker that is slow on
    // (or descheduled in) the slice due next holds the others back
    // only once the window is full. Slots are cache-line aligned so
    // the buffers' headers do not false-share.
    struct alignas(64) Slot
    {
        std::string bytes;
        uint64_t ready = ~uint64_t{0};
    };
    const uint64_t window = 2 * workers;
    std::vector<Slot> slots(window);
    // Guards every field below and each slot's `ready`.
    std::mutex mutex;
    std::condition_variable room;
    uint64_t next = 0;
    uint64_t emitted = 0;
    bool emitting = false;
    bool failed = false;
    pool->forDynamic(workers, 1, [&](unsigned, uint64_t, uint64_t) {
        std::unique_lock<std::mutex> lock(mutex);
        try {
            for (uint64_t index; !failed && (index = next++) < count;) {
                room.wait(lock, [&] {
                    return failed || index < emitted + window;
                });
                if (failed)
                    return;
                Slot &slot = slots[index % window];
                lock.unlock();
                slot.bytes.clear();
                format(index, slot.bytes);
                lock.lock();
                slot.ready = index;
                if (emitting)
                    continue; // the emitter looks again before it stops
                emitting = true;
                for (Slot *due; !failed && emitted < count &&
                     (due = &slots[emitted % window])->ready == emitted;) {
                    lock.unlock();
                    emit(due->bytes);
                    lock.lock();
                    ++emitted;
                    room.notify_all();
                }
                emitting = false;
            }
        } catch (...) {
            if (!lock.owns_lock())
                lock.lock();
            failed = true;
            room.notify_all();
            throw;
        }
    });
}

const char *
guardStatusName(GuardStatus status)
{
    switch (status) {
      case GuardStatus::Ok: return "ok";
      case GuardStatus::Error: return "error";
      case GuardStatus::Timeout: return "timeout";
      default:
        panic("guardStatusName: invalid status %d",
              static_cast<int>(status));
    }
}

GuardReport
runGuarded(const RetryPolicy &policy,
           const std::function<void(unsigned attempt)> &body)
{
    if (policy.maxAttempts == 0)
        panic("runGuarded needs at least one attempt");

    GuardReport report;
    for (unsigned attempt = 1; attempt <= policy.maxAttempts;
         ++attempt) {
        report.attempts = attempt;
        if (attempt > 1 && policy.backoffBaseNs > 0) {
            // Exponential backoff, capped at 1 s so a large
            // attempt budget cannot park a worker for minutes.
            uint64_t backoff = policy.backoffBaseNs
                << std::min(attempt - 2, 20u);
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                std::min<uint64_t>(backoff, 1'000'000'000)));
        }
        auto start = std::chrono::steady_clock::now();
        try {
            body(attempt);
        } catch (const std::exception &e) {
            report.status = GuardStatus::Error;
            report.error = e.what();
            continue;
        } catch (...) {
            report.status = GuardStatus::Error;
            report.error = "unknown exception";
            continue;
        }
        if (policy.softDeadlineNs > 0 &&
            elapsedNs(start) > policy.softDeadlineNs) {
            report.status = GuardStatus::Timeout;
            report.error.clear();
            continue;
        }
        report.status = GuardStatus::Ok;
        report.error.clear();
        return report;
    }
    return report;
}

Watchdog::Watchdog(unsigned workers, uint64_t softDeadlineNs,
                   uint64_t pollIntervalNs)
    : softDeadlineNs_(softDeadlineNs),
      pollIntervalNs_(pollIntervalNs), slots_(workers),
      flagged_(workers, 0)
{
    if (softDeadlineNs_ == 0)
        panic("Watchdog needs a nonzero deadline");
    if (pollIntervalNs_ == 0) {
        pollIntervalNs_ = std::max<uint64_t>(
            softDeadlineNs_ / 4, 1'000'000);
    }
    monitor_ = std::thread(&Watchdog::monitorLoop, this);
}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    stopCv_.notify_all();
    monitor_.join();
}

namespace
{

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // anonymous namespace

void
Watchdog::beginItem(unsigned worker, uint64_t item)
{
    if (worker >= slots_.size())
        panic("Watchdog::beginItem: worker %u of %zu", worker,
              slots_.size());
    Slot &slot = slots_[worker];
    slot.item.store(item, std::memory_order_relaxed);
    slot.startNs.store(steadyNowNs(), std::memory_order_relaxed);
    // Odd sequence = in flight. Release-publish so the monitor
    // observing the new sequence also observes item/startNs.
    slot.sequence.fetch_add(1, std::memory_order_release);
}

void
Watchdog::endItem(unsigned worker)
{
    if (worker >= slots_.size())
        panic("Watchdog::endItem: worker %u of %zu", worker,
              slots_.size());
    slots_[worker].sequence.fetch_add(1,
                                      std::memory_order_release);
}

void
Watchdog::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (stopCv_.wait_for(
                lock,
                std::chrono::nanoseconds(pollIntervalNs_),
                [&] { return stop_; }))
            return;
        uint64_t now = steadyNowNs();
        for (size_t w = 0; w < slots_.size(); ++w) {
            Slot &slot = slots_[w];
            uint64_t seq =
                slot.sequence.load(std::memory_order_acquire);
            if ((seq & 1) == 0 || flagged_[w] == seq)
                continue; // idle, or already flagged this item
            uint64_t start =
                slot.startNs.load(std::memory_order_relaxed);
            if (now - start <= softDeadlineNs_)
                continue;
            // Re-check the sequence: if the worker moved on while
            // we read, the stale start time belongs to a finished
            // item and must not be flagged.
            if (slot.sequence.load(std::memory_order_acquire) !=
                seq)
                continue;
            flagged_[w] = seq;
            overdue_.fetch_add(1, std::memory_order_relaxed);
            StatsRegistry::global()
                .counter("resilience.watchdog.overdue")
                .inc();
            warn("watchdog: worker %zu run %llu in flight for "
                 "%.1f ms (deadline %.1f ms)",
                 w,
                 static_cast<unsigned long long>(slot.item.load(
                     std::memory_order_relaxed)),
                 static_cast<double>(now - start) / 1e6,
                 static_cast<double>(softDeadlineNs_) / 1e6);
        }
    }
}

} // namespace radcrit
