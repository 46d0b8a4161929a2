#include "campaign/stream.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/timer.hh"

namespace radcrit
{

CampaignMeta
campaignMeta(const CampaignRaw &raw)
{
    CampaignMeta meta;
    meta.deviceName = raw.deviceName;
    meta.workloadName = raw.workloadName;
    meta.inputLabel = raw.inputLabel;
    meta.sim = raw.sim;
    meta.launch = raw.launch;
    meta.sensitiveAreaAu = raw.sensitiveAreaAu;
    return meta;
}

void
CollectRawSink::begin(const CampaignMeta &meta)
{
    raw_ = CampaignRaw{};
    raw_.deviceName = meta.deviceName;
    raw_.workloadName = meta.workloadName;
    raw_.inputLabel = meta.inputLabel;
    raw_.sim = meta.sim;
    raw_.launch = meta.launch;
    raw_.sensitiveAreaAu = meta.sensitiveAreaAu;
    raw_.runs.reserve(meta.sim.faultyRuns);
}

void
CollectRawSink::consume(RunBatch &&batch)
{
    raw_.runs.insert(raw_.runs.end(),
                     std::make_move_iterator(batch.runs.begin()),
                     std::make_move_iterator(batch.runs.end()));
}

void
CollectRawSink::end(const StatsSnapshot &simStats)
{
    raw_.stats = simStats;
}

CampaignRawSource::CampaignRawSource(const CampaignRaw &raw,
                                     uint64_t batchRuns)
    : raw_(&raw), meta_(campaignMeta(raw)),
      batchRuns_(batchRuns == 0 ? raw.runs.size() : batchRuns)
{
}

CampaignRawSource::CampaignRawSource(CampaignRaw &&raw,
                                     uint64_t batchRuns)
    : owned_(std::move(raw)), raw_(&owned_),
      meta_(campaignMeta(owned_)),
      batchRuns_(batchRuns == 0 ? owned_.runs.size() : batchRuns),
      moves_(true)
{
}

bool
CampaignRawSource::next(RunBatch &batch)
{
    if (nextIndex_ >= raw_->runs.size())
        return false;
    uint64_t count = std::min<uint64_t>(
        batchRuns_, raw_->runs.size() - nextIndex_);
    batch.firstIndex = nextIndex_;
    if (!moves_) {
        auto first = raw_->runs.begin() + nextIndex_;
        batch.runs.assign(first, first + count);
    } else if (count == owned_.runs.size()) {
        // The whole campaign in one batch: hand the vector itself on.
        batch.runs = std::move(owned_.runs);
    } else {
        auto first = owned_.runs.begin() + nextIndex_;
        batch.runs.assign(std::make_move_iterator(first),
                          std::make_move_iterator(first + count));
    }
    nextIndex_ += count;
    return true;
}

TeeRawSink::TeeRawSink(std::vector<RawObserver *> observers,
                       RawSink *owner)
    : observers_(std::move(observers)), owner_(owner)
{
}

void
TeeRawSink::begin(const CampaignMeta &meta)
{
    for (RawObserver *observer : observers_)
        observer->begin(meta);
    if (owner_)
        owner_->begin(meta);
}

void
TeeRawSink::consume(RunBatch &&batch)
{
    for (RawObserver *observer : observers_)
        observer->observe(batch);
    if (owner_)
        owner_->consume(std::move(batch));
}

void
TeeRawSink::end(const StatsSnapshot &simStats)
{
    for (RawObserver *observer : observers_)
        observer->end(simStats);
    if (owner_)
        owner_->end(simStats);
}

uint64_t
pumpRaw(RawSource &source, RawSink &sink)
{
    sink.begin(source.meta());
    uint64_t pumped = 0;
    RunBatch batch;
    while (source.next(batch)) {
        pumped += batch.runs.size();
        sink.consume(std::move(batch));
        batch = RunBatch{};
    }
    sink.end(source.simStats());
    return pumped;
}

AsyncSaveSink::AsyncSaveSink(RawObserver &inner)
    : inner_(inner)
{
    io_ = std::thread(&AsyncSaveSink::ioLoop, this);
}

AsyncSaveSink::~AsyncSaveSink()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    opQueued_.notify_all();
    if (io_.joinable())
        io_.join();
}

void
AsyncSaveSink::rethrowPending()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_)
        std::rethrow_exception(error_);
}

void
AsyncSaveSink::push(Op &&op)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        spaceFreed_.wait(lock, [&] {
            return queue_.size() < kQueueCapacity || failed_;
        });
        // A failed inner sink stops accepting work; the error
        // surfaces on the producer via rethrowPending().
        if (failed_ && op.kind != Op::Kind::End)
            return;
        queue_.push_back(std::move(op));
        queuePeak_ =
            std::max<uint64_t>(queuePeak_, queue_.size());
    }
    opQueued_.notify_one();
}

void
AsyncSaveSink::begin(const CampaignMeta &meta)
{
    Op op;
    op.kind = Op::Kind::Begin;
    op.meta = meta;
    push(std::move(op));
}

void
AsyncSaveSink::consume(RunBatch &&batch)
{
    rethrowPending();
    Op op;
    op.kind = Op::Kind::Batch;
    op.batch = std::move(batch);
    push(std::move(op));
}

void
AsyncSaveSink::end(const StatsSnapshot &simStats)
{
    Op op;
    op.kind = Op::Kind::End;
    op.stats = simStats;
    push(std::move(op));
    uint64_t batches;
    uint64_t busy_ns;
    uint64_t peak;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        drained_.wait(lock, [&] { return done_; });
        if (error_)
            std::rethrow_exception(error_);
        batches = batches_;
        busy_ns = ioBusyNs_;
        peak = queuePeak_;
    }
    // Global-only telemetry, like "pool.*": the campaign runner
    // strips the "store.io." prefix from per-campaign snapshots so
    // async I/O shape never leaks into jobs-independent output.
    StatsRegistry &global = StatsRegistry::global();
    global.counter("store.io.async.batches").inc(batches);
    global.counter("store.io.async.busy_ns").inc(busy_ns);
    global.gauge("store.io.async.queue_peak")
        .set(static_cast<double>(peak));
}

uint64_t
AsyncSaveSink::batches() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
}

uint64_t
AsyncSaveSink::queuePeak() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queuePeak_;
}

void
AsyncSaveSink::ioLoop()
{
    for (;;) {
        Op op;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            opQueued_.wait(lock, [&] {
                return !queue_.empty() || stop_;
            });
            if (queue_.empty())
                return; // stopped without end(): abandon
            op = std::move(queue_.front());
            queue_.pop_front();
        }
        spaceFreed_.notify_one();

        bool forward;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            forward = !failed_;
        }
        if (forward) {
            auto start = std::chrono::steady_clock::now();
            try {
                switch (op.kind) {
                  case Op::Kind::Begin:
                    inner_.begin(op.meta);
                    break;
                  case Op::Kind::Batch:
                    inner_.observe(op.batch);
                    break;
                  case Op::Kind::End:
                    inner_.end(op.stats);
                    break;
                }
                std::lock_guard<std::mutex> lock(mutex_);
                ioBusyNs_ += elapsedNs(start);
                if (op.kind == Op::Kind::Batch)
                    ++batches_;
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                failed_ = true;
                if (!error_)
                    error_ = std::current_exception();
            }
        }
        if (op.kind == Op::Kind::End) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                done_ = true;
            }
            drained_.notify_all();
            return;
        }
    }
}

} // namespace radcrit
