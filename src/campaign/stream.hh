/**
 * @file
 * Streaming campaign pipeline: batched dataflow between the
 * simulate, persist, and analyze stages.
 *
 * The materialized spine (simulateCampaign() returning one big
 * CampaignRaw, analyzeCampaign() walking it after the join) caps
 * campaign size at available RAM and serializes the phases. This
 * module is the seam that removes both limits: producers push
 * contiguous, index-ordered RunBatch slices into a RawSink as
 * workers retire them, and consumers pull the same batches from a
 * RawSource, so no stage ever needs to hold more than one batch of
 * raw records. The materialized API survives unchanged as a thin
 * adapter — simulateCampaign() is simulateCampaignStream() into a
 * CollectRawSink — which is what lets the goldens and property
 * tests pin stream == materialized byte for byte.
 *
 * Delivery contract (every producer in the repo obeys it):
 *  - begin(meta) first, exactly once, before any batch;
 *  - batches are contiguous and in index order: the first batch
 *    starts at run 0 and each next batch starts where the previous
 *    one ended;
 *  - end(simStats) last, exactly once, after the final batch, with
 *    the campaign's simulation-side telemetry snapshot (empty when
 *    the producer has none, e.g. a standalone beam-log read).
 */

#ifndef RADCRIT_CAMPAIGN_STREAM_HH
#define RADCRIT_CAMPAIGN_STREAM_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/config.hh"
#include "campaign/raw.hh"
#include "exec/launch.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{

/**
 * Everything that identifies a campaign except its runs: the
 * header of a stream, delivered once via RawSink::begin() before
 * any batch. Mirrors the non-run fields of CampaignRaw.
 */
struct CampaignMeta
{
    std::string deviceName;
    std::string workloadName;
    std::string inputLabel;
    /** The simulation parameters producing the stream. */
    SimConfig sim;
    /**
     * Launch geometry; default-constructed when the producer
     * cannot derive it (a standalone beam-log read), exactly as
     * for CampaignRaw.
     */
    KernelLaunch launch;
    /** Total sensitive area of the launch (a.u.). */
    double sensitiveAreaAu = 0.0;
};

/** @return the meta (header) of a materialized raw campaign. */
CampaignMeta campaignMeta(const CampaignRaw &raw);

/**
 * One contiguous, index-ordered slice of a campaign's runs. Batch
 * k covers [firstIndex, firstIndex + runs.size()); run
 * runs[i].index == firstIndex + i always holds.
 */
struct RunBatch
{
    uint64_t firstIndex = 0;
    std::vector<RawRun> runs;

    /** @return one past the last run index in this batch. */
    uint64_t endIndex() const { return firstIndex + runs.size(); }
};

/**
 * Consumer side of the stream. Implementations must tolerate any
 * batch size (including a single batch spanning the campaign, the
 * materialized default) and must not assume more than one batch is
 * ever alive at a time.
 *
 * A sink is either an owner, which keeps the batches it is handed
 * (CollectRawSink, AsyncSaveSink), or a RawObserver, which only
 * reads each batch in place.
 */
class RawSink
{
  public:
    virtual ~RawSink() = default;

    /** Stream header; called once, before any batch. */
    virtual void begin(const CampaignMeta &meta) = 0;

    /** One batch, in index order; the sink takes ownership. */
    virtual void consume(RunBatch &&batch) = 0;

    /**
     * Stream end; called once, after the final batch.
     * @param simStats Simulation-side telemetry of the whole
     * campaign (what CampaignRaw::stats would carry), empty when
     * the producer has none.
     */
    virtual void end(const StatsSnapshot &simStats) = 0;
};

/**
 * A sink that reads every batch in place and keeps none of it: the
 * analysis, beam-log, store-save and probe sinks. Any number of
 * observers can share one batch through a TeeRawSink.
 */
class RawObserver : public RawSink
{
  public:
    /** One batch, in index order, read in place. */
    virtual void observe(const RunBatch &batch) = 0;

    void consume(RunBatch &&batch) final { observe(batch); }
};

/**
 * Producer side of the stream, pull-flavored: meta up front, then
 * batches until exhausted. Drive one into a sink with pumpRaw().
 */
class RawSource
{
  public:
    virtual ~RawSource() = default;

    /** Stream header; valid from construction. */
    virtual const CampaignMeta &meta() const = 0;

    /**
     * Produce the next batch into `batch` (contents replaced).
     * @return false when the stream is exhausted (batch untouched).
     */
    virtual bool next(RunBatch &batch) = 0;

    /**
     * Simulation-side telemetry of the whole campaign; call after
     * the last batch was pulled. Empty when the source has none
     * (matching what readBeamLog() leaves in CampaignRaw::stats).
     */
    virtual StatsSnapshot simStats() = 0;
};

/**
 * The materialized adapter: collects every batch back into one
 * CampaignRaw. simulateCampaign() is simulateCampaignStream() into
 * one of these, which is what keeps the legacy API byte-identical.
 */
class CollectRawSink : public RawSink
{
  public:
    void begin(const CampaignMeta &meta) override;
    void consume(RunBatch &&batch) override;
    void end(const StatsSnapshot &simStats) override;

    /** @return the collected campaign (call after end()). */
    CampaignRaw take() { return std::move(raw_); }

    /** @return the collected campaign without giving it up. */
    const CampaignRaw &raw() const { return raw_; }

  private:
    CampaignRaw raw_;
};

/**
 * Replay a materialized campaign as a stream, in slices of
 * batchRuns (0 = the whole campaign in one batch).
 */
class CampaignRawSource : public RawSource
{
  public:
    /** Copies each batch out of `raw`, which must outlive the source. */
    CampaignRawSource(const CampaignRaw &raw, uint64_t batchRuns);

    /**
     * Takes `raw` over and moves each batch's runs out of it, so the
     * campaign is held once while it streams.
     */
    CampaignRawSource(CampaignRaw &&raw, uint64_t batchRuns);

    CampaignRawSource(const CampaignRawSource &) = delete;
    CampaignRawSource &operator=(const CampaignRawSource &) = delete;

    const CampaignMeta &meta() const override { return meta_; }
    bool next(RunBatch &batch) override;
    StatsSnapshot simStats() override { return raw_->stats; }

  private:
    CampaignRaw owned_;
    const CampaignRaw *raw_;
    CampaignMeta meta_;
    uint64_t batchRuns_;
    bool moves_ = false;
    uint64_t nextIndex_ = 0;
};

/**
 * Fan a stream out to several observers and at most one owner (the
 * streamed CLI: analysis and the beam-log writer, plus the store
 * save on a miss). Every call reaches the observers in the order
 * given, then the owner; the owner is handed the producer's own
 * batch after the observers read it, so the tee copies nothing.
 */
class TeeRawSink : public RawSink
{
  public:
    /** @param owner Takes every batch by move; may be null. */
    explicit TeeRawSink(std::vector<RawObserver *> observers,
                        RawSink *owner = nullptr);

    void begin(const CampaignMeta &meta) override;
    void consume(RunBatch &&batch) override;
    void end(const StatsSnapshot &simStats) override;

  private:
    std::vector<RawObserver *> observers_;
    RawSink *owner_;
};

/**
 * Drive a source to completion: begin, every batch, end.
 * @return the number of runs pumped.
 */
uint64_t pumpRaw(RawSource &source, RawSink &sink);

/**
 * Background-thread owner over an observer: begin/consume/end are
 * enqueued onto a bounded op queue and replayed against the inner
 * observer by one I/O thread, so entry serialization (the store save
 * behind the tee) comes off the simulate critical path. consume()
 * blocks when the queue is full (bounded memory: at most
 * kQueueCapacity batches are ever queued) and end() blocks
 * until the inner sink fully drained, so the delivery contract the
 * inner sink observes is exactly the producer's. An inner-sink
 * exception is captured on the I/O thread, stops further
 * forwarding, and is rethrown on the producer from the next
 * consume()/end() call.
 *
 * Single-use, like every sink: one begin..end cycle.
 */
class AsyncSaveSink : public RawSink
{
  public:
    /** Queued ops before begin()/consume()/end() block. */
    static constexpr size_t kQueueCapacity = 4;

    /**
     * @param inner The observer to drive from the I/O thread; must
     * outlive this adapter.
     */
    explicit AsyncSaveSink(RawObserver &inner);

    /** Joins the I/O thread (abandoning queued ops on abnormal
     * teardown — a completed end() has already drained). */
    ~AsyncSaveSink() override;

    void begin(const CampaignMeta &meta) override;
    void consume(RunBatch &&batch) override;
    void end(const StatsSnapshot &simStats) override;

    /** @return batches forwarded to the inner sink so far. */
    uint64_t batches() const;

    /** @return high-water mark of the op queue depth. */
    uint64_t queuePeak() const;

  private:
    struct Op
    {
        enum class Kind { Begin, Batch, End } kind;
        CampaignMeta meta;
        RunBatch batch;
        StatsSnapshot stats;
    };

    void ioLoop();
    void push(Op &&op);
    void rethrowPending();

    RawObserver &inner_;

    mutable std::mutex mutex_;
    std::condition_variable spaceFreed_;
    std::condition_variable opQueued_;
    std::condition_variable drained_;
    std::deque<Op> queue_;
    bool stop_ = false;
    bool done_ = false;
    bool failed_ = false;
    std::exception_ptr error_;
    uint64_t batches_ = 0;
    uint64_t queuePeak_ = 0;
    uint64_t ioBusyNs_ = 0;
    std::thread io_;
};

} // namespace radcrit

#endif // RADCRIT_CAMPAIGN_STREAM_HH
