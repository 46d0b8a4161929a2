/**
 * @file
 * Beam-campaign log format: the canonical (de)serialization of
 * CampaignRaw.
 *
 * The paper's contribution (2) makes all corrupted outputs
 * "publicly available in a repository to ease reproducibility and
 * third party analysis ... so to allow users to apply different
 * filters". This module provides that artifact for radcrit
 * campaigns: a line-oriented text format that captures every run's
 * strike, outcome, and (for SDCs) the complete mismatch log, with a
 * versioned header carrying the device/workload identity and the
 * simulation config that produced it. readBeamLog() reloads it as a
 * CampaignRaw, so the criticality metrics can be recomputed via
 * analyzeCampaign() under any tolerance without rerunning the
 * campaign — analyze(parse(write(raw))) is bit-identical to
 * analyze(raw).
 *
 * Format (one record per line, '#'-prefixed keywords):
 *
 *   #HEADER version=2 device=K40 workload=DGEMM input=2048x2048 \
 *        seed=... runs=200 sensitive_area_au=...
 *   #RUN idx=0 outcome=SDC resource=RegisterFile \
 *        manifestation=BitFlipValue t=0.41 burst=1
 *   #DIMS dims=2 x=256 y=256 z=1
 *   #ERR x=12 y=40 z=0 read=1.7976e0 expected=1.7976e0
 *   #END idx=0
 *   #RUN idx=1 outcome=Crash ...
 *   #END idx=1
 *
 * Grammar: #HEADER is the first non-empty line. Every line is a
 * keyword followed by whitespace-separated key=value fields in any
 * order; a repeated key resolves to its last occurrence; values
 * percent-encode ' ' and '%'. Numbers must be whole tokens that fit
 * their field, and an unknown keyword, outcome, resource or
 * manifestation is a parse error like any other malformed line.
 *
 * The reader first tries each #ERR line in the exact layout the
 * writer emits ("#ERR x=<i> y=<i> z=<i> read=<g> expected=<g>",
 * single spaces, nothing after the last value) and parses its five
 * values in place. Any other line, #ERR spellings the grammar
 * allows included (reordered or repeated keys, tabs, extra fields,
 * CR line ends), and any value that does not parse whole, goes to
 * the general parser, so the grammar and every diagnostic are the
 * general parser's alone.
 *
 * The launch geometry is not serialized — it is derived from
 * (device, workload), never consumed by analysis, and the campaign
 * store rebuilds it on load. A log parsed standalone carries a
 * default-constructed KernelLaunch.
 *
 * Checkpoint shards reuse the same record grammar under a #SHARD
 * header: the campaign runner appends each run's record as it
 * completes (out of index order under parallel execution, so the
 * record's idx field is authoritative), and readCheckpointShards()
 * recovers every complete record after a crash, tolerating a torn
 * trailing record — the one write the killed process did not finish.
 * The strict campaign-log reader rejects shard files, so a shard
 * can never be mistaken for a finished campaign.
 */

#ifndef RADCRIT_LOGS_BEAMLOG_HH
#define RADCRIT_LOGS_BEAMLOG_HH

#include <fstream>
#include <iosfwd>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/raw.hh"
#include "campaign/stream.hh"

namespace radcrit
{

/**
 * Version of the on-disk format. Bumped whenever the header or
 * record grammar changes; the reader rejects any other version so
 * stale cache entries and foreign files fail loudly instead of
 * parsing as garbage. v1 (no version field, header without
 * sim-config) is no longer read.
 */
constexpr int beamLogVersion = 2;

/**
 * Serialize a raw campaign to the log format. All doubles are
 * printed as %.17g would print them (std::to_chars, general format,
 * precision 17), so a parse round-trip is bit-exact.
 *
 * The records are formatted in ordered slices of a fixed number of
 * lines (forOrderedSlices(), exec/pool.hh): on the workers of the
 * pool attached to this thread when there is one, inline
 * otherwise. The bytes are the same either way.
 */
void writeBeamLog(const CampaignRaw &raw, std::ostream &os);

namespace detail
{

/**
 * writeBeamLog() with the records cut every `sliceLines` lines
 * instead of at the fixed slice length, so tests can put a slice
 * boundary at every position of a record. The bytes do not depend
 * on it.
 */
void writeBeamLog(const CampaignRaw &raw, std::ostream &os,
                  uint64_t sliceLines);

} // namespace detail

/** Convenience: write to a file path (fatal on I/O errors). */
void writeBeamLogFile(const CampaignRaw &raw,
                      const std::string &path);

/**
 * What the parser core throws on malformed input. readBeamLog()
 * converts it into the historical fatal() diagnostics; tolerant
 * callers (tryReadBeamLog, the campaign store's quarantine path)
 * catch it and recover.
 */
struct BeamLogParseError : std::runtime_error
{
    explicit BeamLogParseError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Parse a log into a CampaignRaw. fatal() on malformed input or a
 * version mismatch (user-supplied data). RawRun::wallNs and the
 * stats snapshot are not part of the format; loaded runs carry 0 /
 * empty there (the store rebuilds counters, see rebuildSimStats()).
 */
CampaignRaw readBeamLog(std::istream &is);

/** Convenience: read from a file path (fatal if unreadable). */
CampaignRaw readBeamLogFile(const std::string &path);

/**
 * Non-fatal variant of readBeamLog(): nullopt on malformed input,
 * with the parse diagnostic stored in *error when given. The error
 * text is identical to what readBeamLog() would have passed to
 * fatal().
 */
std::optional<CampaignRaw>
tryReadBeamLog(std::istream &is, std::string *error = nullptr);

/**
 * Non-fatal file read: nullopt when the file cannot be opened or
 * does not parse (diagnostic in *error).
 */
std::optional<CampaignRaw>
tryReadBeamLogFile(const std::string &path,
                   std::string *error = nullptr);

/**
 * A beam-log file parsed as independent byte-range pieces, so one
 * large log can be spread over many threads without reading it
 * whole. Piece k spans the bytes [k * pieceBytes, (k + 1) *
 * pieceBytes) and owns every run whose #RUN line (a line starting
 * with the #RUN keyword) begins there; piece 0 also owns the
 * #HEADER. A run is only ever cut from its predecessor at such a
 * line, where the one-pass reader holds no open run, so join()
 * accepts exactly the logs readBeamLog() accepts and returns the
 * same campaign. The file must not change while it is parsed
 * (store entries are only ever replaced whole, by a rename of
 * identical bytes).
 */
class BeamLogPieces
{
  public:
    /** Sizes the file: no pieces when it cannot be sized. */
    BeamLogPieces(std::string path, uint64_t pieceBytes);

    /** @return the number of pieces. */
    size_t count() const { return pieces_.size(); }

    /**
     * Parse piece `k`. Distinct pieces may be parsed concurrently.
     * Malformed input does not throw: it fails the piece.
     */
    void parse(size_t k);

    /**
     * @return the runs piece `k` parsed, in file order, or null
     * when it failed. Valid from parse(k) until join().
     */
    const std::vector<RawRun> *
    runs(size_t k) const
    {
        return pieces_[k].ok ? &pieces_[k].runs : nullptr;
    }

    /**
     * Concatenate the parsed pieces. Call once, after every
     * parse() returned.
     *
     * @return the campaign, or nullopt when the file could not be
     * sized, a piece failed, or the run count contradicts the
     * header. Re-read with tryReadBeamLog() for the diagnostic.
     */
    std::optional<CampaignRaw> join();

  private:
    struct Piece
    {
        std::vector<RawRun> runs;
        bool ok = false;
    };

    std::string path_;
    uint64_t pieceBytes_;
    /** Header fields, filled by piece 0. */
    CampaignRaw head_;
    std::vector<Piece> pieces_;
};

/**
 * Incremental batch-at-a-time beam-log writer: the streaming
 * counterpart of writeBeamLog(). header() emits the #HEADER line
 * up front with the declared run count; append() serializes a
 * batch of runs (in ordered slices, as writeBeamLog() does) — so a
 * streamed campaign can be persisted as workers retire batches,
 * without ever materializing the CampaignRaw. The byte stream is
 * identical to writeBeamLog() over the same runs, however they are
 * split into batches.
 */
class BeamLogWriter
{
  public:
    /** @param os Destination; must outlive the writer. */
    explicit BeamLogWriter(std::ostream &os) : os_(&os) {}

    /** Emit the #HEADER line. Call once, before any append(). */
    void header(const std::string &device,
                const std::string &workload,
                const std::string &input, uint64_t seed,
                uint64_t runs, double sensitive_area_au);

    /**
     * Serialize a batch of runs. Records carry sequential indices
     * in append order, matching writeBeamLog()'s loop index.
     */
    void append(std::span<const RawRun> runs);

    /** @return records appended so far. */
    uint64_t appended() const { return appended_; }

  private:
    std::ostream *os_;
    uint64_t appended_ = 0;
};

/**
 * Incremental record-at-a-time beam-log reader: parses the #HEADER
 * eagerly (it must be the first non-empty line, which every writer
 * in this repo guarantees) and then yields one run per next() call,
 * so consumers — `radcrit_cli analyze --stream`, streaming store
 * loads — never hold more than the record in flight. Applies the
 * same validation as readBeamLog(): version check, truncation
 * inside a run, and declared-vs-actual run count (at end of
 * stream), all reported as BeamLogParseError.
 */
class BeamLogReader
{
  public:
    /**
     * @param is Source; must outlive the reader. Throws
     * BeamLogParseError when the header is missing or malformed.
     */
    explicit BeamLogReader(std::istream &is);

    /** Campaign identity parsed from the header. */
    const std::string &device() const { return device_; }
    const std::string &workload() const { return workload_; }
    const std::string &input() const { return input_; }
    uint64_t seed() const { return seed_; }
    /** Run count the header declares. */
    uint64_t declaredRuns() const { return declaredRuns_; }
    double sensitiveAreaAu() const { return sensitiveAreaAu_; }

    /**
     * Parse the next run record. Throws BeamLogParseError on
     * malformed input, a log truncated inside a run, or a complete
     * log whose record count contradicts the header.
     *
     * @return nullopt at a clean end of stream.
     */
    std::optional<RawRun> next();

    /** @return records returned by next() so far. */
    uint64_t read() const { return read_; }

  private:
    std::istream *is_;
    std::string device_;
    std::string workload_;
    std::string input_;
    uint64_t seed_ = 0;
    uint64_t declaredRuns_ = 0;
    double sensitiveAreaAu_ = 0.0;
    uint64_t read_ = 0;
    bool done_ = false;
    // Incremental record parser state, kept opaque here (defined
    // in the .cc alongside the shared record grammar).
    struct ParserState;
    std::shared_ptr<ParserState> state_;
};

/**
 * RawSource over a beam log: meta from the header (launch
 * default-constructed, exactly like readBeamLog()), runs in
 * batches of batchRuns (0 = one batch). simStats() is empty — a
 * standalone log read carries no simulation telemetry, matching
 * CampaignRaw::stats after readBeamLog().
 */
class BeamLogSource : public RawSource
{
  public:
    /** Throws BeamLogParseError on a missing/malformed header. */
    BeamLogSource(std::istream &is, uint64_t batchRuns);

    const CampaignMeta &meta() const override { return meta_; }
    bool next(RunBatch &batch) override;
    StatsSnapshot simStats() override { return {}; }

  private:
    BeamLogReader reader_;
    CampaignMeta meta_;
    uint64_t batchRuns_;
    uint64_t nextIndex_ = 0;
};

/**
 * RawObserver writing the stream to a beam log as batches arrive.
 * The bytes are identical to writeBeamLog() over the materialized
 * campaign (header run count comes from meta.sim.faultyRuns, which
 * equals the delivered run count for a complete stream).
 */
class BeamLogSink : public RawObserver
{
  public:
    /** @param os Destination; must outlive the sink. */
    explicit BeamLogSink(std::ostream &os) : writer_(os) {}

    void begin(const CampaignMeta &meta) override;
    void observe(const RunBatch &batch) override;
    void end(const StatsSnapshot &simStats) override;

    /** @return records written. */
    uint64_t written() const { return writer_.appended(); }

  private:
    BeamLogWriter writer_;
};

/**
 * Append-only writer of a checkpoint shard: one #SHARD header, then
 * one complete run record per append(), flushed so a SIGKILL can
 * tear at most the record being written. Thread-safe (pool workers
 * append as their runs complete). Construction truncates the file
 * to `keepBytes` first — the byte count of recovered content from
 * readCheckpointShards(), 0 for a fresh shard — so a torn trailing
 * record never bleeds into new appends.
 */
class CheckpointWriter
{
  public:
    /**
     * @param path Shard file to append to (created if needed).
     * @param raw Campaign identity written into the #SHARD header.
     * @param keepBytes Valid prefix to keep; everything past it is
     * discarded. 0 starts the shard over (header rewritten).
     * @param flushEvery Flush after every this many appends (1 =
     * every record; 0 is treated as 1). Records between flushes can
     * be lost to a kill, so this trades durability for fewer
     * syscalls on very fast campaigns.
     */
    CheckpointWriter(const std::string &path,
                     const CampaignRaw &raw, uint64_t keepBytes = 0,
                     uint64_t flushEvery = 1);

    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    /** Append one completed run's record (see flushEvery). */
    void append(const RawRun &run);

    /** @return records appended by this writer. */
    uint64_t appended() const { return appended_; }

  private:
    std::mutex mutex_;
    std::ofstream out_;
    std::string path_;
    uint64_t flushEvery_ = 1;
    uint64_t appended_ = 0;
};

/** What readCheckpointShards() recovered from a shard file. */
struct CheckpointRecovery
{
    /** Complete run records, in file (completion) order. */
    std::vector<RawRun> runs;
    /** Torn / malformed trailing records dropped. */
    uint64_t tornRecords = 0;
    /**
     * Bytes of valid shard content (header plus complete records);
     * pass to CheckpointWriter to resume appending after them.
     */
    uint64_t validBytes = 0;
    /** True when the file existed with a readable #SHARD header. */
    bool found = false;
};

/**
 * Recover complete run records from a checkpoint shard. Missing
 * file or unreadable header: found == false (resume starts clean).
 * A shard whose header identity (device, workload, input, seed,
 * runs) contradicts `expect` is fatal — resuming someone else's
 * campaign would silently corrupt results. A torn trailing record
 * (the append a killed process did not finish) is dropped with a
 * warning and counted, never an error.
 */
CheckpointRecovery
readCheckpointShards(const std::string &path,
                     const CampaignRaw &expect);

} // namespace radcrit

#endif // RADCRIT_LOGS_BEAMLOG_HH
