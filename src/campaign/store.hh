/**
 * @file
 * Content-addressed on-disk cache of raw campaigns: "run once,
 * analyze many" across processes.
 *
 * A simulated campaign is fully determined by (device name,
 * workload name + input label, SimConfig seed + faultyRuns) plus
 * the beam-log format version — jobs and progressEvery change how a
 * campaign executes, never what it produces, so they are excluded
 * from the key. The store hashes that tuple into a stable 64-bit
 * key and lays entries out flat as
 *
 *   <dir>/<device>-<workload>-<input>-<hex key>.beamlog
 *
 * where the name prefix is a human-readable statToken'd convenience
 * and the hex key is the address. Entries are ordinary beam logs
 * (logs/beamlog.hh), so anything the store wrote can also be fed to
 * `radcrit_cli analyze` directly.
 *
 * The cache is off by default; the suite and the CLI enable it with
 * `--cache <dir>` or the RADCRIT_CAMPAIGN_CACHE environment
 * variable. Hits and misses are counted in the global stats
 * registry under "campaign.store.{hit,miss}".
 */

#ifndef RADCRIT_CAMPAIGN_STORE_HH
#define RADCRIT_CAMPAIGN_STORE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "campaign/config.hh"
#include "campaign/raw.hh"
#include "campaign/stream.hh"
#include "exec/pool.hh"
#include "sim/workload.hh"

namespace radcrit
{

/**
 * Identity of one simulated campaign — everything that decides the
 * bits of its CampaignRaw.
 */
struct CampaignKey
{
    std::string device;
    std::string workload;
    std::string input;
    SimConfig sim;
};

/** @return the key of the campaign `raw` came from. */
CampaignKey campaignKey(const CampaignRaw &raw);

/**
 * @return the stable 64-bit content address of a key: a hash chain
 * over the identity strings, seed, run count, and the beam-log
 * format version (so a format bump invalidates every old entry).
 */
uint64_t campaignKeyHash(const CampaignKey &key);

/** @return the cache file name ("k40-dgemm-256x256-<hex>.beamlog"). */
std::string campaignKeyFileName(const CampaignKey &key);

/**
 * One cache directory. Construction creates the directory (fatal
 * if that fails: a cache the user asked for that cannot store
 * anything is a configuration error, not a soft miss).
 */
class CampaignStore
{
  public:
    explicit CampaignStore(const std::string &dir);

    /**
     * Validating front door for user-supplied cache paths (--cache,
     * RADCRIT_CAMPAIGN_CACHE): when `dir` names an existing
     * regular file, or the directory cannot be created, warn once
     * and return null — the caller runs uncached instead of
     * missing (and then failing to save) forever. Use the
     * constructor directly when a broken cache should be fatal.
     */
    static std::unique_ptr<CampaignStore>
    open(const std::string &dir);

    /** @return the cache directory. */
    const std::string &dir() const { return dir_; }

    /** @return the entry path a key maps to. */
    std::string pathFor(const CampaignKey &key) const;

    /**
     * Look a campaign up. A missing entry, or an entry whose header
     * does not match the key (hash collision, hand-edited file), is
     * a miss; a present-but-unparseable entry is fatal like any
     * malformed beam log. Loaded campaigns carry no launch and no
     * stats — use simulateOrLoad() to get those rebuilt.
     */
    std::optional<CampaignRaw> load(const CampaignKey &key);

    /**
     * load() of an entry the caller already parsed, e.g. in pieces
     * across a pool (BeamLogPieces over pathFor(key)). A parsed
     * campaign only goes through the key check; nullopt (the entry
     * was missing or did not parse) falls back to load(), so
     * misses, retries and quarantines are exactly load()'s.
     */
    std::optional<CampaignRaw>
    load(const CampaignKey &key, std::optional<CampaignRaw> parsed);

    /** Write a campaign under its key (atomic rename into place). */
    void save(const CampaignRaw &raw);

    /**
     * Streaming lookup: feed the cached campaign to `sink` in
     * batches of batchRuns runs (0 = one batch) without ever
     * materializing it. The entry is fully validated record by
     * record *before* the sink sees anything (a corrupt tail must
     * not poison a sink that already consumed batches); validation
     * failures follow the same retry-then-quarantine policy as
     * load(). The sink receives meta with the caller's sim config
     * and `launch` (execution details outside the key), and
     * end() gets the rebuilt simulation counters — matching what
     * simulateOrLoad() puts in a materialized hit.
     *
     * Entries no larger than singlePassCap() runs go through
     * load() and are delivered in slices moved out of the loaded
     * campaign — one parse total, which is what makes a warm
     * streamed hit cheaper than re-simulating. Larger entries keep
     * the legacy bounded-memory two-pass shape (validate pass,
     * then stream pass) so a huge campaign never materializes;
     * with ioThreads > 0 that second parse runs on a background
     * I/O thread (AsyncRawSource) and overlaps the sink's work.
     *
     * @return true on a hit (the sink consumed the campaign),
     * false on a miss (the sink was not touched).
     */
    bool loadStream(const CampaignKey &key,
                    const KernelLaunch &launch, RawSink &sink,
                    uint64_t batchRuns, unsigned ioThreads = 0);

    /**
     * Largest entry (in runs) the single-pass load() hit path
     * may hold in memory; bigger entries take the
     * bounded-memory two-pass path. Tunable so tests can force
     * either path with small campaigns.
     */
    uint64_t singlePassCap() const { return singlePassCap_.load(); }

    /** Set the single-pass buffering cap (0 = always two-pass). */
    void setSinglePassCap(uint64_t runs)
    {
        singlePassCap_.store(runs);
    }

    /**
     * @return a sink that persists the stream it is fed under the
     * key derived from its meta: staged to a tmp file as batches
     * arrive, atomically renamed into place at end(). The bytes
     * are identical to save() over the materialized campaign.
     */
    std::unique_ptr<RawSink> saveSink();

    /** @return hits recorded by this store instance. */
    uint64_t hits() const { return hits_.load(); }

    /** @return misses recorded by this store instance. */
    uint64_t misses() const { return misses_.load(); }

    /**
     * @return entries quarantined by this store instance: cache
     * files that were corrupt after a retry, or whose content
     * contradicted their key. Each is also a miss (the invariant
     * hits + misses == campaigns holds), renamed aside to
     * "<entry>.quarantined" so the bad bytes are kept for autopsy
     * but never re-read.
     */
    uint64_t quarantined() const { return quarantined_.load(); }

  private:
    /** Move a bad entry aside and count it (see quarantined()). */
    void quarantine(const std::string &path, const char *why);

    std::string dir_;
    // Atomic so a store shared across threads (the suite prepass
    // loads entries from every worker) tallies correctly without
    // external locking.
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> quarantined_{0};
    /** Default: 32768 runs (a few tens of MB at worst). */
    std::atomic<uint64_t> singlePassCap_{32768};
};

/**
 * Complete a store hit into what a fresh simulation of the same
 * campaign returns: the caller's sim config (jobs and
 * progressEvery are execution details outside the key), the launch
 * view of `traits` on `device`, and the simulation counters
 * rebuilt from the runs (rebuildSimStats()).
 */
void completeStoreHit(CampaignRaw &raw, const DeviceModel &device,
                      const WorkloadTraits &traits,
                      const SimConfig &config);

/**
 * The store-aware front door to simulation: return the cached raw
 * campaign if `store` is non-null and has it (with launch and
 * counters rebuilt, see rebuildSimStats()), otherwise simulate and
 * — when a store is present — save the result. With store == null
 * this is exactly simulateCampaign(). When `pool` is non-null a
 * cache miss simulates on that shared pool instead of a
 * per-campaign one (config.jobs is then ignored).
 */
CampaignRaw simulateOrLoad(const DeviceModel &device,
                           Workload &workload,
                           const SimConfig &config,
                           CampaignStore *store,
                           WorkerPool *pool = nullptr);

/**
 * Streaming counterpart of simulateOrLoad(): the campaign flows
 * into `sink` batch by batch — from the cache on a hit
 * (CampaignStore::loadStream()), otherwise from the engine with a
 * tee into the store's saveSink() — so neither path materializes
 * the raw campaign. With store == null this is exactly
 * simulateCampaignStream(). Batch size comes from
 * config.batchRuns; the sink observes identical batches on the
 * hit and miss paths.
 */
void simulateOrLoadStream(const DeviceModel &device,
                          Workload &workload,
                          const SimConfig &config,
                          CampaignStore *store, RawSink &sink,
                          WorkerPool *pool = nullptr);

} // namespace radcrit

#endif // RADCRIT_CAMPAIGN_STORE_HH
