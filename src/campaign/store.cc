#include "campaign/store.hh"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <thread>

#include <unistd.h>

#include "campaign/runner.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "exec/chaos.hh"
#include "exec/launch.hh"
#include "logs/beamlog.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{

namespace
{

/** Chain a length-prefixed string into a hash. */
uint64_t
hashString(uint64_t h, const std::string &s)
{
    h = Rng::hashCombine(h, s.size());
    for (char c : s)
        h = Rng::hashCombine(h, static_cast<uint64_t>(
                                    static_cast<unsigned char>(c)));
    return h;
}

/** @return the quarantine reason of an entry contradicting `key`. */
std::string
keyMismatch(const CampaignKey &key)
{
    return strprintf("entry does not match its key (%s/%s %s "
                     "seed=%llu runs=%llu)",
                     key.device.c_str(), key.workload.c_str(),
                     key.input.c_str(),
                     static_cast<unsigned long long>(key.sim.seed),
                     static_cast<unsigned long long>(
                         key.sim.faultyRuns));
}

/**
 * The staging file of a store entry: "<entry>.tmp.<pid>.<tid>", so
 * neither concurrent processes nor threads of one process clobber
 * each other's staging file.
 */
std::string
stagingPath(const std::string &path)
{
    return path +
        strprintf(".tmp.%ld.%zu", static_cast<long>(getpid()),
                  std::hash<std::thread::id>{}(
                      std::this_thread::get_id()));
}

/**
 * Move a fully written staging file into place. Write-then-rename
 * means concurrent writers sharing a cache directory never observe
 * a torn entry. A planned corrupt-write fault truncates the staged
 * entry before the rename — the torn-entry shape a crash mid-write
 * would leave if saves were not staged, exercising the load path's
 * retry-then-quarantine recovery.
 */
void
publishStaged(const std::string &tmp, const std::string &path)
{
    if (ChaosEngine *engine = chaos()) {
        if (engine->shouldCorruptWrite("store")) {
            std::error_code tec;
            uint64_t size = std::filesystem::file_size(tmp, tec);
            if (!tec)
                std::filesystem::resize_file(tmp, size / 2, tec);
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp);
        fatal("cannot move campaign cache entry into '%s': %s",
              path.c_str(), ec.message().c_str());
    }
}

} // anonymous namespace

CampaignKey
campaignKey(const CampaignRaw &raw)
{
    return CampaignKey{raw.deviceName, raw.workloadName,
                       raw.inputLabel, raw.sim};
}

uint64_t
campaignKeyHash(const CampaignKey &key)
{
    uint64_t h = 0x5241444353544f52ULL; // "RADCSTOR"
    h = hashString(h, key.device);
    h = hashString(h, key.workload);
    h = hashString(h, key.input);
    h = Rng::hashCombine(h, key.sim.seed);
    h = Rng::hashCombine(h, key.sim.faultyRuns);
    h = Rng::hashCombine(h,
                         static_cast<uint64_t>(beamLogVersion));
    return h;
}

std::string
campaignKeyFileName(const CampaignKey &key)
{
    return statToken(key.device) + "-" + statToken(key.workload) +
        "-" + statToken(key.input) + "-" +
        strprintf("%016llx",
                  static_cast<unsigned long long>(
                      campaignKeyHash(key))) +
        ".beamlog";
}

CampaignStore::CampaignStore(const std::string &dir) : dir_(dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create campaign cache directory '%s': %s",
              dir_.c_str(), ec.message().c_str());
    if (!std::filesystem::is_directory(dir_))
        fatal("campaign cache path '%s' exists but is not a "
              "directory",
              dir_.c_str());
}

std::unique_ptr<CampaignStore>
CampaignStore::open(const std::string &dir)
{
    // Validate up front: a cache path that is a regular file (or
    // cannot be created) would otherwise miss on every load and
    // only fail much later, at the first save.
    std::error_code ec;
    if (std::filesystem::exists(dir, ec) &&
        !std::filesystem::is_directory(dir, ec)) {
        warn("campaign cache path '%s' exists but is not a "
             "directory; caching disabled",
             dir.c_str());
        return nullptr;
    }
    std::filesystem::create_directories(dir, ec);
    if (ec || !std::filesystem::is_directory(dir)) {
        warn("cannot create campaign cache directory '%s'%s%s; "
             "caching disabled",
             dir.c_str(), ec ? ": " : "",
             ec ? ec.message().c_str() : "");
        return nullptr;
    }
    return std::make_unique<CampaignStore>(dir);
}

std::string
CampaignStore::pathFor(const CampaignKey &key) const
{
    return dir_ + "/" + campaignKeyFileName(key);
}

void
CampaignStore::quarantine(const std::string &path,
                          const char *why)
{
    // Keep the bad bytes for autopsy, but make sure they are never
    // parsed again: every future lookup of this key starts from a
    // clean miss. If even the rename fails, delete the entry — a
    // corrupt file that keeps its cache name would fail every load.
    std::string aside = path + ".quarantined";
    std::error_code ec;
    std::filesystem::rename(path, aside, ec);
    if (ec) {
        std::filesystem::remove(path, ec);
        aside = "(removed)";
    }
    warn("campaign cache entry '%s' quarantined to '%s': %s",
         path.c_str(), aside.c_str(), why);
    ++quarantined_;
    StatsRegistry::global()
        .counter("campaign.store.quarantined")
        .inc();
}

std::optional<CampaignRaw>
CampaignStore::load(const CampaignKey &key)
{
    std::string path = pathFor(key);
    Counter &miss =
        StatsRegistry::global().counter("campaign.store.miss");

    if (!std::filesystem::exists(path)) {
        ++misses_;
        miss.inc();
        return std::nullopt;
    }

    // Read corrupt entries twice before giving up: the first
    // failure may be a torn read of an entry another process is
    // just renaming into place (rename is atomic, but the pre-read
    // exists() check can race it on some filesystems). A second
    // failure means the bytes themselves are bad — quarantine the
    // entry and re-simulate.
    std::string error;
    std::optional<CampaignRaw> parsed =
        tryReadBeamLogFile(path, &error);
    if (!parsed)
        parsed = tryReadBeamLogFile(path, &error);
    if (!parsed) {
        quarantine(path, error.c_str());
        ++misses_;
        miss.inc();
        return std::nullopt;
    }
    return load(key, std::move(parsed));
}

std::optional<CampaignRaw>
CampaignStore::load(const CampaignKey &key,
                    std::optional<CampaignRaw> parsed)
{
    if (!parsed)
        return load(key);
    std::string path = pathFor(key);
    Counter &hit =
        StatsRegistry::global().counter("campaign.store.hit");
    Counter &miss =
        StatsRegistry::global().counter("campaign.store.miss");

    CampaignRaw raw = std::move(*parsed);
    if (raw.deviceName != key.device ||
        raw.workloadName != key.workload ||
        raw.inputLabel != key.input ||
        raw.sim.seed != key.sim.seed ||
        raw.runs.size() != key.sim.faultyRuns) {
        quarantine(path, keyMismatch(key).c_str());
        ++misses_;
        miss.inc();
        return std::nullopt;
    }

    ++hits_;
    hit.inc();
    return raw;
}

namespace
{

/**
 * The staging sink behind CampaignStore::saveSink(): streams the
 * campaign into its staging file via BeamLogWriter as batches
 * arrive and publishes it at end() exactly as save() does.
 */
class StoreSaveSink : public RawObserver
{
  public:
    explicit StoreSaveSink(const CampaignStore &store)
        : store_(&store)
    {
    }

    void begin(const CampaignMeta &meta) override
    {
        CampaignKey key{meta.deviceName, meta.workloadName,
                        meta.inputLabel, meta.sim};
        path_ = store_->pathFor(key);
        tmp_ = stagingPath(path_);
        out_.open(tmp_);
        if (!out_)
            fatal("cannot open '%s' for beam-log output",
                  tmp_.c_str());
        writer_.emplace(out_);
        writer_->header(meta.deviceName, meta.workloadName,
                        meta.inputLabel, meta.sim.seed,
                        meta.sim.faultyRuns,
                        meta.sensitiveAreaAu);
    }

    void observe(const RunBatch &batch) override
    {
        writer_->append(batch.runs);
    }

    void end(const StatsSnapshot &) override
    {
        out_.flush();
        if (!out_)
            fatal("write error on beam log '%s'", tmp_.c_str());
        out_.close();
        publishStaged(tmp_, path_);
    }

  private:
    const CampaignStore *store_;
    std::string path_;
    std::string tmp_;
    std::ofstream out_;
    std::optional<BeamLogWriter> writer_;
};

} // anonymous namespace

bool
CampaignStore::loadStream(const CampaignKey &key,
                          const KernelLaunch &launch,
                          RawSink &sink, uint64_t batchRuns)
{
    // The sink must never see a batch from an entry that later
    // turns out corrupt (a streaming consumer cannot un-consume),
    // so every byte is validated before delivery. Entries small
    // enough to hold go through load() — its parse attempts, key
    // check, quarantine and hit/miss counting — and are delivered
    // in slices moved out of the loaded campaign. The size
    // decision keys on key.sim.faultyRuns: an entry whose header
    // disagrees is quarantined in either path, so the two paths
    // cannot disagree about a valid entry.
    if (key.sim.faultyRuns <= singlePassCap()) {
        std::optional<CampaignRaw> raw = load(key);
        if (!raw)
            return false;
        // Meta carries the caller's sim config and launch
        // (execution details outside the key), and end() gets the
        // rebuilt simulation counters — exactly the materialized
        // hit shape.
        raw->sim = key.sim;
        raw->launch = launch;
        SimStatsRebuilder rebuilder(raw->deviceName,
                                    raw->workloadName,
                                    raw->sensitiveAreaAu,
                                    launch.occupancy);
        sink.begin(campaignMeta(*raw));
        uint64_t total = raw->runs.size();
        uint64_t step = batchRuns == 0 ? total
                                       : std::min(batchRuns, total);
        for (uint64_t first = 0; first < total; first += step) {
            RunBatch batch;
            batch.firstIndex = first;
            if (step == total) {
                batch.runs = std::move(raw->runs);
            } else {
                auto begin = raw->runs.begin() + first;
                batch.runs.assign(
                    std::make_move_iterator(begin),
                    std::make_move_iterator(
                        begin + std::min(step, total - first)));
            }
            for (const RawRun &run : batch.runs)
                rebuilder.fold(run);
            sink.consume(std::move(batch));
        }
        sink.end(rebuilder.finish(StatsRegistry::global()));
        return true;
    }

    std::string path = pathFor(key);
    Counter &hit =
        StatsRegistry::global().counter("campaign.store.hit");
    Counter &miss =
        StatsRegistry::global().counter("campaign.store.miss");

    if (!std::filesystem::exists(path)) {
        ++misses_;
        miss.inc();
        return false;
    }

    // Bounded-memory shape for entries too big to buffer:
    // validate the whole entry record by record first, then stream
    // it to the sink in a second pass. Two validation attempts,
    // like load(), to tolerate a rename racing the exists() check;
    // then quarantine.
    auto validate = [&](std::string *error) -> bool {
        std::ifstream in(path);
        if (!in) {
            if (error)
                *error = strprintf("cannot open beam log '%s'",
                                   path.c_str());
            return false;
        }
        try {
            BeamLogReader reader(in);
            if (reader.device() != key.device ||
                reader.workload() != key.workload ||
                reader.input() != key.input ||
                reader.seed() != key.sim.seed ||
                reader.declaredRuns() != key.sim.faultyRuns) {
                if (error)
                    *error = keyMismatch(key);
                return false;
            }
            while (reader.next()) {
            }
        } catch (const BeamLogParseError &e) {
            if (error)
                *error = e.what();
            return false;
        }
        return true;
    };

    std::string error;
    bool valid = validate(&error) || validate(&error);
    if (!valid) {
        quarantine(path, error.c_str());
        ++misses_;
        miss.inc();
        return false;
    }

    // Stream pass over the validated bytes.
    std::ifstream in(path);
    if (!in) {
        ++misses_;
        miss.inc();
        return false;
    }
    try {
        BeamLogSource source(in, batchRuns);
        CampaignMeta meta = source.meta();
        meta.sim = key.sim;
        meta.launch = launch;

        SimStatsRebuilder rebuilder(meta.deviceName,
                                    meta.workloadName,
                                    meta.sensitiveAreaAu,
                                    launch.occupancy);
        sink.begin(meta);
        RunBatch batch;
        while (source.next(batch)) {
            for (const RawRun &run : batch.runs)
                rebuilder.fold(run);
            sink.consume(std::move(batch));
            batch = RunBatch{};
        }
        sink.end(rebuilder.finish(StatsRegistry::global()));
    } catch (const BeamLogParseError &e) {
        // The entry validated moments ago; bytes changing under a
        // mid-stream reader mean something is rewriting cache
        // entries in place, which no writer in this repo does.
        // The sink may already have consumed batches, so there is
        // no clean miss to fall back to.
        fatal("campaign cache entry '%s' changed while "
              "streaming: %s",
              path.c_str(), e.what());
    }

    ++hits_;
    hit.inc();
    return true;
}

std::unique_ptr<RawObserver>
CampaignStore::saveSink()
{
    return std::make_unique<StoreSaveSink>(*this);
}

void
CampaignStore::save(const CampaignRaw &raw)
{
    std::string path = pathFor(campaignKey(raw));
    std::string tmp = stagingPath(path);
    writeBeamLogFile(raw, tmp);
    publishStaged(tmp, path);
}

void
completeStoreHit(CampaignRaw &raw, const DeviceModel &device,
                 const WorkloadTraits &traits, const SimConfig &config)
{
    raw.sim = config;
    raw.launch = buildLaunch(device, traits);
    raw.stats = rebuildSimStats(raw, StatsRegistry::global());
}

CampaignRaw
simulateOrLoad(const DeviceModel &device, Workload &workload,
               const SimConfig &config, CampaignStore *store,
               WorkerPool *pool)
{
    if (store) {
        CampaignKey key{device.name, workload.name(),
                        workload.inputLabel(), config};
        if (auto cached = store->load(key)) {
            completeStoreHit(*cached, device, workload.traits(),
                             config);
            return std::move(*cached);
        }
    }
    CampaignRaw raw = pool
        ? simulateCampaign(device, workload, config, *pool)
        : simulateCampaign(device, workload, config);
    if (store)
        store->save(raw);
    return raw;
}

void
simulateOrLoadStream(const DeviceModel &device, Workload &workload,
                     const SimConfig &config, CampaignStore *store,
                     std::vector<RawObserver *> observers)
{
    TeeRawSink observe_only(observers);
    if (!store) {
        simulateCampaignStream(device, workload, config, observe_only);
        return;
    }
    CampaignKey key{device.name, workload.name(),
                    workload.inputLabel(), config};
    if (store->loadStream(key, buildLaunch(device, workload.traits()),
                          observe_only, config.batchRuns))
        return;
    std::unique_ptr<RawObserver> save = store->saveSink();
    AsyncSaveSink async_save(*save);
    TeeRawSink tee(std::move(observers), &async_save);
    simulateCampaignStream(device, workload, config, tee);
}

} // namespace radcrit
