/**
 * @file
 * Deterministic chaos injection for the campaign harness itself.
 *
 * The kernel injectors corrupt the *workload under test*; this
 * module is their mirror for the *execution infrastructure*: a
 * ChaosPlan — seeded from the repo Rng exactly like a campaign — is
 * a fixed list of harness faults that make individual run items
 * throw, stall past their watchdog deadline, or corrupt an on-disk
 * store/checkpoint write. The resilience layer (pool watchdog,
 * bounded retry, store quarantine) is then testable against the
 * same failure modes a beam campaign measures: transient faults
 * must be absorbed with bit-identical results, permanent ones must
 * quarantine as first-class infra outcomes.
 *
 * A plan is installed process-wide (like the flight recorder's
 * timeline) via setChaos(); with none installed every hook is a
 * no-op on the hot path. The CLI and suite enable it with
 * --chaos=<spec> or RADCRIT_CHAOS, where <spec> is a comma list of
 * key=value pairs:
 *
 *   seed=42,runs=300,throws=3,stalls=1,corrupts=1,
 *   attempts=2,stall-ms=50
 *
 * meaning: from Rng(42), pick 3 run items in [0, 300) that throw,
 * 1 that stalls 50 ms, and corrupt 1 store write; each run fault
 * fires on the first 2 attempts of its item and then stops
 * (attempts < the retry budget makes every fault transient).
 */

#ifndef RADCRIT_EXEC_CHAOS_HH
#define RADCRIT_EXEC_CHAOS_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace radcrit
{

class Rng;

/** What one planned harness fault does when it fires. */
enum class ChaosFaultKind : uint8_t
{
    /** The run item's attempt throws a ChaosError. */
    Throw,
    /** The run item's attempt sleeps stallNs before executing. */
    Stall,
    /** The Nth guarded file write is torn after writing. */
    CorruptWrite,
};

/** @return a stable printable name of the fault kind. */
const char *chaosFaultKindName(ChaosFaultKind kind);

/**
 * One planned fault. For Throw/Stall faults `item` is the run index
 * the fault is bound to; for CorruptWrite it is the zero-based
 * ordinal of the guarded write (counted process-wide in the order
 * the writes happen).
 */
struct ChaosFault
{
    ChaosFaultKind kind = ChaosFaultKind::Throw;
    uint64_t item = 0;
    /**
     * The fault fires on the first `attempts` attempts of its item
     * and then succeeds, so attempts strictly below the executor's
     * retry budget makes the fault transient (absorbed with
     * bit-identical results) and attempts at or above it makes it
     * permanent (the item quarantines). Ignored for CorruptWrite.
     */
    unsigned attempts = 1;
    /** Stall duration; meaningful for Stall faults only. */
    uint64_t stallNs = 0;
};

/**
 * The most faults (throws + stalls + corrupts) one plan may hold.
 * A plan is built eagerly, one entry per fault, and a harness test
 * needs a handful, so a larger count is a typo or a hostile spec.
 */
constexpr uint64_t maxChaosFaults = 4096;

/** Generation parameters of a seeded plan (the --chaos spec). */
struct ChaosPlanParams
{
    /** Seed of the plan's private Rng stream. */
    uint64_t seed = 1;
    /** Run-index domain faults are drawn from: [0, runs). */
    uint64_t runs = 100;
    /** Number of Throw faults to place on distinct items. */
    uint64_t throws = 0;
    /** Number of Stall faults to place on distinct items. */
    uint64_t stalls = 0;
    /** Number of CorruptWrite faults (write ordinals 0..n-1). */
    uint64_t corrupts = 0;
    /** Attempts each run fault fires for (transient if < budget). */
    unsigned attempts = 1;
    /** Stall duration of every Stall fault. */
    uint64_t stallNs = 50'000'000;
};

/**
 * A deterministic fault plan: the complete list of harness faults
 * one campaign (or process) will experience. Plans are plain data —
 * property tests build them directly; the CLI builds them from a
 * spec string via makeChaosPlan().
 */
struct ChaosPlan
{
    std::vector<ChaosFault> faults;

    /** @return a human-readable one-line description. */
    std::string describe() const;
};

/**
 * Expand generation parameters into a concrete plan with the
 * repo Rng: run faults land on distinct run indices (throws and
 * stalls never share an item, so each item's failure mode is
 * unambiguous), corrupt-write faults take the first `corrupts`
 * write ordinals. Identical params always yield the identical
 * plan. Fatal ("chaos spec: ...") when throws + stalls exceed runs
 * or the plan would exceed maxChaosFaults.
 */
ChaosPlan makeChaosPlan(const ChaosPlanParams &params);

/**
 * Parse a --chaos / RADCRIT_CHAOS spec ("seed=42,throws=3,...",
 * keys as in ChaosPlanParams). Every value is a whole unsigned
 * decimal token; a sign, blank, trailing byte, unknown key, a value
 * out of its field's range (attempts beyond unsigned, stall-ms
 * whose nanoseconds overflow) or params makeChaosPlan() would
 * reject are fatal with a "chaos spec:" diagnostic, so accepted
 * params always build a plan. An empty spec returns nullopt (chaos
 * off).
 */
std::optional<ChaosPlanParams>
parseChaosSpec(const std::string &spec);

/** @return the canonical spec string of `params` (parse inverse). */
std::string chaosSpec(const ChaosPlanParams &params);

/** The exception injected Throw faults raise. */
struct ChaosError : std::runtime_error
{
    explicit ChaosError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Live injector over one plan: tracks write ordinals and fires the
 * planned faults when the harness reaches them. Thread-safe — run
 * hooks are called concurrently from pool workers, the write hook
 * from whichever thread saves store/checkpoint files.
 */
class ChaosEngine
{
  public:
    explicit ChaosEngine(ChaosPlan plan);

    /** @return the installed plan. */
    const ChaosPlan &plan() const { return plan_; }

    /**
     * Hook called at the start of attempt `attempt` (1-based) of
     * run item `item`: throws ChaosError for an active Throw fault,
     * sleeps for an active Stall fault, otherwise returns
     * immediately. Fault activity depends only on (item, attempt),
     * so the injected behavior is identical for any worker count.
     */
    void onRunAttempt(uint64_t item, unsigned attempt);

    /**
     * Hook called before a guarded file write (store entry,
     * checkpoint shard) is moved into place.
     *
     * @return true when this write (by process-wide ordinal) has a
     * planned CorruptWrite fault and must be torn by the caller.
     */
    bool shouldCorruptWrite(const char *what);

    /** @return Throw faults fired so far. */
    uint64_t thrown() const { return thrown_.load(); }

    /** @return Stall faults fired so far. */
    uint64_t stalled() const { return stalled_.load(); }

    /** @return CorruptWrite faults fired so far. */
    uint64_t corrupted() const { return corrupted_.load(); }

  private:
    ChaosPlan plan_;
    std::atomic<uint64_t> writeOrdinal_{0};
    std::atomic<uint64_t> thrown_{0};
    std::atomic<uint64_t> stalled_{0};
    std::atomic<uint64_t> corrupted_{0};
};

/**
 * Install (or clear, with nullptr) the process-wide chaos engine.
 *
 * @return the previously installed engine.
 */
ChaosEngine *setChaos(ChaosEngine *engine);

/** @return the installed chaos engine, or nullptr (chaos off). */
ChaosEngine *chaos();

} // namespace radcrit

#endif // RADCRIT_EXEC_CHAOS_HH
