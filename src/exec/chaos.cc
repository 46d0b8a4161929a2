#include "exec/chaos.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <limits>
#include <thread>
#include <unordered_set>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{

namespace
{

std::atomic<ChaosEngine *> globalChaos{nullptr};

/** Split "a=1,b=2" into (key, value) pairs; fatal on bad tokens. */
std::vector<std::pair<std::string, std::string>>
splitSpec(const std::string &spec)
{
    std::vector<std::pair<std::string, std::string>> out;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;
        size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal("chaos spec: malformed token '%s' (expected "
                  "key=value)",
                  token.c_str());
        out.emplace_back(token.substr(0, eq),
                         token.substr(eq + 1));
    }
    return out;
}

/**
 * Parse a spec value as a whole unsigned decimal token no larger
 * than `max` (no sign, no blanks, no trailing bytes).
 */
uint64_t
specUint(const std::string &key, const std::string &value,
         uint64_t max = std::numeric_limits<uint64_t>::max())
{
    uint64_t v = 0;
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec == std::errc::result_out_of_range ||
        (ec == std::errc() && v > max))
        fatal("chaos spec: '%s' is out of range for key '%s' "
              "(max %llu)",
              value.c_str(), key.c_str(),
              static_cast<unsigned long long>(max));
    if (ec != std::errc() || ptr != end)
        fatal("chaos spec: '%s' is not a number for key '%s'",
              value.c_str(), key.c_str());
    return v;
}

/** Fatal unless a plan of `params` is placeable and bounded. */
void
checkPlanParams(const ChaosPlanParams &params)
{
    if (params.throws > params.runs ||
        params.stalls > params.runs - params.throws)
        fatal("chaos spec: %llu throw + %llu stall run faults but "
              "only %llu runs",
              static_cast<unsigned long long>(params.throws),
              static_cast<unsigned long long>(params.stalls),
              static_cast<unsigned long long>(params.runs));
    if (params.throws + params.stalls > maxChaosFaults ||
        params.corrupts > maxChaosFaults - params.throws -
            params.stalls)
        fatal("chaos spec: more than %llu faults",
              static_cast<unsigned long long>(maxChaosFaults));
}

} // anonymous namespace

const char *
chaosFaultKindName(ChaosFaultKind kind)
{
    switch (kind) {
      case ChaosFaultKind::Throw: return "throw";
      case ChaosFaultKind::Stall: return "stall";
      case ChaosFaultKind::CorruptWrite: return "corrupt-write";
      default:
        panic("chaosFaultKindName: invalid kind %d",
              static_cast<int>(kind));
    }
}

std::string
ChaosPlan::describe() const
{
    if (faults.empty())
        return "chaos plan: empty";
    std::string out = strprintf(
        "chaos plan: %zu fault(s):", faults.size());
    for (const ChaosFault &fault : faults) {
        out += strprintf(
            " %s@%llu", chaosFaultKindName(fault.kind),
            static_cast<unsigned long long>(fault.item));
        if (fault.kind != ChaosFaultKind::CorruptWrite)
            out += strprintf("x%u", fault.attempts);
    }
    return out;
}

ChaosPlan
makeChaosPlan(const ChaosPlanParams &params)
{
    checkPlanParams(params);
    ChaosPlan plan;

    // Draw distinct run items with the repo Rng: rejection-sample
    // so identical params yield the identical plan regardless of
    // how many collisions occur.
    Rng rng(params.seed);
    std::unordered_set<uint64_t> used;
    auto draw_item = [&] {
        for (;;) {
            uint64_t item = rng.uniformInt(params.runs);
            if (used.insert(item).second)
                return item;
        }
    };

    for (uint64_t i = 0; i < params.throws; ++i) {
        ChaosFault fault;
        fault.kind = ChaosFaultKind::Throw;
        fault.item = draw_item();
        fault.attempts = params.attempts;
        plan.faults.push_back(fault);
    }
    for (uint64_t i = 0; i < params.stalls; ++i) {
        ChaosFault fault;
        fault.kind = ChaosFaultKind::Stall;
        fault.item = draw_item();
        fault.attempts = params.attempts;
        fault.stallNs = params.stallNs;
        plan.faults.push_back(fault);
    }
    for (uint64_t i = 0; i < params.corrupts; ++i) {
        ChaosFault fault;
        fault.kind = ChaosFaultKind::CorruptWrite;
        fault.item = i;
        plan.faults.push_back(fault);
    }

    // Stable presentation: run faults sorted by item, so describe()
    // and tests read plans independent of draw order.
    std::stable_sort(plan.faults.begin(), plan.faults.end(),
                     [](const ChaosFault &a, const ChaosFault &b) {
                         if (a.kind != b.kind)
                             return static_cast<int>(a.kind) <
                                 static_cast<int>(b.kind);
                         return a.item < b.item;
                     });
    return plan;
}

std::optional<ChaosPlanParams>
parseChaosSpec(const std::string &spec)
{
    if (spec.empty())
        return std::nullopt;
    ChaosPlanParams params;
    for (const auto &[key, value] : splitSpec(spec)) {
        if (key == "seed")
            params.seed = specUint(key, value);
        else if (key == "runs")
            params.runs = specUint(key, value);
        else if (key == "throws")
            params.throws = specUint(key, value);
        else if (key == "stalls")
            params.stalls = specUint(key, value);
        else if (key == "corrupts")
            params.corrupts = specUint(key, value);
        else if (key == "attempts")
            params.attempts = static_cast<unsigned>(specUint(
                key, value, std::numeric_limits<unsigned>::max()));
        else if (key == "stall-ms")
            params.stallNs = specUint(
                key, value,
                std::numeric_limits<uint64_t>::max() / 1'000'000) *
                1'000'000;
        else
            fatal("chaos spec: unknown key '%s' (seed, runs, "
                  "throws, stalls, corrupts, attempts, stall-ms)",
                  key.c_str());
    }
    checkPlanParams(params);
    return params;
}

std::string
chaosSpec(const ChaosPlanParams &params)
{
    return strprintf(
        "seed=%llu,runs=%llu,throws=%llu,stalls=%llu,"
        "corrupts=%llu,attempts=%u,stall-ms=%llu",
        static_cast<unsigned long long>(params.seed),
        static_cast<unsigned long long>(params.runs),
        static_cast<unsigned long long>(params.throws),
        static_cast<unsigned long long>(params.stalls),
        static_cast<unsigned long long>(params.corrupts),
        params.attempts,
        static_cast<unsigned long long>(params.stallNs /
                                        1'000'000));
}

ChaosEngine::ChaosEngine(ChaosPlan plan) : plan_(std::move(plan))
{
}

void
ChaosEngine::onRunAttempt(uint64_t item, unsigned attempt)
{
    for (const ChaosFault &fault : plan_.faults) {
        if (fault.item != item ||
            fault.kind == ChaosFaultKind::CorruptWrite ||
            attempt > fault.attempts)
            continue;
        if (fault.kind == ChaosFaultKind::Stall) {
            stalled_.fetch_add(1, std::memory_order_relaxed);
            StatsRegistry::global()
                .counter("resilience.chaos.stalls")
                .inc();
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(fault.stallNs));
        } else {
            thrown_.fetch_add(1, std::memory_order_relaxed);
            StatsRegistry::global()
                .counter("resilience.chaos.throws")
                .inc();
            throw ChaosError(strprintf(
                "chaos: injected infrastructure fault on run "
                "%llu attempt %u",
                static_cast<unsigned long long>(item), attempt));
        }
    }
}

bool
ChaosEngine::shouldCorruptWrite(const char *what)
{
    uint64_t ordinal =
        writeOrdinal_.fetch_add(1, std::memory_order_relaxed);
    for (const ChaosFault &fault : plan_.faults) {
        if (fault.kind != ChaosFaultKind::CorruptWrite ||
            fault.item != ordinal)
            continue;
        corrupted_.fetch_add(1, std::memory_order_relaxed);
        StatsRegistry::global()
            .counter("resilience.chaos.corrupt_writes")
            .inc();
        warn("chaos: tearing %s write (ordinal %llu)", what,
             static_cast<unsigned long long>(ordinal));
        return true;
    }
    return false;
}

ChaosEngine *
setChaos(ChaosEngine *engine)
{
    return globalChaos.exchange(engine);
}

ChaosEngine *
chaos()
{
    return globalChaos.load(std::memory_order_acquire);
}

} // namespace radcrit
