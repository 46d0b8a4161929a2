#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench
{

namespace
{

struct ThreadBuffer
{
    unsigned lane = 0;
    std::vector<Span> spans;
};

std::atomic<bool> gEnabled{false};
std::atomic<uint64_t> gNextId{1};

std::mutex gBuffersMutex;
std::vector<std::unique_ptr<ThreadBuffer>> gBuffers;

thread_local ThreadBuffer *tBuffer = nullptr;
thread_local uint64_t tParent = 0;
thread_local uint64_t tCampaign = 0;

/** Context of threads with no open span (see WorkerContext). */
std::atomic<uint64_t> gSharedParent{0};
std::atomic<uint64_t> gSharedCampaign{0};

ThreadBuffer &
threadBuffer()
{
    if (!tBuffer) {
        std::lock_guard<std::mutex> lock(gBuffersMutex);
        gBuffers.push_back(std::make_unique<ThreadBuffer>());
        gBuffers.back()->lane =
            static_cast<unsigned>(gBuffers.size() - 1);
        tBuffer = gBuffers.back().get();
    }
    return *tBuffer;
}

/** Layer of a span: its name up to the first dot. */
std::string
category(const char *name)
{
    std::string s(name);
    return s.substr(0, s.find('.'));
}

/** Nanoseconds as microseconds with all three decimals. */
void
writeUs(std::ostream &os, uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    os << buf;
}

} // anonymous namespace

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setEnabled(bool on)
{
    gEnabled.store(on);
}

bool
enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

void
clearSpans()
{
    std::lock_guard<std::mutex> lock(gBuffersMutex);
    for (auto &buffer : gBuffers)
        buffer->spans.clear();
}

uint64_t
spanCount()
{
    std::lock_guard<std::mutex> lock(gBuffersMutex);
    uint64_t n = 0;
    for (const auto &buffer : gBuffers)
        n += buffer->spans.size();
    return n;
}

void
writeChromeTrace(std::ostream &os)
{
    std::lock_guard<std::mutex> lock(gBuffersMutex);
    uint64_t epoch = UINT64_MAX;
    for (const auto &buffer : gBuffers)
        for (const Span &s : buffer->spans)
            epoch = std::min(epoch, s.startNs);
    if (epoch == UINT64_MAX)
        epoch = 0;

    os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
       << "\"tid\": 0, \"args\": {\"name\": \"perfbench probe\"}}";
    for (const auto &buffer : gBuffers) {
        os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", "
           << "\"pid\": 1, \"tid\": " << buffer->lane
           << ", \"args\": {\"name\": \""
           << (buffer->lane == 0 ? "control" : "worker") << " "
           << buffer->lane << "\"}}";
    }
    for (const auto &buffer : gBuffers) {
        for (const Span &s : buffer->spans) {
            os << ",\n{\"name\": \"" << s.name << "\", \"cat\": \""
               << category(s.name)
               << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
               << buffer->lane << ", \"ts\": ";
            writeUs(os, s.startNs - epoch);
            os << ", \"dur\": ";
            writeUs(os, s.endNs - s.startNs);
            os << ", \"args\": {\"id\": " << s.id
               << ", \"parent\": " << s.parent
               << ", \"campaign\": " << s.campaign
               << ", \"dur_ns\": " << (s.endNs - s.startNs)
               << ", \"value\": " << s.value
               << ", \"elements\": " << s.elements;
            if (!s.kernel.empty())
                os << ", \"kernel\": \"" << s.kernel << "\"";
            if (s.manifestation)
                os << ", \"manifestation\": \"" << s.manifestation
                   << "\"";
            os << "}}";
        }
    }
    os << "\n]\n}\n";
}

WorkerContext::WorkerContext(uint64_t parent, uint64_t campaign)
    : savedParent_(gSharedParent.exchange(parent)),
      savedCampaign_(gSharedCampaign.exchange(campaign))
{
}

WorkerContext::~WorkerContext()
{
    gSharedParent.store(savedParent_);
    gSharedCampaign.store(savedCampaign_);
}

ScopedSpan::ScopedSpan(const char *name)
{
    open(name);
}

ScopedSpan::ScopedSpan(const char *name, uint64_t campaign)
{
    open(name);
    if (active_) {
        span_.campaign = campaign;
        tCampaign = campaign;
    }
}

void
ScopedSpan::open(const char *name)
{
    if (!enabled())
        return;
    active_ = true;
    savedParent_ = tParent;
    savedCampaign_ = tCampaign;
    span_.name = name;
    span_.id = gNextId.fetch_add(1, std::memory_order_relaxed);
    if (tParent != 0) {
        span_.parent = tParent;
        span_.campaign = tCampaign;
    } else {
        span_.parent = gSharedParent.load(std::memory_order_relaxed);
        span_.campaign =
            gSharedCampaign.load(std::memory_order_relaxed);
        tCampaign = span_.campaign;
    }
    tParent = span_.id;
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (!active_)
        return;
    span_.endNs = nowNs();
    tParent = savedParent_;
    tCampaign = savedCampaign_;
    threadBuffer().spans.push_back(std::move(span_));
}

} // namespace perfbench
