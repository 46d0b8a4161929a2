#include "logs/beamlog.hh"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <filesystem>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "exec/chaos.hh"
#include "exec/pool.hh"
#include "obs/stats_registry.hh"

namespace radcrit
{

namespace
{

/** A text value written percent-encoded (' ' and '%'), so it stays
 * a single token. */
struct Encoded
{
    std::string_view text;
};

void
appendPiece(std::string &out, std::string_view text)
{
    out += text;
}

void
appendPiece(std::string &out, Encoded value)
{
    for (char c : value.text) {
        if (c == ' ')
            out += "%20";
        else if (c == '%')
            out += "%25";
        else
            out += c;
    }
}

template <std::integral T>
void
appendPiece(std::string &out, T value)
{
    static_assert(!std::is_same_v<T, char>, "pass text, not char");
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, static_cast<size_t>(res.ptr - buf));
}

/** %.17g, so a parse round trip is bit-exact. */
void
appendPiece(std::string &out, double value)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), value,
                             std::chars_format::general, 17);
    out.append(buf, static_cast<size_t>(res.ptr - buf));
}

/** Append every piece: text as is, numbers printed exactly. */
template <class... Pieces>
void
appendAll(std::string &out, const Pieces &...pieces)
{
    (appendPiece(out, pieces), ...);
}

/**
 * The #ERR line as the writer lays it out: these pieces in this
 * order, each followed by its value, single spaces and nothing
 * after the last value. RecordParser tries this layout first.
 */
constexpr std::string_view errLayout[] = {"#ERR x=", " y=", " z=",
                                          " read=", " expected="};

/**
 * Lines per ordered slice of a log body. A few hundred lines keep
 * each worker's buffer near 50 KB whatever a record's size (one
 * DGEMM record can hold thousands of #ERR lines).
 */
constexpr uint64_t sliceLines = 512;

/**
 * Lines of one run's record: #RUN, then #DIMS and one #ERR per
 * element when it is an SDC, then #END.
 */
uint64_t
recordLines(const RawRun &run)
{
    return run.outcome == Outcome::Sdc
        ? run.record.elements.size() + 3
        : 2;
}

/** Append lines [first, last) of run's record, numbered idx. */
void
appendRecordLines(std::string &out, const RawRun &run, uint64_t idx,
                  uint64_t first, uint64_t last)
{
    const uint64_t end_line = recordLines(run) - 1;
    if (first == 0) {
        const Strike &s = run.strike;
        appendAll(out, "#RUN idx=", idx,
                  " outcome=", outcomeName(run.outcome),
                  " resource=", resourceKindName(s.resource),
                  " manifestation=",
                  manifestationName(s.manifestation),
                  " t=", s.timeFraction, " burst=", s.burstBits,
                  " entropy=", s.entropy, "\n");
    }
    if (run.outcome == Outcome::Sdc) {
        const SdcRecord &rec = run.record;
        if (first <= 1 && last > 1)
            appendAll(out, "#DIMS dims=", rec.dims,
                      " x=", rec.extent[0], " y=", rec.extent[1],
                      " z=", rec.extent[2], "\n");
        for (uint64_t line = std::max<uint64_t>(first, 2);
             line < std::min(last, end_line); ++line) {
            const CorruptedElement &e = rec.elements[line - 2];
            appendAll(out, errLayout[0], e.coord[0], errLayout[1],
                      e.coord[1], errLayout[2], e.coord[2],
                      errLayout[3], e.read, errLayout[4], e.expected,
                      "\n");
        }
    }
    if (last > end_line)
        appendAll(out, "#END idx=", idx, "\n");
}

/**
 * Write the records of `runs`, numbered from first_idx, to `os` in
 * ordered slices (forOrderedSlices()): their lines form one flat
 * sequence cut every `slice_lines` lines, so a cut may fall inside
 * a record, and the slices reach `os` in order.
 */
void
writeRecords(std::ostream &os, std::span<const RawRun> runs,
             uint64_t first_idx, uint64_t slice_lines)
{
    // Where each slice starts: its run and the line in that run.
    struct Cut
    {
        size_t run;
        uint64_t line;
    };
    std::vector<Cut> cuts;
    uint64_t total = 0;
    for (size_t r = 0; r < runs.size(); ++r) {
        uint64_t end = total + recordLines(runs[r]);
        for (uint64_t at = cuts.size() * slice_lines; at < end;
             at += slice_lines)
            cuts.push_back({r, at - total});
        total = end;
    }
    forOrderedSlices(
        cuts.size(),
        [&](uint64_t k, std::string &out) {
            uint64_t left =
                std::min(slice_lines, total - k * slice_lines);
            size_t r = cuts[k].run;
            for (uint64_t line = cuts[k].line; left > 0;
                 ++r, line = 0) {
                uint64_t n =
                    std::min(recordLines(runs[r]) - line, left);
                appendRecordLines(out, runs[r], first_idx + r, line,
                                  line + n);
                left -= n;
            }
        },
        [&](const std::string &bytes) {
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        });
}

/** The identity fields #HEADER and #SHARD lines share. */
void
appendIdentity(std::string &out, const char *keyword,
               std::string_view device, std::string_view workload,
               std::string_view input, uint64_t seed, uint64_t runs)
{
    appendAll(out, keyword, " version=", beamLogVersion,
              " device=", Encoded{device},
              " workload=", Encoded{workload},
              " input=", Encoded{input}, " seed=", seed,
              " runs=", runs);
}

/** Write the #HEADER line of a campaign log. */
void
writeHeader(std::ostream &os, std::string_view device,
            std::string_view workload, std::string_view input,
            uint64_t seed, uint64_t runs, double sensitive_area_au)
{
    std::string line;
    appendIdentity(line, "#HEADER", device, workload, input, seed,
                   runs);
    appendAll(line, " sensitive_area_au=", sensitive_area_au, "\n");
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
}

/** Inverse of the Encoded piece; other '%' sequences stay as is. */
std::string
decodeValue(std::string_view value)
{
    if (value.find('%') == std::string_view::npos)
        return std::string(value);
    std::string out;
    for (size_t i = 0; i < value.size(); ++i) {
        if (value[i] == '%' && i + 2 < value.size()) {
            if (value.compare(i, 3, "%20") == 0) {
                out += ' ';
                i += 2;
                continue;
            }
            if (value.compare(i, 3, "%25") == 0) {
                out += '%';
                i += 2;
                continue;
            }
        }
        out += value[i];
    }
    return out;
}

/** The whitespace `operator>>` skips in the C locale. */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
        c == '\f' || c == '\r';
}

BeamLogParseError
unknownKeyword(std::string_view keyword)
{
    return BeamLogParseError(strprintf(
        "unknown beam-log keyword '%.*s'",
        static_cast<int>(keyword.size()), keyword.data()));
}

/** Parsed #HEADER / #SHARD fields. */
struct HeaderFields
{
    std::string device;
    std::string workload;
    std::string input;
    uint64_t seed = 0;
    uint64_t runs = 0;
    double sensitiveAreaAu = 0.0;
};

/**
 * The one parser of the line grammar shared by campaign logs,
 * store entries and checkpoint shards. split() tokenizes a line in
 * place: the keyword, then key=value fields kept as views into the
 * line, in a vector reused across lines. record() folds a split
 * #RUN/#DIMS/#ERR/#END line into the run in flight and hands the
 * run back when its #END arrives. Malformed input throws
 * BeamLogParseError; views are valid until the caller's line
 * buffer changes.
 */
class RecordParser
{
  public:
    /** Tokenize `line`. @return its keyword. */
    std::string_view
    split(std::string_view line)
    {
        line_ = line;
        keyword_ = {};
        badToken_ = {};
        fields_.clear();
        size_t i = 0;
        const size_t n = line.size();
        bool first = true;
        for (;;) {
            while (i < n && isSpace(line[i]))
                ++i;
            if (i == n)
                break;
            size_t start = i;
            while (i < n && !isSpace(line[i]))
                ++i;
            std::string_view token = line.substr(start, i - start);
            if (first) {
                keyword_ = token;
                first = false;
                continue;
            }
            size_t eq = token.find('=');
            if (eq == std::string_view::npos) {
                if (badToken_.empty())
                    badToken_ = token;
                continue;
            }
            fields_.emplace_back(token.substr(0, eq),
                                 token.substr(eq + 1));
        }
        return keyword_;
    }

    /** Parse the split line as a #HEADER (or #SHARD) line. */
    HeaderFields
    header(bool shard) const
    {
        auto version = number<int64_t>("version");
        if (version != beamLogVersion)
            throw BeamLogParseError(
                shard ? strprintf("unsupported shard version %lld",
                                  static_cast<long long>(version))
                      : strprintf("unsupported beam-log version "
                                  "%lld (expected %d)",
                                  static_cast<long long>(version),
                                  beamLogVersion));
        HeaderFields header;
        header.device = decodeValue(need("device"));
        header.workload = decodeValue(need("workload"));
        header.input = decodeValue(need("input"));
        header.seed = number<uint64_t>("seed");
        header.runs = number<uint64_t>("runs");
        if (!shard)
            header.sensitiveAreaAu =
                number<double>("sensitive_area_au");
        return header;
    }

    /** Fold the split line into the run in flight. @return the run
     * when the line is its #END. */
    std::optional<RawRun>
    record()
    {
        if (keyword_ == "#ERR") {
            if (!inRun_)
                throw error("#ERR outside a run: ");
            CorruptedElement e;
            e.coord = {number<int64_t>("x"), number<int64_t>("y"),
                       number<int64_t>("z")};
            e.read = number<double>("read");
            e.expected = number<double>("expected");
            current_.record.elements.push_back(e);
            return std::nullopt;
        }
        if (keyword_ == "#RUN") {
            if (inRun_)
                throw error("nested #RUN in beam log: ");
            current_ = RawRun{};
            current_.index = number<uint64_t>("idx");
            current_.outcome = named<Outcome, numOutcomes>(
                "outcome", outcomeName);
            current_.strike.resource =
                named<ResourceKind, numResourceKinds>(
                    "resource", resourceKindName);
            current_.strike.manifestation =
                named<Manifestation, numManifestations>(
                    "manifestation", manifestationName);
            current_.strike.timeFraction = number<double>("t");
            current_.strike.burstBits = number<uint32_t>("burst");
            current_.strike.entropy = number<uint64_t>("entropy");
            inRun_ = true;
            return std::nullopt;
        }
        if (keyword_ == "#DIMS") {
            if (!inRun_)
                throw error("#DIMS outside a run: ");
            current_.record.dims = number<int>("dims");
            current_.record.extent = {number<int64_t>("x"),
                                      number<int64_t>("y"),
                                      number<int64_t>("z")};
            return std::nullopt;
        }
        if (keyword_ == "#END") {
            if (!inRun_)
                throw error("#END without #RUN: ");
            if (number<uint64_t>("idx") != current_.index)
                throw error("#END does not close the open #RUN: ");
            inRun_ = false;
            return std::move(current_);
        }
        throw unknownKeyword(keyword_);
    }

    /**
     * Fold one line: an #ERR line in the writer's layout in place,
     * any other line through split() and record().
     */
    std::optional<RawRun>
    consume(std::string_view line)
    {
        CorruptedElement e;
        if (inRun_ && errInLayout(line, e)) {
            current_.record.elements.push_back(e);
            return std::nullopt;
        }
        split(line);
        return record();
    }

    /** @return true between a #RUN and its #END. */
    bool inRun() const { return inRun_; }

    /** @return the index of the run in flight. */
    uint64_t runIndex() const { return current_.index; }

  private:
    /**
     * Parse `line` into `e` when it is an #ERR line laid out
     * exactly as errLayout. A value from_chars reads up to the next
     * piece, or to the end of the line, is the whole token split()
     * would give, so such a line parses as record() would parse it;
     * @return false for any other line, which record() then parses
     * or diagnoses.
     */
    static bool
    errInLayout(std::string_view line, CorruptedElement &e)
    {
        const char *p = line.data();
        const char *const end = p + line.size();
        auto field = [&](std::string_view piece, auto &value) {
            if (static_cast<size_t>(end - p) < piece.size() ||
                std::string_view(p, piece.size()) != piece)
                return false;
            p += piece.size();
            auto res = std::from_chars(p, end, value);
            p = res.ptr;
            return res.ec == std::errc();
        };
        return field(errLayout[0], e.coord[0]) &&
            field(errLayout[1], e.coord[1]) &&
            field(errLayout[2], e.coord[2]) &&
            field(errLayout[3], e.read) &&
            field(errLayout[4], e.expected) && p == end;
    }

    /** A diagnostic: `what` followed by the line. */
    BeamLogParseError
    error(const char *what) const
    {
        return BeamLogParseError(strprintf(
            "%s%.*s", what, static_cast<int>(line_.size()),
            line_.data()));
    }

    /** @return the last value of `key` (a repeated key resolves
     * to its last occurrence). */
    std::string_view
    need(std::string_view key) const
    {
        if (!badToken_.empty())
            throw BeamLogParseError(strprintf(
                "malformed log token '%.*s' in line: %.*s",
                static_cast<int>(badToken_.size()),
                badToken_.data(), static_cast<int>(line_.size()),
                line_.data()));
        for (auto it = fields_.rbegin(); it != fields_.rend(); ++it)
            if (it->first == key)
                return it->second;
        throw BeamLogParseError(strprintf(
            "missing log field '%.*s' in line: %.*s",
            static_cast<int>(key.size()), key.data(),
            static_cast<int>(line_.size()), line_.data()));
    }

    /** `key` as a whole-token number that fits T. */
    template <class T>
    T
    number(std::string_view key) const
    {
        std::string_view s = need(key);
        T value{};
        const char *end = s.data() + s.size();
        auto res = std::from_chars(s.data(), end, value);
        if (res.ec != std::errc() || res.ptr != end)
            throw BeamLogParseError(strprintf(
                "bad %s '%.*s' in line: %.*s",
                std::is_integral_v<T> ? "integer" : "number",
                static_cast<int>(s.size()), s.data(),
                static_cast<int>(line_.size()), line_.data()));
        return value;
    }

    /** `key` as one of the N enumerators nameOf() names. */
    template <class E, size_t N>
    E
    named(const char *key, const char *(*nameOf)(E)) const
    {
        std::string_view s = need(key);
        for (size_t i = 0; i < N; ++i) {
            auto value = static_cast<E>(i);
            if (s == nameOf(value))
                return value;
        }
        throw BeamLogParseError(strprintf(
            "unknown %s '%.*s' in line: %.*s", key,
            static_cast<int>(s.size()), s.data(),
            static_cast<int>(line_.size()), line_.data()));
    }

    std::string_view line_;
    std::string_view keyword_;
    std::string_view badToken_;
    std::vector<std::pair<std::string_view, std::string_view>>
        fields_;
    RawRun current_;
    bool inRun_ = false;
};

/**
 * Read up to and including the #HEADER, which must be the first
 * non-empty line. `*bytes`, when given, advances past every line
 * consumed.
 */
HeaderFields
readHeader(std::istream &is, RecordParser &records, std::string &line,
           uint64_t *bytes = nullptr)
{
    while (std::getline(is, line)) {
        if (bytes)
            *bytes += line.size() + 1;
        if (line.empty())
            continue;
        // A record line first means the header is missing; any
        // other keyword (a #SHARD checkpoint, say) is named.
        std::string_view keyword = records.split(line);
        if (keyword == "#RUN" || keyword == "#DIMS" ||
            keyword == "#ERR" || keyword == "#END")
            break;
        if (keyword != "#HEADER")
            throw unknownKeyword(keyword);
        return records.header(false);
    }
    throw BeamLogParseError("beam log has no #HEADER");
}

/** @return true for a line that starts with the #RUN keyword. */
bool
isRunLine(std::string_view line)
{
    return line.substr(0, 4) == "#RUN" &&
        (line.size() == 4 || isSpace(line[4]));
}

} // anonymous namespace

void
BeamLogWriter::header(const std::string &device,
                      const std::string &workload,
                      const std::string &input, uint64_t seed,
                      uint64_t runs, double sensitive_area_au)
{
    writeHeader(*os_, device, workload, input, seed, runs,
                sensitive_area_au);
}

void
BeamLogWriter::append(std::span<const RawRun> runs)
{
    writeRecords(*os_, runs, appended_, sliceLines);
    appended_ += runs.size();
}

struct BeamLogReader::ParserState
{
    RecordParser records;
    std::string line;
};

BeamLogReader::BeamLogReader(std::istream &is)
    : is_(&is), state_(std::make_shared<ParserState>())
{
    HeaderFields header =
        readHeader(*is_, state_->records, state_->line);
    device_ = std::move(header.device);
    workload_ = std::move(header.workload);
    input_ = std::move(header.input);
    seed_ = header.seed;
    declaredRuns_ = header.runs;
    sensitiveAreaAu_ = header.sensitiveAreaAu;
}

std::optional<RawRun>
BeamLogReader::next()
{
    if (done_)
        return std::nullopt;
    RecordParser &records = state_->records;
    std::string &line = state_->line;
    while (std::getline(*is_, line)) {
        if (line.empty())
            continue;
        if (auto run = records.consume(line)) {
            ++read_;
            return run;
        }
    }
    if (records.inRun())
        throw BeamLogParseError(strprintf(
            "beam log truncated inside run %llu",
            static_cast<unsigned long long>(records.runIndex())));
    done_ = true;
    if (read_ != declaredRuns_)
        throw BeamLogParseError(strprintf(
            "beam log declares %llu runs but contains %llu",
            static_cast<unsigned long long>(declaredRuns_),
            static_cast<unsigned long long>(read_)));
    return std::nullopt;
}

BeamLogSource::BeamLogSource(std::istream &is, uint64_t batchRuns)
    : reader_(is),
      batchRuns_(batchRuns == 0
                 ? std::max<uint64_t>(reader_.declaredRuns(), 1)
                 : batchRuns)
{
    meta_.deviceName = reader_.device();
    meta_.workloadName = reader_.workload();
    meta_.inputLabel = reader_.input();
    meta_.sim.seed = reader_.seed();
    meta_.sim.faultyRuns = reader_.declaredRuns();
    meta_.sensitiveAreaAu = reader_.sensitiveAreaAu();
}

bool
BeamLogSource::next(RunBatch &batch)
{
    // The reservation trusts the header's run count only up to a
    // cap: a hostile count must fail as a count mismatch, not as
    // an allocation failure.
    constexpr uint64_t maxReserve = 4096;
    batch.firstIndex = nextIndex_;
    batch.runs.clear();
    batch.runs.reserve(std::min<uint64_t>(
        {batchRuns_, maxReserve,
         reader_.declaredRuns() -
             std::min<uint64_t>(nextIndex_,
                                reader_.declaredRuns())}));
    while (batch.runs.size() < batchRuns_) {
        auto run = reader_.next();
        if (!run)
            break;
        batch.runs.push_back(std::move(*run));
    }
    nextIndex_ += batch.runs.size();
    return !batch.runs.empty();
}

void
BeamLogSink::begin(const CampaignMeta &meta)
{
    writer_.header(meta.deviceName, meta.workloadName,
                   meta.inputLabel, meta.sim.seed,
                   meta.sim.faultyRuns, meta.sensitiveAreaAu);
}

void
BeamLogSink::observe(const RunBatch &batch)
{
    writer_.append(batch.runs);
}

void
BeamLogSink::end(const StatsSnapshot &)
{
}

void
writeBeamLog(const CampaignRaw &raw, std::ostream &os)
{
    detail::writeBeamLog(raw, os, sliceLines);
}

void
detail::writeBeamLog(const CampaignRaw &raw, std::ostream &os,
                     uint64_t slice_lines)
{
    if (slice_lines == 0)
        panic("writeBeamLog: slices need at least one line");
    writeHeader(os, raw.deviceName, raw.workloadName,
                raw.inputLabel, raw.sim.seed, raw.runs.size(),
                raw.sensitiveAreaAu);
    writeRecords(os, raw.runs, 0, slice_lines);
}

void
writeBeamLogFile(const CampaignRaw &raw, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for beam-log output",
              path.c_str());
    writeBeamLog(raw, out);
    out.flush();
    if (!out)
        fatal("write error on beam log '%s'", path.c_str());
}

namespace
{

/** Parse core of readBeamLog(): collect every run of a reader;
 * throws BeamLogParseError. */
CampaignRaw
collectBeamLog(std::istream &is)
{
    BeamLogReader reader(is);
    CampaignRaw raw;
    raw.deviceName = reader.device();
    raw.workloadName = reader.workload();
    raw.inputLabel = reader.input();
    raw.sim.seed = reader.seed();
    raw.sim.faultyRuns = reader.declaredRuns();
    raw.sensitiveAreaAu = reader.sensitiveAreaAu();
    while (auto run = reader.next())
        raw.runs.push_back(std::move(*run));
    return raw;
}

} // anonymous namespace

CampaignRaw
readBeamLog(std::istream &is)
{
    try {
        return collectBeamLog(is);
    } catch (const BeamLogParseError &e) {
        fatal("%s", e.what());
    }
}

CampaignRaw
readBeamLogFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open beam log '%s'", path.c_str());
    return readBeamLog(in);
}

std::optional<CampaignRaw>
tryReadBeamLog(std::istream &is, std::string *error)
{
    try {
        return collectBeamLog(is);
    } catch (const BeamLogParseError &e) {
        if (error)
            *error = e.what();
        return std::nullopt;
    }
}

std::optional<CampaignRaw>
tryReadBeamLogFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = strprintf("cannot open beam log '%s'",
                               path.c_str());
        return std::nullopt;
    }
    return tryReadBeamLog(in, error);
}

BeamLogPieces::BeamLogPieces(std::string path, uint64_t pieceBytes)
    : path_(std::move(path)),
      pieceBytes_(std::max<uint64_t>(pieceBytes, 1))
{
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path_, ec);
    if (!ec)
        pieces_.resize(std::max<uint64_t>(
            1, (size + pieceBytes_ - 1) / pieceBytes_));
}

void
BeamLogPieces::parse(size_t k)
{
    Piece &piece = pieces_[k];
    std::ifstream in(path_);
    if (!in)
        return;
    const uint64_t from = k * pieceBytes_;
    const uint64_t to = from + pieceBytes_;
    RecordParser records;
    std::string line;
    // Byte offset of the line in `line` once `pending`.
    uint64_t offset = 0;
    bool pending = false;
    try {
        if (k == 0) {
            HeaderFields header =
                readHeader(in, records, line, &offset);
            head_.deviceName = std::move(header.device);
            head_.workloadName = std::move(header.workload);
            head_.inputLabel = std::move(header.input);
            head_.sim.seed = header.seed;
            head_.sim.faultyRuns = header.runs;
            head_.sensitiveAreaAu = header.sensitiveAreaAu;
            pending = static_cast<bool>(std::getline(in, line));
        } else {
            // Skip to the first line that starts at or after `from`,
            // then to this piece's first #RUN line; none before `to`
            // leaves the piece empty.
            in.seekg(static_cast<std::streamoff>(from - 1));
            std::getline(in, line);
            offset = from + line.size();
            while (offset < to && std::getline(in, line)) {
                if (isRunLine(line)) {
                    pending = true;
                    break;
                }
                offset += line.size() + 1;
            }
        }
        // Fold records up to the next piece's first line: the
        // first #RUN line at or past `to`.
        for (; pending; pending = static_cast<bool>(
                            std::getline(in, line))) {
            if (offset >= to && isRunLine(line))
                break;
            if (!line.empty())
                if (auto run = records.consume(line))
                    piece.runs.push_back(std::move(*run));
            offset += line.size() + 1;
        }
        piece.ok = !records.inRun() && !in.bad();
    } catch (const BeamLogParseError &) {
        // The piece stays failed; join() reports it.
    }
}

std::optional<CampaignRaw>
BeamLogPieces::join()
{
    size_t runs = 0;
    for (const Piece &piece : pieces_) {
        if (!piece.ok)
            return std::nullopt;
        runs += piece.runs.size();
    }
    if (pieces_.empty() || runs != head_.sim.faultyRuns)
        return std::nullopt;
    CampaignRaw raw = std::move(head_);
    raw.runs.reserve(runs);
    for (Piece &piece : pieces_)
        for (RawRun &run : piece.runs)
            raw.runs.push_back(std::move(run));
    pieces_.clear();
    return raw;
}

CheckpointWriter::CheckpointWriter(const std::string &path,
                                   const CampaignRaw &raw,
                                   uint64_t keepBytes,
                                   uint64_t flushEvery)
    : path_(path), flushEvery_(std::max<uint64_t>(flushEvery, 1))
{
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (!ec && size > keepBytes)
        std::filesystem::resize_file(path, keepBytes, ec);
    if (ec && keepBytes > 0)
        fatal("cannot truncate checkpoint '%s' to %llu bytes",
              path.c_str(),
              static_cast<unsigned long long>(keepBytes));

    out_.open(path, std::ios::app);
    if (!out_)
        fatal("cannot open checkpoint '%s' for append",
              path.c_str());
    if (keepBytes == 0) {
        std::string header;
        appendIdentity(header, "#SHARD", raw.deviceName,
                       raw.workloadName, raw.inputLabel, raw.sim.seed,
                       raw.sim.faultyRuns);
        out_ << header << '\n' << std::flush;
    }
    if (!out_)
        fatal("write error on checkpoint '%s'", path.c_str());
}

void
CheckpointWriter::append(const RawRun &run)
{
    // Formatted outside the lock, into a buffer each worker thread
    // reuses across appends.
    thread_local std::string bytes;
    bytes.clear();
    appendRecordLines(bytes, run, run.index, 0, recordLines(run));
    // A planned corrupt-write fault tears the record in half —
    // exactly what a SIGKILL mid-append leaves behind — so the
    // torn-tail recovery path is testable deterministically.
    if (ChaosEngine *engine = chaos()) {
        if (engine->shouldCorruptWrite("checkpoint"))
            bytes.resize(bytes.size() / 2);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out_.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
        ++appended_;
        if (appended_ % flushEvery_ == 0)
            out_.flush();
        if (!out_)
            fatal("write error on checkpoint '%s'", path_.c_str());
    }
    // Pool workers live as long as the process: do not let one
    // huge record pin its size in every worker's buffer.
    if (bytes.capacity() > 64 * 1024)
        std::string().swap(bytes);
}

CheckpointRecovery
readCheckpointShards(const std::string &path,
                     const CampaignRaw &expect)
{
    CheckpointRecovery recovery;
    std::ifstream in(path);
    if (!in)
        return recovery;

    std::string line;
    RecordParser records;
    uint64_t offset = 0;
    bool have_header = false;
    bool torn = false;

    while (std::getline(in, line)) {
        // A line without its trailing newline is the torn tail of
        // the append a killed process did not finish; even a
        // well-formed record there is dropped, because appending
        // after unterminated bytes would merge two lines.
        if (in.eof()) {
            torn = true;
            break;
        }
        if (!line.empty()) {
            try {
                std::string_view keyword = records.split(line);
                if (keyword == "#SHARD") {
                    HeaderFields header = records.header(true);
                    if (header.device != expect.deviceName ||
                        header.workload != expect.workloadName ||
                        header.input != expect.inputLabel ||
                        header.seed != expect.sim.seed ||
                        header.runs != expect.sim.faultyRuns)
                        fatal("checkpoint '%s' belongs to a "
                              "different campaign (%s)",
                              path.c_str(), line.c_str());
                    have_header = true;
                } else if (!have_header) {
                    throw BeamLogParseError(strprintf(
                        "checkpoint has no #SHARD header: %s",
                        line.c_str()));
                } else if (auto run = records.record()) {
                    recovery.runs.push_back(std::move(*run));
                }
            } catch (const BeamLogParseError &e) {
                // Anything after a malformed line is suspect: stop
                // at the last complete record.
                warn("checkpoint '%s': %s", path.c_str(), e.what());
                torn = true;
                break;
            }
        }
        offset += line.size() + 1;
        if (have_header && !records.inRun())
            recovery.validBytes = offset;
    }

    if (!have_header) {
        recovery.runs.clear();
        recovery.validBytes = 0;
        return recovery;
    }
    recovery.found = true;
    if (torn || records.inRun()) {
        ++recovery.tornRecords;
        warn("checkpoint '%s': dropping torn trailing record "
             "(resuming from %llu complete run(s))",
             path.c_str(),
             static_cast<unsigned long long>(
                 recovery.runs.size()));
        StatsRegistry::global()
            .counter("resilience.checkpoint.torn_records")
            .inc();
    }
    return recovery;
}

} // namespace radcrit
