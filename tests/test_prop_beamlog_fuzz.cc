/**
 * @file
 * Hostile-input properties of the beam-log and #SHARD checkpoint
 * parsers. Mutants of a small serialized campaign (byte flips,
 * truncation, line splices, digits swapped for letters) must each
 * either parse to a campaign that round-trips through the writer,
 * or fail with a diagnostic: tryReadBeamLog() returns nullopt with
 * a non-empty message, and readCheckpointShards() stops at a line
 * boundary of the file. No mutant may exit or crash the process
 * (run the "parsers" label under tools/sanitize_check.sh address
 * to vet the raw string_view indexing as well).
 *
 * The same mutants, read in byte-range pieces (BeamLogPieces), must
 * be accepted or rejected exactly as the one-pass reader does, and
 * accepted ones must yield the same campaign.
 *
 * Shard mutations leave the #SHARD header line alone: a shard whose
 * well-formed header names another campaign is fatal by contract
 * (see readCheckpointShards()), and that is tested in test_resume.
 *
 * The reader parses #ERR lines in the writer's layout in place and
 * every other line through the general grammar, so each reader
 * (one pass, pieces, shard recovery) is also fed logs whose #ERR
 * lines are spelled differently but mean the same.
 *
 * A campaign-store entry is the same format behind four doors
 * (CampaignStore::load, loadStream, load(key, parsed) after a piece
 * read, load(key, parsed) after a whole read). Each mutant entry
 * must be a hit equal to what the one-pass reader makes of its
 * bytes, or a quarantine after which simulateOrLoad() re-simulates
 * the campaign to the same per-run CSV rows.
 *
 * Case count: RADCRIT_PROPTEST_CASES; a falsified property prints a
 * RADCRIT_PROPTEST_SEED for replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "campaign/series.hh"
#include "campaign/store.hh"
#include "check/prop.hh"
#include "common/logging.hh"
#include "exec/pool.hh"
#include "kernels/dgemm.hh"
#include "logs/beamlog.hh"

namespace radcrit
{
namespace
{

enum class MutationKind { FlipByte, SpliceLine, DigitToLetter };

/** One edit of a serialized file; positions are taken modulo its
 * size when applied. */
struct Mutation
{
    MutationKind kind = MutationKind::FlipByte;
    uint64_t a = 0;
    uint64_t b = 0;
    uint64_t c = 0;
};

std::ostream &
operator<<(std::ostream &os, const Mutation &m)
{
    static const char *names[] = {"flip", "splice", "digit"};
    return os << names[static_cast<int>(m.kind)] << "(" << m.a
              << "," << m.b << "," << m.c << ")";
}

check::Gen<Mutation>
mutationGen()
{
    check::Gen<Mutation> g;
    g.sample = [](Rng &rng) {
        Mutation m;
        m.kind = static_cast<MutationKind>(rng.uniformInt(3));
        m.a = rng.next64();
        m.b = rng.next64();
        m.c = rng.next64();
        return m;
    };
    return g;
}

/** Split into lines, each keeping its '\n'. */
std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        size_t end = eol == std::string::npos ? text.size() : eol + 1;
        out.push_back(text.substr(pos, end - pos));
        pos = end;
    }
    return out;
}

/**
 * Apply `m` to `text`, never touching its first `keep` bytes (the
 * #SHARD header of a checkpoint, 0 for a beam log).
 */
std::string
mutate(const std::string &text, const Mutation &m, size_t keep)
{
    std::string out = text;
    if (out.size() <= keep)
        return out;
    size_t span = out.size() - keep;
    switch (m.kind) {
      case MutationKind::FlipByte: {
        size_t pos = keep + m.a % span;
        out[pos] = static_cast<char>(
            static_cast<unsigned char>(out[pos]) ^ (1 + m.b % 255));
        break;
      }
      case MutationKind::SpliceLine: {
        // Copy, move or drop one line, the header line excepted.
        std::vector<std::string> ls = lines(out.substr(keep));
        size_t from = m.a % ls.size();
        size_t to = m.b % (ls.size() + 1);
        std::string line = ls[from];
        switch (m.c % 3) {
          case 0:
            ls.insert(ls.begin() + static_cast<ptrdiff_t>(to), line);
            break;
          case 1:
            ls.erase(ls.begin() + static_cast<ptrdiff_t>(from));
            to = std::min(to, ls.size());
            ls.insert(ls.begin() + static_cast<ptrdiff_t>(to), line);
            break;
          default:
            ls.erase(ls.begin() + static_cast<ptrdiff_t>(from));
            break;
        }
        out.resize(keep);
        for (const std::string &l : ls)
            out += l;
        break;
      }
      case MutationKind::DigitToLetter: {
        size_t start = keep + m.a % span;
        for (size_t i = 0; i < span; ++i) {
            size_t pos = keep + (start - keep + i) % span;
            if (std::isdigit(static_cast<unsigned char>(out[pos]))) {
                out[pos] = static_cast<char>('a' + m.b % 26);
                break;
            }
        }
        break;
      }
    }
    return out;
}

/**
 * The small campaign every mutant is derived from: eight DGEMM
 * runs, each SDC record cut to its first three elements so the log
 * stays a few kilobytes.
 */
const CampaignRaw &
baseCampaign()
{
    static const CampaignRaw raw = [] {
        DeviceModel device = makeK40();
        Dgemm dgemm(device, 64, 42);
        SimConfig cfg;
        cfg.faultyRuns = 8;
        cfg.seed = 11;
        CampaignRaw campaign = simulateCampaign(device, dgemm, cfg);
        for (RawRun &run : campaign.runs) {
            auto &elements = run.record.elements;
            elements.resize(std::min<size_t>(elements.size(), 3));
        }
        return campaign;
    }();
    return raw;
}

std::string
baseLog()
{
    std::stringstream ss;
    writeBeamLog(baseCampaign(), ss);
    return ss.str();
}

/** The ways an #ERR line may be spelled that mean the same. */
enum class Spelling
{
    Reordered,
    RepeatedKey,
    Tabs,
    DoubleSpaces,
    ExtraField,
    CarriageReturn,
};

constexpr Spelling spellings[] = {
    Spelling::Reordered,   Spelling::RepeatedKey,
    Spelling::Tabs,        Spelling::DoubleSpaces,
    Spelling::ExtraField,  Spelling::CarriageReturn,
};

/** `text` with every #ERR line spelled `how`. */
std::string
respell(const std::string &text, Spelling how)
{
    std::string out;
    for (std::string line : lines(text)) {
        if (line.rfind("#ERR ", 0) != 0) {
            out += line;
            continue;
        }
        line.pop_back();
        std::vector<std::string> fields;
        std::stringstream in(line.substr(5));
        for (std::string f; in >> f;)
            fields.push_back(f);
        switch (how) {
          case Spelling::Reordered:
            std::reverse(fields.begin(), fields.end());
            break;
          case Spelling::RepeatedKey:
            fields.insert(fields.begin(), "read=-7");
            fields.insert(fields.begin(), "x=12345");
            break;
          case Spelling::ExtraField:
            fields.push_back("note=extra");
            break;
          default:
            break;
        }
        std::string sep = how == Spelling::Tabs ? "\t"
            : how == Spelling::DoubleSpaces     ? "  "
                                                : " ";
        out += "#ERR";
        for (const std::string &f : fields)
            out += sep + f;
        out += how == Spelling::CarriageReturn ? "\r\n" : "\n";
    }
    return out;
}

/**
 * A beam-log mutant is safe when it either fails with a
 * diagnostic, or parses to a campaign whose serialization parses
 * back to the same serialization.
 */
::testing::AssertionResult
beamLogMutantIsSafe(const std::string &mutant)
{
    std::stringstream in(mutant);
    std::string error;
    std::optional<CampaignRaw> raw = tryReadBeamLog(in, &error);
    if (!raw) {
        if (error.empty())
            return ::testing::AssertionFailure()
                << "rejected without a diagnostic";
        return ::testing::AssertionSuccess();
    }
    std::stringstream once;
    writeBeamLog(*raw, once);
    std::stringstream again_in(once.str());
    std::optional<CampaignRaw> again =
        tryReadBeamLog(again_in, &error);
    if (!again)
        return ::testing::AssertionFailure()
            << "accepted mutant does not re-parse: " << error;
    std::stringstream twice;
    writeBeamLog(*again, twice);
    if (twice.str() != once.str())
        return ::testing::AssertionFailure()
            << "accepted mutant is not a round-trip fixed point";
    return ::testing::AssertionSuccess();
}

TEST(BeamLogFuzz, EveryStrictPrefixIsRejected)
{
    // Dropping only the final newline loses nothing; any shorter
    // prefix misses bytes of some record and must be refused.
    const std::string text = baseLog();
    ASSERT_GT(baseCampaign().count(Outcome::Sdc), 0u);
    ASSERT_LT(baseCampaign().count(Outcome::Sdc), 8u);
    for (size_t len = 0; len + 1 < text.size(); ++len) {
        std::stringstream in(text.substr(0, len));
        std::string error;
        EXPECT_FALSE(tryReadBeamLog(in, &error).has_value())
            << "prefix of " << len << " bytes accepted";
        EXPECT_FALSE(error.empty()) << len;
    }
    std::stringstream in(text.substr(0, text.size() - 1));
    EXPECT_TRUE(tryReadBeamLog(in).has_value());
}

TEST(BeamLogFuzz, LetterInANumericFieldIsRejected)
{
    // Every digit of every numeric value, swapped for a letter:
    // never silently parsed as some other number ('e' is left out,
    // since 1e5 is one). Digits inside the text fields (device,
    // workload, input) may change freely.
    const std::string text = baseLog();
    size_t tested = 0;
    for (size_t pos = 0; pos < text.size(); ++pos) {
        if (!std::isdigit(static_cast<unsigned char>(text[pos])))
            continue;
        size_t token = text.find_last_of(" \n", pos) + 1;
        std::string key = text.substr(
            token, text.find('=', token) - token);
        if (key == "device" || key == "workload" || key == "input")
            continue;
        for (char letter : {'a', 'x', 'z'}) {
            std::string mutant = text;
            mutant[pos] = letter;
            std::stringstream in(mutant);
            std::string error;
            EXPECT_FALSE(tryReadBeamLog(in, &error).has_value())
                << "'" << letter << "' at byte " << pos
                << " accepted";
            EXPECT_FALSE(error.empty());
        }
        ++tested;
    }
    EXPECT_GT(tested, 100u);
}

TEST(BeamLogFuzz, ErrSpellingsParseToTheSameCampaign)
{
    const std::string text = baseLog();
    ASSERT_NE(text.find("#ERR "), std::string::npos);
    for (Spelling how : spellings) {
        std::string spelled = respell(text, how);
        ASSERT_NE(spelled, text);
        std::stringstream in(spelled);
        std::string error;
        std::optional<CampaignRaw> raw = tryReadBeamLog(in, &error);
        ASSERT_TRUE(raw.has_value()) << error;
        std::stringstream out;
        writeBeamLog(*raw, out);
        EXPECT_EQ(out.str(), text) << static_cast<int>(how);
    }
}

TEST(BeamLogFuzz, MutantsRoundTripOrFailWithADiagnostic)
{
    const std::string text = baseLog();
    check::PropResult r = check::forAll<std::vector<Mutation>>(
        "beam-log mutants round-trip or fail with a diagnostic",
        check::gen::vectorOf(mutationGen(), 1, 3),
        std::function<bool(const std::vector<Mutation> &)>(
            [&](const std::vector<Mutation> &ms) {
                std::string mutant = text;
                for (const Mutation &m : ms)
                    mutant = mutate(mutant, m, 0);
                return static_cast<bool>(beamLogMutantIsSafe(mutant));
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

/** Temp file holding the bytes a piece-read test parses. */
class PiecesTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "radcrit_pieces_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            ".beamlog";
    }

    void TearDown() override { std::filesystem::remove(path_); }

    /**
     * Read `bytes` in pieces of `pieceBytes` (parsed last piece
     * first, so no piece relies on its predecessor having run) and
     * with the one-pass reader: both must reject, or both accept
     * the same campaign.
     */
    ::testing::AssertionResult
    piecesMatchOnePass(const std::string &bytes, uint64_t pieceBytes)
    {
        std::ofstream(path_, std::ios::trunc | std::ios::binary)
            << bytes;
        BeamLogPieces pieces(path_, pieceBytes);
        for (size_t k = pieces.count(); k-- > 0;)
            pieces.parse(k);
        std::optional<CampaignRaw> joined = pieces.join();
        std::optional<CampaignRaw> whole = tryReadBeamLogFile(path_);
        if (joined.has_value() != whole.has_value())
            return ::testing::AssertionFailure()
                << "pieces of " << pieceBytes << " bytes "
                << (joined ? "accept" : "reject")
                << " what the one-pass reader "
                << (whole ? "accepts" : "rejects");
        if (!whole)
            return ::testing::AssertionSuccess();
        std::stringstream a;
        std::stringstream b;
        writeBeamLog(*joined, a);
        writeBeamLog(*whole, b);
        if (a.str() != b.str() ||
            joined->sim.faultyRuns != whole->sim.faultyRuns)
            return ::testing::AssertionFailure()
                << "pieces of " << pieceBytes
                << " bytes yield another campaign";
        return ::testing::AssertionSuccess();
    }

    std::string path_;
};

TEST_F(PiecesTest, EveryPieceSizeMatchesTheOnePassReader)
{
    const std::string text = baseLog();
    for (uint64_t size = 1; size <= text.size() + 1; ++size)
        ASSERT_TRUE(piecesMatchOnePass(text, size)) << size;
}

TEST_F(PiecesTest, ErrSpellingsMatchTheOnePassReader)
{
    // Respelled #ERR lines, CRLF line ends throughout, and a last
    // line without its '\n', at every piece size.
    const std::string text = baseLog();
    std::vector<std::string> inputs;
    for (Spelling how : spellings)
        inputs.push_back(respell(text, how));
    std::string crlf;
    for (char c : text)
        crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
    inputs.push_back(crlf);
    inputs.push_back(text.substr(0, text.size() - 1));
    for (const std::string &input : inputs)
        for (uint64_t size = 1; size <= input.size() + 1;
             size += 1 + size / 8)
            ASSERT_TRUE(piecesMatchOnePass(input, size)) << size;
}

TEST_F(PiecesTest, RunLeftOpenAtAPieceBoundaryIsRejected)
{
    // One run loses its #END and a copy of the last run keeps the
    // count right: the one-pass reader sees a nested #RUN, so every
    // cut, including one right after the open run, must reject too.
    const std::string text = baseLog();
    size_t end = text.find("#END idx=3\n");
    ASSERT_NE(end, std::string::npos);
    size_t last = text.rfind("#RUN ");
    std::string mutant = text.substr(0, end) +
        text.substr(end + 11) + text.substr(last);
    for (uint64_t size = 1; size <= mutant.size() + 1; ++size)
        ASSERT_TRUE(piecesMatchOnePass(mutant, size)) << size;
}

TEST_F(PiecesTest, PiecesParseConcurrently)
{
    const std::string text = baseLog();
    std::ofstream(path_, std::ios::binary) << text;
    BeamLogPieces pieces(path_, 64);
    ASSERT_GT(pieces.count(), 8u);
    WorkerPool pool(4);
    pool.forDynamic(pieces.count(), 1,
                    [&](unsigned, uint64_t begin, uint64_t end) {
                        for (uint64_t k = begin; k < end; ++k)
                            pieces.parse(k);
                    });
    std::optional<CampaignRaw> joined = pieces.join();
    ASSERT_TRUE(joined.has_value());
    std::stringstream out;
    writeBeamLog(*joined, out);
    EXPECT_EQ(out.str(), text);
}

TEST_F(PiecesTest, MissingFileHasNoPieces)
{
    BeamLogPieces pieces(path_ + ".absent", 64);
    EXPECT_EQ(pieces.count(), 0u);
    EXPECT_FALSE(pieces.join().has_value());
}

TEST_F(PiecesTest, MutantsMatchTheOnePassReader)
{
    const std::string text = baseLog();
    check::PropResult r = check::forAll<std::vector<Mutation>>(
        "beam-log mutants read in pieces match the one-pass reader",
        check::gen::vectorOf(mutationGen(), 1, 3),
        std::function<bool(const std::vector<Mutation> &)>(
            [&](const std::vector<Mutation> &ms) {
                std::string mutant = text;
                for (const Mutation &m : ms)
                    mutant = mutate(mutant, m, 0);
                // Piece sizes from one byte to about a record.
                uint64_t piece = 1 + (ms.front().c >> 8) % 400;
                return static_cast<bool>(
                    piecesMatchOnePass(mutant, piece));
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

class ShardFuzzTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "radcrit_shard_fuzz_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            ".shard";
        {
            CheckpointWriter writer(path_, baseCampaign());
            for (const RawRun &run : baseCampaign().runs)
                writer.append(run);
        }
        std::ifstream in(path_);
        text_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
        headerBytes_ = text_.find('\n') + 1;
        // Every malformed mutant warns; keep the output readable.
        level_ = logLevel();
        setLogLevel(LogLevel::Error);
    }

    void
    TearDown() override
    {
        setLogLevel(level_);
        std::filesystem::remove(path_);
    }

    CheckpointRecovery
    recover(const std::string &bytes)
    {
        std::ofstream(path_, std::ios::trunc | std::ios::binary)
            << bytes;
        return readCheckpointShards(path_, baseCampaign());
    }

    /**
     * The recovery of `bytes` stops at a line boundary, and the
     * prefix it kept recovers the same runs with nothing torn.
     */
    ::testing::AssertionResult
    stopsAtAValidOffset(const std::string &bytes)
    {
        CheckpointRecovery rec = recover(bytes);
        if (rec.validBytes > bytes.size())
            return ::testing::AssertionFailure()
                << "validBytes " << rec.validBytes << " past end "
                << bytes.size();
        if (rec.validBytes > 0 && bytes[rec.validBytes - 1] != '\n')
            return ::testing::AssertionFailure()
                << "validBytes " << rec.validBytes
                << " is not a line boundary";
        if (!rec.found)
            return ::testing::AssertionSuccess();
        CheckpointRecovery kept =
            recover(bytes.substr(0, rec.validBytes));
        if (kept.runs.size() != rec.runs.size() ||
            kept.tornRecords != 0)
            return ::testing::AssertionFailure()
                << "the kept prefix recovers " << kept.runs.size()
                << " run(s), " << kept.tornRecords
                << " torn; the mutant recovered "
                << rec.runs.size();
        return ::testing::AssertionSuccess();
    }

    std::string path_;
    std::string text_;
    size_t headerBytes_ = 0;
    LogLevel level_ = LogLevel::Info;
};

TEST_F(ShardFuzzTest, TruncationAtEveryLineKeepsCompleteRecords)
{
    // Cut at every line start and in the middle of every line:
    // exactly the records whose #END line survived whole are
    // recovered, each equal to what was appended.
    std::vector<size_t> cuts;
    for (size_t pos = 0; pos < text_.size();) {
        size_t eol = text_.find('\n', pos);
        cuts.push_back(pos);
        cuts.push_back(pos + (eol - pos) / 2);
        pos = eol + 1;
    }
    cuts.push_back(text_.size());
    for (size_t cut : cuts) {
        std::string prefix = text_.substr(0, cut);
        EXPECT_TRUE(stopsAtAValidOffset(prefix)) << "cut " << cut;
        CheckpointRecovery rec = recover(prefix);
        size_t complete = 0;
        for (size_t at = prefix.find("#END "); at != std::string::npos;
             at = prefix.find("#END ", at + 1)) {
            if (prefix.find('\n', at) != std::string::npos)
                ++complete;
        }
        ASSERT_EQ(rec.runs.size(), complete) << "cut " << cut;
        for (size_t i = 0; i < complete; ++i) {
            const RawRun &want = baseCampaign().runs[i];
            EXPECT_EQ(rec.runs[i].index, want.index);
            EXPECT_EQ(rec.runs[i].outcome, want.outcome);
            EXPECT_EQ(rec.runs[i].record.numIncorrect(),
                      want.record.numIncorrect());
        }
        EXPECT_EQ(rec.found, cut >= headerBytes_) << "cut " << cut;
    }
}

TEST_F(ShardFuzzTest, ErrSpellingsRecoverTheSameRuns)
{
    // Shard recovery shares the record parser: a shard whose #ERR
    // lines are respelled recovers the runs the one-pass reader
    // reads from the same records.
    for (Spelling how : spellings) {
        CheckpointRecovery rec = recover(respell(text_, how));
        ASSERT_TRUE(rec.found);
        EXPECT_EQ(rec.tornRecords, 0u);
        CampaignRaw got = baseCampaign();
        got.runs = rec.runs;
        std::stringstream a;
        std::stringstream b;
        writeBeamLog(got, a);
        writeBeamLog(baseCampaign(), b);
        EXPECT_EQ(a.str(), b.str()) << static_cast<int>(how);
    }
}

TEST_F(ShardFuzzTest, MutantsStopAtAValidOffset)
{
    check::PropResult r = check::forAll<std::vector<Mutation>>(
        "shard mutants stop at a line boundary",
        check::gen::vectorOf(mutationGen(), 1, 3),
        std::function<bool(const std::vector<Mutation> &)>(
            [&](const std::vector<Mutation> &ms) {
                std::string mutant = text_;
                for (const Mutation &m : ms)
                    mutant = mutate(mutant, m, headerBytes_);
                return static_cast<bool>(
                    stopsAtAValidOffset(mutant));
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

/**
 * A fresh DGEMM campaign saved as a store entry. Its SDC records
 * are whole (a re-simulation must reproduce them), and the mutants
 * of its bytes are loaded through every door of the store.
 */
class StoreEntryFuzzTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "radcrit_store_fuzz_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name();
        std::filesystem::remove_all(dir_);
        cfg_.faultyRuns = 6;
        cfg_.seed = 5;
        CampaignStore store(dir_);
        CampaignRaw raw = simulateOrLoad(device_, dgemm_, cfg_, &store);
        launch_ = raw.launch;
        rows_ = runRows(analyzeCampaign(raw, AnalysisConfig{}));
        key_ = campaignKey(raw);
        path_ = store.pathFor(key_);
        std::ifstream in(path_);
        text_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
        level_ = logLevel();
        setLogLevel(LogLevel::Error);
    }

    void
    TearDown() override
    {
        setLogLevel(level_);
        std::filesystem::remove_all(dir_);
    }

    /** The store doors a mutant entry is loaded through. */
    enum class Door { Load, LoadStream, Pieces, Parsed };

    /** Load the entry holding `bytes` through `door`. */
    std::optional<CampaignRaw>
    loadThrough(Door door, CampaignStore &store,
                const std::string &bytes)
    {
        std::ofstream(path_, std::ios::trunc | std::ios::binary)
            << bytes;
        switch (door) {
          case Door::Load:
            return store.load(key_);
          case Door::LoadStream: {
            // The bounded-memory path: validate, then stream.
            store.setSinglePassCap(0);
            CollectRawSink sink;
            if (!store.loadStream(key_, launch_, sink, 2))
                return std::nullopt;
            return sink.take();
          }
          case Door::Pieces: {
            BeamLogPieces pieces(path_, 1 + bytes.size() / 5);
            for (size_t k = 0; k < pieces.count(); ++k)
                pieces.parse(k);
            return store.load(key_, pieces.join());
          }
          case Door::Parsed:
            return store.load(key_, tryReadBeamLogFile(path_));
        }
        return std::nullopt;
    }

    /**
     * Through every door, `bytes` are a hit equal to the one-pass
     * reader's campaign when that campaign matches the key, and
     * otherwise a quarantine that simulateOrLoad() mends.
     */
    ::testing::AssertionResult
    everyDoorAgrees(const std::string &bytes)
    {
        std::stringstream in(bytes);
        std::optional<CampaignRaw> want = tryReadBeamLog(in);
        bool hit = want && want->deviceName == key_.device &&
            want->workloadName == key_.workload &&
            want->inputLabel == key_.input &&
            want->sim.seed == key_.sim.seed &&
            want->runs.size() == key_.sim.faultyRuns;
        std::string wantLog;
        if (hit)
            wantLog = serialized(*want);
        for (Door door : {Door::Load, Door::LoadStream, Door::Pieces,
                          Door::Parsed}) {
            int d = static_cast<int>(door);
            CampaignStore store(dir_);
            std::optional<CampaignRaw> got =
                loadThrough(door, store, bytes);
            if (got.has_value() != hit)
                return ::testing::AssertionFailure()
                    << "door " << d << (hit ? " misses" : " hits")
                    << " an entry the reader "
                    << (hit ? "accepts" : "rejects");
            if (hit) {
                if (serialized(*got) != wantLog)
                    return ::testing::AssertionFailure()
                        << "door " << d << " hits another campaign";
                continue;
            }
            if (store.quarantined() != 1 ||
                !std::filesystem::exists(path_ + ".quarantined"))
                return ::testing::AssertionFailure()
                    << "door " << d << " did not quarantine";
            std::filesystem::remove(path_ + ".quarantined");
            CampaignRaw again =
                simulateOrLoad(device_, dgemm_, cfg_, &store);
            if (runRows(analyzeCampaign(again, AnalysisConfig{})) !=
                    rows_ ||
                !std::filesystem::exists(path_))
                return ::testing::AssertionFailure()
                    << "door " << d
                    << " re-simulation differs from the original";
        }
        return ::testing::AssertionSuccess();
    }

    static std::string
    serialized(const CampaignRaw &raw)
    {
        std::stringstream out;
        writeBeamLog(raw, out);
        return out.str();
    }

    DeviceModel device_ = makeK40();
    Dgemm dgemm_{device_, 64, 42};
    SimConfig cfg_;
    KernelLaunch launch_;
    CampaignKey key_;
    std::string dir_;
    std::string path_;
    std::string text_;
    std::vector<std::vector<std::string>> rows_;
    LogLevel level_ = LogLevel::Info;
};

TEST_F(StoreEntryFuzzTest, EntryAndItsRespellingsHit)
{
    ASSERT_NE(text_.find("#ERR "), std::string::npos);
    EXPECT_TRUE(everyDoorAgrees(text_));
    for (Spelling how : spellings)
        EXPECT_TRUE(everyDoorAgrees(respell(text_, how)))
            << static_cast<int>(how);
}

TEST_F(StoreEntryFuzzTest, MutantsHitOrQuarantineAndResimulate)
{
    check::PropResult r = check::forAll<std::vector<Mutation>>(
        "store-entry mutants hit or quarantine through every door",
        check::gen::vectorOf(mutationGen(), 1, 3),
        std::function<bool(const std::vector<Mutation> &)>(
            [&](const std::vector<Mutation> &ms) {
                std::string mutant = text_;
                for (const Mutation &m : ms)
                    mutant = mutate(mutant, m, 0);
                return static_cast<bool>(everyDoorAgrees(mutant));
            }));
    EXPECT_TRUE(r.ok) << r.message;
}

} // anonymous namespace
} // namespace radcrit
