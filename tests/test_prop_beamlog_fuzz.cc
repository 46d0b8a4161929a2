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

} // anonymous namespace
} // namespace radcrit
