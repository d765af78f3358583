//===- tests/analysis/SummaryIOFuzzTest.cpp - Sidecar parser fuzzing ------===//
//
// Part of the wiresort project. SummaryIOTest covers the happy path and
// hand-written rejections; this suite drives parseSummaries through
// seeded random mutations of valid sidecars — truncations, dropped and
// duplicated lines, token corruption, byte noise — and demands a total
// parser: every input either yields summaries or a diagnostic, never a
// crash, and whatever parses must serialize back to a fixpoint. Every
// `.wsort` consumer (--check, --convert-summaries) trusts this parser,
// so a crash here is a crash on any damaged or hand-edited sidecar.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryIO.h"

#include "analysis/SortInference.h"
#include "gen/Fifo.h"
#include "gen/Random.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

/// A small design with interesting summaries (coupled, sync, subsorted
/// ports) plus a random module, and its valid serialization.
struct Corpus {
  Design D;
  Summaries Original;
  std::string Text;
};

Corpus makeCorpus(uint32_t Seed) {
  Corpus C;
  C.D.addModule(gen::makeFifo({8, 2, /*Forwarding=*/true}));
  std::mt19937 Rng(Seed);
  gen::RandomModuleParams P;
  P.NInputs = 3 + Seed % 4;
  P.NOutputs = 2 + Seed % 3;
  P.NGates = 12 + Seed % 16;
  C.D.addModule(gen::randomModule(Rng, P, "fuzz"));
  EXPECT_FALSE(analyzeDesign(C.D, C.Original).hasError());
  C.Text = writeSummaries(C.D, C.Original);
  return C;
}

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    Lines.push_back(L);
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

/// One of several structured mutations of \p Text, chosen by \p Rng.
std::string mutate(const std::string &Text, std::mt19937 &Rng) {
  std::vector<std::string> Lines = splitLines(Text);
  auto lineIndex = [&] {
    return std::uniform_int_distribution<size_t>(0, Lines.size() - 1)(Rng);
  };
  switch (Rng() % 6) {
  case 0: // Truncate mid-file (possibly mid-block).
    return Text.substr(
        0, std::uniform_int_distribution<size_t>(0, Text.size())(Rng));
  case 1: // Drop a line.
    Lines.erase(Lines.begin() + lineIndex());
    return joinLines(Lines);
  case 2: // Duplicate a line.
    Lines.insert(Lines.begin() + lineIndex(), Lines[lineIndex()]);
    return joinLines(Lines);
  case 3: { // Corrupt one byte of a line.
    std::string &L = Lines[lineIndex()];
    if (!L.empty())
      L[Rng() % L.size()] =
          static_cast<char>(' ' + Rng() % 95); // Printable noise.
    return joinLines(Lines);
  }
  case 4: { // Swap two lines (can move `end`/`module` boundaries).
    size_t A = lineIndex(), B = lineIndex();
    std::swap(Lines[A], Lines[B]);
    return joinLines(Lines);
  }
  default: { // Splice random garbage tokens into a line.
    static const char *Garbage[] = {"to-port", "from-sync", "{", "}",
                                    "module", "end", "direct", "%%%"};
    std::string &L = Lines[lineIndex()];
    L += ' ';
    L += Garbage[Rng() % (sizeof(Garbage) / sizeof(Garbage[0]))];
    return joinLines(Lines);
  }
  }
}

class SidecarFuzzTrial : public ::testing::TestWithParam<uint32_t> {};

} // namespace

TEST_P(SidecarFuzzTrial, MutatedSidecarsParseOrDiagnoseButNeverCrash) {
  const uint32_t Seed = GetParam();
  Corpus C = makeCorpus(Seed);
  std::mt19937 Rng(0xf00d + Seed);

  for (int Round = 0; Round != 40; ++Round) {
    std::string Mutant = mutate(C.Text, Rng);
    // Pile a second mutation on half the time.
    if (Rng() % 2)
      Mutant = mutate(Mutant, Rng);

    auto Parsed = parseSummaries(Mutant, C.D);
    if (!Parsed.hasValue()) {
      EXPECT_TRUE(Parsed.diags().hasError())
          << "rejection without a diagnostic (seed " << Seed << " round "
          << Round << "):\n"
          << Mutant;
      continue;
    }
    // Accepted mutants must be internally consistent: re-serializing and
    // re-parsing is a fixpoint.
    std::string Text2 = writeSummaries(C.D, *Parsed);
    auto Reparsed = parseSummaries(Text2, C.D);
    ASSERT_TRUE(Reparsed.hasValue())
        << "accepted mutant failed to round-trip (seed " << Seed
        << " round " << Round << "): " << Reparsed.describe() << "\n"
        << Mutant;
    EXPECT_EQ(writeSummaries(C.D, *Reparsed), Text2)
        << "seed " << Seed << " round " << Round;
  }
}

INSTANTIATE_TEST_SUITE_P(MutationSoak, SidecarFuzzTrial,
                         ::testing::Range<uint32_t>(0, 25));

TEST(SummaryIOFuzzTest, RandomSummariesRoundTripExactly) {
  // Unlike SummaryIOTest's equivalence check, demand byte-for-byte
  // serialization stability: write -> parse -> write is the identity on
  // the text, across 40 random modules.
  std::mt19937 Rng(99);
  for (int Trial = 0; Trial != 40; ++Trial) {
    Design D;
    gen::RandomModuleParams P;
    P.NInputs = 2 + Trial % 6;
    P.NOutputs = 2 + Trial % 5;
    P.NGates = 8 + Trial;
    P.PReg = (Trial % 10) / 10.0;
    D.addModule(gen::randomModule(Rng, P, "x" + std::to_string(Trial)));
    Summaries Original;
    ASSERT_FALSE(analyzeDesign(D, Original).hasError());

    std::string Text = writeSummaries(D, Original);
    auto Parsed = parseSummaries(Text, D);
    ASSERT_TRUE(Parsed.hasValue()) << Parsed.describe() << "\n" << Text;
    EXPECT_EQ(writeSummaries(D, *Parsed), Text) << "trial " << Trial;
  }
}

// --- Binary format soak -----------------------------------------------------
//
// The same total-reader demand for the wire stream (docs/FORMATS.md):
// bit flips, truncations, and version skew must yield a clean WS221
// diagnostic — never a crash, and never a silently-wrong summary (the
// per-record checksum is what turns a flipped bit into a rejection).

namespace {

/// One of several structured mutations of the byte stream \p Bytes.
std::string mutateBinary(const std::string &Bytes, std::mt19937 &Rng) {
  std::string Out = Bytes;
  auto byteIndex = [&] {
    return std::uniform_int_distribution<size_t>(0, Out.size() - 1)(Rng);
  };
  switch (Rng() % 5) {
  case 0: // Truncate anywhere (mid-frame, mid-varint, mid-checksum).
    return Out.substr(
        0, std::uniform_int_distribution<size_t>(0, Out.size())(Rng));
  case 1: { // Flip one bit.
    size_t I = byteIndex();
    Out[I] = static_cast<char>(Out[I] ^ (1u << (Rng() % 8)));
    return Out;
  }
  case 2: // Replace one byte with noise.
    Out[byteIndex()] = static_cast<char>(Rng() % 256);
    return Out;
  case 3: // Container version skew: claim a future framing version.
    if (Out.size() > 4)
      Out[4] = static_cast<char>(1 + Rng() % 250);
    return Out;
  default: { // Splice a chunk of the stream over another spot.
    size_t Src = byteIndex(), Dst = byteIndex();
    size_t N = std::min<size_t>(1 + Rng() % 16,
                                Out.size() - std::max(Src, Dst));
    Out.replace(Dst, N, Bytes, Src, N);
    return Out;
  }
  }
}

} // namespace

class BinarySidecarFuzzTrial : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(BinarySidecarFuzzTrial, MutatedStreamsDecodeOrDiagnoseButNeverCrash) {
  const uint32_t Seed = GetParam();
  Corpus C = makeCorpus(Seed);
  const std::string Bytes = writeSummariesBinary(C.D, C.Original);
  std::mt19937 Rng(0xbead + Seed);

  for (int Round = 0; Round != 40; ++Round) {
    std::string Mutant = mutateBinary(Bytes, Rng);
    if (Rng() % 2)
      Mutant = mutateBinary(Mutant, Rng);

    // readSummariesAny so a flipped sniff byte exercises the text
    // parser's view of binary noise as well.
    auto Decoded = readSummariesAny(Mutant, C.D);
    if (!Decoded.hasValue()) {
      EXPECT_TRUE(Decoded.diags().hasError())
          << "rejection without a diagnostic (seed " << Seed << " round "
          << Round << ")";
      continue;
    }
    // Accepted mutants must decode to internally consistent summaries:
    // re-encoding and re-decoding is a fixpoint.
    std::string Bytes2 = writeSummariesBinary(C.D, *Decoded);
    auto Redecoded = readSummariesBinary(Bytes2, C.D);
    ASSERT_TRUE(Redecoded.hasValue())
        << "accepted mutant failed to round-trip (seed " << Seed
        << " round " << Round << "): " << Redecoded.describe();
    EXPECT_EQ(writeSummariesBinary(C.D, *Redecoded), Bytes2)
        << "seed " << Seed << " round " << Round;
    // And never silently-wrong: whatever decoded must match the
    // original summary for every module it claims to cover.
    for (const auto &[Id, S] : *Decoded) {
      auto It = C.Original.find(Id);
      ASSERT_NE(It, C.Original.end());
      EXPECT_TRUE(structurallyEqual(S, It->second))
          << "seed " << Seed << " round " << Round << " module " << Id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BinaryMutationSoak, BinarySidecarFuzzTrial,
                         ::testing::Range<uint32_t>(0, 25));

TEST(SummaryIOFuzzTest, BinaryRoundTripsExactlyAndMatchesText) {
  // Byte-stability of the binary encoder plus cross-format agreement:
  // the binary reader reconstructs exactly what the text parser reads.
  std::mt19937 Rng(77);
  for (int Trial = 0; Trial != 40; ++Trial) {
    Design D;
    gen::RandomModuleParams P;
    P.NInputs = 2 + Trial % 6;
    P.NOutputs = 2 + Trial % 5;
    P.NGates = 8 + Trial;
    P.PReg = (Trial % 10) / 10.0;
    D.addModule(gen::randomModule(Rng, P, "b" + std::to_string(Trial)));
    Summaries Original;
    ASSERT_FALSE(analyzeDesign(D, Original).hasError());

    std::string Bytes = writeSummariesBinary(D, Original);
    ASSERT_TRUE(isWireData(Bytes));
    auto Decoded = readSummariesBinary(Bytes, D);
    ASSERT_TRUE(Decoded.hasValue()) << Decoded.describe();
    EXPECT_EQ(writeSummariesBinary(D, *Decoded), Bytes) << "trial "
                                                        << Trial;
    // text -> binary -> text is the identity on the text.
    std::string Text = writeSummaries(D, Original);
    auto FromText = parseSummaries(Text, D);
    ASSERT_TRUE(FromText.hasValue());
    auto Back = readSummariesBinary(writeSummariesBinary(D, *FromText), D);
    ASSERT_TRUE(Back.hasValue()) << Back.describe();
    EXPECT_EQ(writeSummaries(D, *Back), Text) << "trial " << Trial;
  }
}

TEST(SummaryIOFuzzTest, TruncatedBinaryStreamsAreAlwaysRejected) {
  // Every proper prefix of a binary stream must be rejected (the text
  // format cannot promise this — a truncation at a block boundary is
  // valid text — but StreamEnd makes it airtight for the wire format).
  Design D;
  D.addModule(gen::makeFifo({8, 2, true}));
  Summaries Original;
  ASSERT_FALSE(analyzeDesign(D, Original).hasError());
  std::string Bytes = writeSummariesBinary(D, Original);
  for (size_t N = 0; N != Bytes.size(); ++N) {
    auto Decoded = readSummariesBinary(Bytes.substr(0, N), D);
    EXPECT_FALSE(Decoded.hasValue()) << "prefix of " << N << " bytes";
    EXPECT_TRUE(Decoded.diags().hasError()) << "prefix of " << N;
  }
}

TEST(SummaryIOFuzzTest, CommentLinesAreIgnoredByTheParser) {
  // Sidecars may carry `#` comment lines anywhere, including
  // `# key <name> <hex>` annotations; the parser must treat any comment
  // soup as whitespace.
  Design D;
  D.addModule(gen::makeFifo({8, 2, true}));
  Summaries Original;
  ASSERT_FALSE(analyzeDesign(D, Original).hasError());
  std::string Text = writeSummaries(D, Original);

  std::string Annotated = "# key fifo_fwd_w8_d4 deadbeefcafef00d\n"
                          "# not a key line at all\n#\n";
  std::vector<std::string> Lines = splitLines(Text);
  for (const std::string &L : Lines) {
    Annotated += L;
    Annotated += "\n# interleaved comment\n";
  }

  auto Parsed = parseSummaries(Annotated, D);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.describe();
  EXPECT_EQ(writeSummaries(D, *Parsed), Text);
}
