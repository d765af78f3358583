//===- tests/support/WireTest.cpp - Wire framing unit tests ---------------===//
//
// Part of the wiresort project. The wire format (support/Wire.h,
// docs/FORMATS.md) carries summary sidecars, the summary cache, and the
// daemon's request/response streams, so this suite pins the framing
// contract itself: varint edges, string interning under incremental
// flushing, raw blobs framed once into the stream, per-record checksum
// enforcement, truncation detection, and forward-compat skipping
// (retired record kinds included).
//
//===----------------------------------------------------------------------===//

#include "support/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

using namespace wiresort::support;
using namespace wiresort::support::wire;

namespace {

/// A fresh single-record stream around \p Fill, returned whole.
template <typename FillFn> std::string oneRecord(RecordKind K, FillFn Fill) {
  Writer W;
  W.beginStream(StreamKind::Summaries, 1);
  W.beginRecord(K);
  Fill(W);
  W.endRecord();
  W.finish();
  return W.take();
}

/// Start offset of every frame of the intact stream \p Bytes, the
/// StringTable records the reader consumes internally included.
std::vector<size_t> frameStarts(std::string_view Bytes) {
  std::vector<size_t> Starts;
  size_t Pos = sizeof(Magic) + 1;
  while (Pos != Bytes.size()) {
    Starts.push_back(Pos++);
    uint64_t Len = 0;
    for (unsigned Shift = 0;; Shift += 7) {
      uint8_t B = static_cast<uint8_t>(Bytes[Pos++]);
      Len |= uint64_t(B & 0x7f) << Shift;
      if (!(B & 0x80))
        break;
    }
    Pos += Len + 8;
  }
  return Starts;
}

/// Reads the header and skips the StreamBegin record, leaving \p R
/// positioned on the first payload record.
void skipPreamble(Reader &R) {
  ASSERT_TRUE(R.readHeader());
  Reader::Record Rec;
  ASSERT_EQ(R.next(Rec), Reader::Item::Record);
  ASSERT_EQ(Rec.Kind, RecordKind::StreamBegin);
}

} // namespace

TEST(WireTest, HeaderRoundTripsAndRejectsDamage) {
  Writer W;
  W.finish();
  std::string Bytes = W.take();
  ASSERT_GE(Bytes.size(), 5u);
  EXPECT_EQ(static_cast<unsigned char>(Bytes[0]), SniffByte);
  EXPECT_EQ(Bytes.compare(1, 3, "WSB"), 0);

  {
    Reader R(Bytes);
    EXPECT_TRUE(R.readHeader());
  }
  { // Too short.
    Reader R(std::string_view(Bytes).substr(0, 3));
    std::string Why;
    EXPECT_FALSE(R.readHeader(&Why));
    EXPECT_FALSE(Why.empty());
  }
  { // Wrong magic.
    std::string Bad = Bytes;
    Bad[1] = 'X';
    Reader R(Bad);
    std::string Why;
    EXPECT_FALSE(R.readHeader(&Why));
    EXPECT_NE(Why.find("magic"), std::string::npos);
  }
  { // Future container version.
    std::string Bad = Bytes;
    Bad[4] = static_cast<char>(FormatVersion + 1);
    Reader R(Bad);
    std::string Why;
    EXPECT_FALSE(R.readHeader(&Why));
    EXPECT_NE(Why.find("version"), std::string::npos);
  }
}

TEST(WireTest, VarintEdgeValuesRoundTrip) {
  const uint64_t Values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             0x7fffffffull,
                             0x80000000ull,
                             0xffffffffffffffffull,
                             0x8000000000000000ull};
  std::string Bytes = oneRecord(RecordKind::ModuleSummary, [&](Writer &W) {
    for (uint64_t V : Values)
      W.putVarint(V);
    W.putFixed64(0x0123456789abcdefull);
  });

  Reader R(Bytes);
  skipPreamble(R);
  Reader::Record Rec;
  ASSERT_EQ(R.next(Rec), Reader::Item::Record);
  Reader::Cursor C(Rec, R);
  for (uint64_t V : Values) {
    uint64_t Got = 0;
    ASSERT_TRUE(C.getVarint(Got));
    EXPECT_EQ(Got, V);
  }
  uint64_t F = 0;
  ASSERT_TRUE(C.getFixed64(F));
  EXPECT_EQ(F, 0x0123456789abcdefull);
  EXPECT_TRUE(C.atEnd());
  EXPECT_EQ(R.next(Rec), Reader::Item::End);
}

TEST(WireTest, StringsAreInternedOncePerStream) {
  Writer W;
  W.beginStream(StreamKind::Summaries, 1);
  for (int I = 0; I != 3; ++I) {
    W.beginRecord(RecordKind::ModuleSummary);
    W.putString("repeated_name");
    W.putString("other");
    W.endRecord();
  }
  std::string Bytes = W.take();
  // Then thousands of distinct names, both longer than std::string's
  // inline buffer and within it, passed as temporaries and drained a
  // record at a time: the writer's table rehashes while the names of
  // the open record wait for their StringTable flush.
  auto name = [](int Rec, int I) {
    return (I % 2 ? "s" : "a_name_past_the_inline_buffer_") +
           std::to_string(Rec * 1000 + I);
  };
  const int Records = 4, PerRecord = 1000;
  for (int Rec = 0; Rec != Records; ++Rec) {
    W.beginRecord(RecordKind::ModuleSummary);
    for (int I = 0; I != PerRecord; ++I)
      W.putString(name(Rec, I));
    W.putString("repeated_name");
    W.putString(name(0, 0));
    W.endRecord();
    Bytes += W.take();
  }
  W.finish();
  Bytes += W.take();

  // The same id comes back every time, and the stream carries each
  // distinct string exactly once.
  EXPECT_EQ(Bytes.find("repeated_name"), Bytes.rfind("repeated_name"));
  EXPECT_EQ(Bytes.find(name(0, 0)), Bytes.rfind(name(0, 0)));

  Reader R(Bytes);
  skipPreamble(R);
  Reader::Record Rec;
  for (int I = 0; I != 3; ++I) {
    ASSERT_EQ(R.next(Rec), Reader::Item::Record);
    Reader::Cursor C(Rec, R);
    std::string_view A, B;
    ASSERT_TRUE(C.getString(A));
    ASSERT_TRUE(C.getString(B));
    EXPECT_EQ(A, "repeated_name");
    EXPECT_EQ(B, "other");
  }
  for (int RecNo = 0; RecNo != Records; ++RecNo) {
    ASSERT_EQ(R.next(Rec), Reader::Item::Record) << "record " << RecNo;
    Reader::Cursor C(Rec, R);
    std::string_view S;
    for (int I = 0; I != PerRecord; ++I) {
      ASSERT_TRUE(C.getString(S));
      ASSERT_EQ(S, name(RecNo, I));
    }
    ASSERT_TRUE(C.getString(S));
    EXPECT_EQ(S, "repeated_name");
    ASSERT_TRUE(C.getString(S));
    EXPECT_EQ(S, name(0, 0));
    EXPECT_TRUE(C.atEnd());
  }
  EXPECT_EQ(R.next(Rec), Reader::Item::End);
}

TEST(WireTest, IncrementalTakeProducesOneValidStream) {
  // A writer drained record by record: the concatenation of the takes
  // must equal a stream built in one piece, string table flushes
  // landing before the records that use them.
  Writer W;
  W.beginStream(StreamKind::Summaries, 1);
  std::string Joined = W.take();
  for (int I = 0; I != 4; ++I) {
    W.beginRecord(RecordKind::ModuleSummary);
    W.putVarint(static_cast<uint64_t>(I));
    W.putString(I % 2 ? "odd" : "even");
    W.endRecord();
    Joined += W.take();
  }
  W.finish();
  Joined += W.take();

  Reader R(Joined);
  skipPreamble(R);
  Reader::Record Rec;
  for (int I = 0; I != 4; ++I) {
    ASSERT_EQ(R.next(Rec), Reader::Item::Record) << "record " << I;
    ASSERT_EQ(Rec.Kind, RecordKind::ModuleSummary);
    Reader::Cursor C(Rec, R);
    uint64_t Id = 0;
    std::string_view S;
    ASSERT_TRUE(C.getVarint(Id));
    ASSERT_TRUE(C.getString(S));
    EXPECT_EQ(Id, static_cast<uint64_t>(I));
    EXPECT_EQ(S, I % 2 ? "odd" : "even");
  }
  EXPECT_EQ(R.next(Rec), Reader::Item::End);
}

TEST(WireTest, EveryFlippedBitIsCaught) {
  std::string Bytes = oneRecord(RecordKind::ModuleSummary, [](Writer &W) {
    W.putVarint(42);
    W.putString("victim");
    W.putFixed64(7);
  });

  // Flip every bit of every byte past the 5-byte header: the reader
  // must never hand back an intact-looking record with wrong content —
  // each mutation yields Corrupt/Truncated/End-of-something, or decodes
  // to the original values (a flip confined to, e.g., the StreamEnd
  // count that still checksums is impossible; CRC covers everything).
  // A detected flip reports the offset of the frame holding the flipped
  // byte, which is what a quarantine warning shows the user.
  const std::vector<size_t> Starts = frameStarts(Bytes);
  for (size_t I = 5; I != Bytes.size(); ++I) {
    const size_t Holder =
        *std::prev(std::upper_bound(Starts.begin(), Starts.end(), I));
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::string Mutant = Bytes;
      Mutant[I] = static_cast<char>(Mutant[I] ^ (1u << Bit));
      Reader R(Mutant);
      if (!R.readHeader())
        continue;
      Reader::Record Rec;
      bool SawDamage = false;
      for (int Steps = 0; Steps != 8; ++Steps) {
        Reader::Item It = R.next(Rec);
        if (It == Reader::Item::End)
          break;
        if (It != Reader::Item::Record) {
          SawDamage = true;
          EXPECT_EQ(Rec.Offset, Holder) << "byte " << I << " bit " << Bit;
          break;
        }
      }
      // Either the damage was detected, or the stream still ended
      // cleanly — which the CRC makes astronomically unlikely for a
      // single-bit flip, and never silently alters a payload.
      if (!SawDamage) {
        Reader R2(Mutant);
        skipPreamble(R2);
        ASSERT_EQ(R2.next(Rec), Reader::Item::Record);
        Reader::Cursor C(Rec, R2);
        uint64_t V = 0, F = 0;
        std::string_view S;
        ASSERT_TRUE(C.getVarint(V) && C.getString(S) && C.getFixed64(F))
            << "byte " << I << " bit " << Bit;
        EXPECT_EQ(V, 42u);
        EXPECT_EQ(S, "victim");
        EXPECT_EQ(F, 7u);
      }
    }
  }
}

TEST(WireTest, TruncationIsDetectedAtEveryPrefix) {
  std::string Bytes = oneRecord(RecordKind::ModuleSummary, [](Writer &W) {
    W.putString("abc");
    W.putVarint(999);
  });
  for (size_t N = 5; N != Bytes.size(); ++N) {
    Reader R(std::string_view(Bytes).substr(0, N));
    ASSERT_TRUE(R.readHeader()) << N;
    Reader::Record Rec;
    Reader::Item Last = Reader::Item::Record;
    while (Last == Reader::Item::Record)
      Last = R.next(Rec);
    EXPECT_TRUE(Last == Reader::Item::Truncated ||
                Last == Reader::Item::Exhausted)
        << "prefix " << N << " ended with item "
        << static_cast<int>(Last);
  }
}

TEST(WireTest, UnknownRecordKindsAreReturnedIntactForSkipping) {
  // Forward compat: a reader meeting a record kind from the future — or
  // a retired one (4 was the standalone Diag, 7 the ShardModule) — must
  // be able to verify its frame and step over it.
  for (uint8_t Kind : {uint8_t(4), uint8_t(7), uint8_t(200)}) {
    Writer W;
    W.beginStream(StreamKind::Summaries, 1);
    W.beginRecord(static_cast<RecordKind>(Kind));
    W.putVarint(123);
    W.endRecord();
    W.beginRecord(RecordKind::ModuleSummary);
    W.putVarint(7);
    W.endRecord();
    W.finish();
    std::string Bytes = W.take();

    Reader R(Bytes);
    skipPreamble(R);
    Reader::Record Rec;
    ASSERT_EQ(R.next(Rec), Reader::Item::Record) << "kind " << +Kind;
    EXPECT_EQ(static_cast<uint8_t>(Rec.Kind), Kind);
    ASSERT_EQ(R.next(Rec), Reader::Item::Record) << "kind " << +Kind;
    EXPECT_EQ(Rec.Kind, RecordKind::ModuleSummary);
    Reader::Cursor C(Rec, R);
    uint64_t V = 0;
    ASSERT_TRUE(C.getVarint(V));
    EXPECT_EQ(V, 7u);
    EXPECT_EQ(R.next(Rec), Reader::Item::End) << "kind " << +Kind;
  }
}

TEST(WireTest, CursorFailsStickilyOnOverrun) {
  std::string Bytes = oneRecord(RecordKind::ModuleSummary, [](Writer &W) {
    W.putVarint(5);
  });
  Reader R(Bytes);
  skipPreamble(R);
  Reader::Record Rec;
  ASSERT_EQ(R.next(Rec), Reader::Item::Record);
  Reader::Cursor C(Rec, R);
  uint64_t V = 0;
  ASSERT_TRUE(C.getVarint(V));
  EXPECT_TRUE(C.atEnd());
  EXPECT_FALSE(C.getVarint(V)); // Past the end.
  EXPECT_TRUE(C.failed());
  EXPECT_FALSE(C.atEnd()); // Failed is not a clean end.
  uint8_t B = 0;
  EXPECT_FALSE(C.getByte(B)); // Sticky.
}

TEST(WireTest, OutOfRangeStringIdsFailTheCursor) {
  // A record referencing a string id never interned (a misordered or
  // hand-forged stream) must fail the cursor, not fabricate a string.
  Writer W;
  W.beginStream(StreamKind::Summaries, 1);
  W.beginRecord(RecordKind::ModuleSummary);
  W.putVarint(999); // Forged "string id" with no StringTable behind it.
  W.endRecord();
  W.finish();
  std::string Bytes = W.take();

  Reader R(Bytes);
  skipPreamble(R);
  Reader::Record Rec;
  ASSERT_EQ(R.next(Rec), Reader::Item::Record);
  Reader::Cursor C(Rec, R);
  std::string_view S;
  EXPECT_FALSE(C.getString(S));
  EXPECT_TRUE(C.failed());
}

/// Whether Writer::putBytes takes an argument of type \p Arg.
template <typename Arg>
concept PutBytesTakes = requires(Writer &W, Arg &&A) {
  W.putBytes(std::forward<Arg>(A));
};

// putBytes keeps a view until endRecord, so a temporary string, gone by
// then, must not compile; everything that outlives the call does.
static_assert(!PutBytesTakes<std::string>);
static_assert(!PutBytesTakes<const std::string>);
static_assert(PutBytesTakes<std::string &>);
static_assert(PutBytesTakes<const std::string &>);
static_assert(PutBytesTakes<std::string_view>);
static_assert(PutBytesTakes<const char (&)[3]>);
static_assert(PutBytesTakes<const char *>);

TEST(WireTest, BlobsBetweenInternedStringsRoundTrip) {
  // Two raw blobs, one with NUL bytes and one empty, between interned
  // strings: the record's new strings still go out in a StringTable
  // framed ahead of it, and every field reads back in order.
  const std::string Blob("blob\0with\0NULs", 14);
  std::string Bytes = oneRecord(RecordKind::ModuleSummary, [&](Writer &W) {
    W.putString("first");
    W.putBytes(Blob);
    W.putVarint(300);
    W.putString("second");
    W.putBytes("");
    W.putString("first");
  });

  const std::vector<size_t> Starts = frameStarts(Bytes);
  ASSERT_EQ(Starts.size(), 4u); // StreamBegin, StringTable, record, end.
  EXPECT_EQ(static_cast<RecordKind>(Bytes[Starts[1]]),
            RecordKind::StringTable);
  EXPECT_EQ(static_cast<RecordKind>(Bytes[Starts[2]]),
            RecordKind::ModuleSummary);
  // Blobs are not interned: they live in the record, after the table.
  EXPECT_GT(Bytes.find(Blob), Starts[2]);
  EXPECT_LT(Bytes.find("second"), Starts[2]);

  Reader R(Bytes);
  skipPreamble(R);
  Reader::Record Rec;
  ASSERT_EQ(R.next(Rec), Reader::Item::Record);
  Reader::Cursor C(Rec, R);
  std::string_view First, Got, Second, Empty, Again;
  uint64_t V = 0;
  ASSERT_TRUE(C.getString(First));
  ASSERT_TRUE(C.getBytes(Got));
  ASSERT_TRUE(C.getVarint(V));
  ASSERT_TRUE(C.getString(Second));
  ASSERT_TRUE(C.getBytes(Empty));
  ASSERT_TRUE(C.getString(Again));
  EXPECT_TRUE(C.atEnd());
  EXPECT_EQ(First, "first");
  EXPECT_EQ(Got, Blob);
  EXPECT_EQ(V, 300u);
  EXPECT_EQ(Second, "second");
  EXPECT_TRUE(Empty.empty());
  EXPECT_EQ(Again, "first");
  EXPECT_EQ(R.next(Rec), Reader::Item::End);
}

TEST(WireTest, OneRecordStreamIsBuiltInOneBuffer) {
  // The record is framed straight into a stream buffer grown once, with
  // room left for the StreamEnd that closes the stream, so the blob is
  // never copied on into a buffer twice its size.
  const std::string Blob(1 << 20, 'x');
  std::string Bytes = oneRecord(RecordKind::ModuleSummary, [&](Writer &W) {
    W.putString("name");
    W.putBytes(Blob);
  });
  EXPECT_LT(Bytes.capacity(), Bytes.size() + Bytes.size() / 2);

  Reader R(Bytes);
  skipPreamble(R);
  Reader::Record Rec;
  ASSERT_EQ(R.next(Rec), Reader::Item::Record);
  Reader::Cursor C(Rec, R);
  std::string_view Name, Got;
  ASSERT_TRUE(C.getString(Name));
  ASSERT_TRUE(C.getBytes(Got));
  EXPECT_EQ(Name, "name");
  EXPECT_EQ(Got, Blob);
  EXPECT_EQ(R.next(Rec), Reader::Item::End);
}

TEST(WireTest, FnvIsSeedChainedFnv1a) {
  // The empty string hashes to the seed (the standard FNV-1a 64 offset
  // basis), and hashing is seed-chained — which is what lets the
  // framing fold the kind byte into the payload checksum.
  EXPECT_EQ(fnv1a(""), 1469598103934665603ull);
  EXPECT_EQ(fnv1a("ab"), fnv1a("b", fnv1a("a")));
  EXPECT_EQ(fnv1a("a"), (1469598103934665603ull ^ 'a') * 1099511628211ull);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));    // Sensitivity.
  EXPECT_NE(fnv1a("ab"), fnv1a("ba")); // Order (FNV-1a, not a sum).
}

TEST(WireTest, CountersAccumulateAcrossWriteAndRead) {
  internCounters();
  std::string Bytes = oneRecord(RecordKind::ModuleSummary, [](Writer &W) {
    W.putString("counted");
  });
  Reader R(Bytes);
  ASSERT_TRUE(R.readHeader());
  Reader::Record Rec;
  size_t Seen = 0;
  while (R.next(Rec) == Reader::Item::Record)
    ++Seen;
  EXPECT_EQ(Seen, 2u); // StreamBegin + the module record.
  EXPECT_GE(R.recordsRead(), Seen);
}
