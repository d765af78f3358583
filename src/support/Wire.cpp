//===- support/Wire.cpp - Versioned binary record streams -----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "support/Wire.h"

#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace wiresort;
using namespace wiresort::support;
using namespace wiresort::support::wire;

// --- Checksum and counters --------------------------------------------------

uint64_t wire::fnv1a(std::string_view Data, uint64_t Seed) {
  uint64_t H = Seed;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

namespace {

trace::Counter &recordsWrittenC() {
  static trace::Counter &C = trace::counter("wire.records_written");
  return C;
}
trace::Counter &recordsReadC() {
  static trace::Counter &C = trace::counter("wire.records_read");
  return C;
}
trace::Counter &bytesWrittenC() {
  static trace::Counter &C = trace::counter("wire.bytes_written");
  return C;
}
trace::Counter &bytesReadC() {
  static trace::Counter &C = trace::counter("wire.bytes_read");
  return C;
}
trace::Counter &checksumFailuresC() {
  static trace::Counter &C = trace::counter("wire.checksum_failures");
  return C;
}

void appendVarint(std::string &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<char>((V & 0x7f) | 0x80));
    V >>= 7;
  }
  Out.push_back(static_cast<char>(V));
}

size_t varintSize(uint64_t V) {
  size_t Size = 1;
  for (; V >= 0x80; V >>= 7)
    ++Size;
  return Size;
}

void appendFixed64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

/// Reads a varint at \p Pos in \p Data; false on truncation or a
/// varint longer than 10 bytes (64 bits).
bool readVarint(std::string_view Data, size_t &Pos, uint64_t &V) {
  V = 0;
  unsigned Shift = 0;
  for (int I = 0; I != 10; ++I) {
    if (Pos >= Data.size())
      return false;
    uint8_t B = static_cast<uint8_t>(Data[Pos++]);
    if (Shift >= 64 ||
        (Shift == 63 && (B & 0x7f) > 1))
      return false; // Overflows uint64_t.
    V |= uint64_t(B & 0x7f) << Shift;
    if (!(B & 0x80))
      return true;
    Shift += 7;
  }
  return false;
}

} // namespace

void wire::internCounters() {
  recordsWrittenC();
  recordsReadC();
  bytesWrittenC();
  bytesReadC();
  checksumFailuresC();
}

// --- Writer -----------------------------------------------------------------

Writer::Writer() { Out.append(Magic, sizeof(Magic)); Out.push_back(
    static_cast<char>(FormatVersion)); }

uint32_t Writer::intern(std::string_view S) {
  auto It = IdOf.find(S);
  if (It != IdOf.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(IdOf.size());
  Pending.push_back(IdOf.emplace(S, Id).first->first);
  return Id;
}

void Writer::beginRecord(RecordKind K) {
  assert(!InRecord && "beginRecord without endRecord");
  InRecord = true;
  CurKind = K;
  Payload.clear();
}

void Writer::putVarint(uint64_t V) { appendVarint(Payload, V); }

void Writer::putByte(uint8_t B) {
  Payload.push_back(static_cast<char>(B));
}

void Writer::putFixed64(uint64_t V) { appendFixed64(Payload, V); }

void Writer::putString(std::string_view S) { putVarint(intern(S)); }

void Writer::putBytes(std::string_view Bytes) {
  putVarint(Bytes.size());
  Blobs.push_back({Payload.size(), Bytes});
}

void Writer::flushStrings() {
  if (Pending.empty())
    return;
  std::string Table;
  appendVarint(Table, Pending.size());
  for (std::string_view S : Pending) {
    appendVarint(Table, S.size());
    Table.append(S.data(), S.size());
  }
  Pending.clear();
  frame(RecordKind::StringTable, Table);
}

void Writer::frame(RecordKind K, std::string_view Fields,
                   std::span<const Blob> Spliced) {
  size_t Len = Fields.size();
  for (const Blob &B : Spliced)
    Len += B.Bytes.size();
  // Grow the stream at most once per frame. A growth leaves room for
  // the largest StreamEnd frame, so that finish() after a one-record
  // stream's record does not move the stream again.
  constexpr size_t MaxEndFrame = 1 + 1 + 10 + 8;
  const size_t Before = Out.size();
  const size_t Need = Before + 1 + varintSize(Len) + Len + 8;
  if (Need > Out.capacity())
    Out.reserve(std::max(Need + MaxEndFrame, 2 * Out.capacity()));

  const char KindByte = static_cast<char>(K);
  Out.push_back(KindByte);
  appendVarint(Out, Len);
  uint64_t Crc = fnv1a({&KindByte, 1});
  auto append = [&](std::string_view Piece) {
    Out.append(Piece.data(), Piece.size());
    Crc = fnv1a(Piece, Crc);
  };
  size_t At = 0;
  for (const Blob &B : Spliced) {
    append(Fields.substr(At, B.At - At));
    append(B.Bytes);
    At = B.At;
  }
  append(Fields.substr(At));
  appendFixed64(Out, Crc);
  ++Records;
  recordsWrittenC().add();
  bytesWrittenC().add(Out.size() - Before);
}

void Writer::endRecord() {
  assert(InRecord && "endRecord without beginRecord");
  InRecord = false;
  // Strings referenced by this record must be defined before it.
  flushStrings();
  frame(CurKind, Payload, Blobs);
  Blobs.clear();
}

void Writer::beginStream(StreamKind K, uint64_t Version) {
  beginRecord(RecordKind::StreamBegin);
  putByte(static_cast<uint8_t>(K));
  putVarint(Version);
  endRecord();
}

void Writer::finish() {
  beginRecord(RecordKind::StreamEnd);
  putVarint(Records);
  endRecord();
}

std::string Writer::take() {
  std::string Drained = std::move(Out);
  Out.clear();
  return Drained;
}

// --- Reader -----------------------------------------------------------------

bool Reader::readHeader(std::string *Why) {
  if (Data.size() < sizeof(Magic) + 1 ||
      Data.compare(0, sizeof(Magic),
                   std::string_view(Magic, sizeof(Magic))) != 0) {
    if (Why)
      *Why = "not a wire stream (bad magic)";
    return false;
  }
  uint8_t Version = static_cast<uint8_t>(Data[sizeof(Magic)]);
  if (Version != FormatVersion) {
    if (Why)
      *Why = "unsupported wire format version " + std::to_string(Version) +
             " (this build reads version " +
             std::to_string(FormatVersion) + ")";
    return false;
  }
  Pos = sizeof(Magic) + 1;
  bytesReadC().add(Pos);
  return true;
}

Reader::Item Reader::next(Record &R) {
  for (;;) {
    // Set before any return, so a damage report names the failing
    // record.
    R.Offset = Pos;
    if (Pos == Data.size())
      return Item::Exhausted;
    uint8_t KindByte = static_cast<uint8_t>(Data[Pos++]);
    uint64_t Len = 0;
    if (!readVarint(Data, Pos, Len))
      return Item::Truncated;
    if (Len > Data.size() - Pos)
      return Item::Truncated;
    std::string_view Payload = Data.substr(Pos, Len);
    Pos += Len;
    if (Data.size() - Pos < 8)
      return Item::Truncated;
    uint64_t Crc = 0;
    for (int I = 0; I != 8; ++I)
      Crc |= uint64_t(static_cast<uint8_t>(Data[Pos + I])) << (8 * I);
    Pos += 8;
    char KindChar = static_cast<char>(KindByte);
    if (fnv1a(Payload, fnv1a({&KindChar, 1})) != Crc) {
      checksumFailuresC().add();
      return Item::Corrupt;
    }
    ++Records;
    recordsReadC().add();
    bytesReadC().add(Pos - R.Offset);

    RecordKind Kind = static_cast<RecordKind>(KindByte);
    if (Kind == RecordKind::StringTable) {
      size_t P = 0;
      uint64_t Count = 0;
      if (!readVarint(Payload, P, Count))
        return Item::Corrupt;
      for (uint64_t I = 0; I != Count; ++I) {
        uint64_t SLen = 0;
        if (!readVarint(Payload, P, SLen) || SLen > Payload.size() - P)
          return Item::Corrupt;
        Strings.push_back(Payload.substr(P, SLen));
        P += SLen;
      }
      continue; // Bookkeeping record: keep scanning.
    }
    if (Kind == RecordKind::StreamEnd)
      return Item::End;
    R.Kind = Kind;
    R.Payload = Payload;
    return Item::Record;
  }
}

bool Reader::Cursor::getVarint(uint64_t &V) {
  if (Failed || !readVarint(Data, Pos, V)) {
    Failed = true;
    return false;
  }
  return true;
}

bool Reader::Cursor::getByte(uint8_t &B) {
  if (Failed || Pos >= Data.size()) {
    Failed = true;
    return false;
  }
  B = static_cast<uint8_t>(Data[Pos++]);
  return true;
}

bool Reader::Cursor::getFixed64(uint64_t &V) {
  if (Failed || Data.size() - Pos < 8) {
    Failed = true;
    return false;
  }
  V = 0;
  for (int I = 0; I != 8; ++I)
    V |= uint64_t(static_cast<uint8_t>(Data[Pos + I])) << (8 * I);
  Pos += 8;
  return true;
}

bool Reader::Cursor::getString(std::string_view &S) {
  uint64_t Id = 0;
  if (!getVarint(Id) || !Owner.hasString(Id)) {
    Failed = true;
    return false;
  }
  S = Owner.string(Id);
  return true;
}

bool Reader::Cursor::getBytes(std::string_view &S) {
  uint64_t Len = 0;
  if (!getVarint(Len) || Data.size() - Pos < Len) {
    Failed = true;
    return false;
  }
  S = Data.substr(Pos, Len);
  Pos += Len;
  return true;
}
