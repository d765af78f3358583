//===- support/Wire.h - Versioned binary record streams ---------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one binary serialization layer (wire format v1 — docs/FORMATS.md).
/// Three producers share it: the `.wsort` sidecar a vendor ships with
/// opaque IP (Section 4), the on-disk summary cache, and the daemon's
/// request/response socket stream (docs/SERVING.md). All of them read
/// and write length-prefixed, versioned, per-record-checksummed binary
/// records through \ref Writer / \ref Reader, so a summary stream is one
/// format whether it lives in a file, a cache, or a socket.
///
/// Stream shape:
///
///   magic "\xD7WSB" | format version byte | record...
///
/// Every record is `kind(1) | payload-length(varint) | payload |
/// fnv1a64(kind+payload, 8 bytes LE)`, so the framing itself checksums
/// every record. Ints travel as LEB128-style varints; strings are
/// interned: the writer assigns each distinct string an id on first
/// sight and flushes newly seen strings in StringTable records ahead of
/// the record that references them, so streams stay valid under
/// incremental flushing (take() between records).
///
/// The first payload byte of a stream is \ref SniffByte (0xD7): no text
/// sidecar can start with it (they begin '#', 'm', or whitespace), so
/// readers sniff one byte to dispatch text vs binary.
///
/// Failure model: the reader never throws and never trusts a damaged
/// frame. Truncation, checksum mismatch, bogus varints, and out-of-range
/// string ids all surface as \ref Reader::Item::Truncated / Corrupt;
/// callers fail closed (quarantine the record, reject the request,
/// re-infer). Unknown record kinds with intact frames are returned to the
/// caller, which may skip them — that is the forward-compat rule.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_WIRE_H
#define WIRESORT_SUPPORT_WIRE_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace wiresort::support::wire {

/// First byte of every wire stream; >= 0x80 so no ASCII text file can
/// collide. Readers sniff this byte to dispatch text vs binary.
constexpr unsigned char SniffByte = 0xD7;
/// Full magic: SniffByte then "WSB".
constexpr char Magic[4] = {char(0xD7), 'W', 'S', 'B'};
/// Container format version written after the magic. Bumped only when
/// the *framing* changes; payload schemas version via StreamBegin.
constexpr uint8_t FormatVersion = 1;

/// Typed record kinds. Values are part of the on-disk/on-socket contract
/// (docs/FORMATS.md); never renumber. Kinds 4 (standalone Diag) and 7
/// (ShardModule) are retired: nothing writes them, readers skip them as
/// unknown kinds, and the numbers are never reused.
enum class RecordKind : uint8_t {
  StringTable = 1,   ///< Newly interned strings (id order).
  StreamBegin = 2,   ///< Stream kind + payload schema version.
  ModuleSummary = 3, ///< Name-based module summary (sidecars).
  CacheEntry = 5,    ///< Cache key + name-based module summary.
  StreamEnd = 6,     ///< Record count; a stream without one is truncated.
  ServeRequest = 8,  ///< One daemon request (docs/SERVING.md).
  ServeResponse = 9, ///< One daemon response (docs/SERVING.md).
};

/// StreamBegin payload: what producer wrote this stream. Lets a cache
/// reader reject a summary sidecar handed to --cache and vice versa.
/// Stream kind 3 (the fork-worker Shard pipe) is retired and never
/// reused.
enum class StreamKind : uint8_t {
  Summaries = 1, ///< `.wsort` binary sidecar (SummaryIO).
  Cache = 2,     ///< Summary-cache sidecar (cache format v3).
  Serve = 4,     ///< Check-service socket stream (docs/SERVING.md).
};

/// FNV-1a 64 over \p Data folded into \p Seed — the per-record checksum.
uint64_t fnv1a(std::string_view Data,
               uint64_t Seed = 1469598103934665603ull);

/// Interns the `wire.*` trace counters so they are visible — at zero —
/// in every stats report (the same startup contract as the `fault.*`
/// counters; docs/OBSERVABILITY.md).
void internCounters();

/// Builds a wire stream incrementally. beginRecord/put*/endRecord per
/// record; take() drains the bytes framed so far, finish() closes the
/// stream with a StreamEnd carrying the record count.
///
/// endRecord() frames each record once, straight into the stream: the
/// small fields gathered so far and the putBytes() blobs are appended
/// in order to a buffer grown once for the whole frame, and the record
/// checksum folds over the same pieces. A one-record stream (a serve
/// request or response) is therefore built in one buffer, and take()
/// hands that buffer over without copying it.
class Writer {
public:
  Writer();
  // Pending views the keys of IdOf, so a copy would view the original's.
  Writer(const Writer &) = delete;
  Writer &operator=(const Writer &) = delete;

  /// Interns \p S for this stream, assigning an id on first sight. New
  /// strings are flushed in a StringTable record by the enclosing
  /// endRecord(), always ahead of the record that references them.
  uint32_t intern(std::string_view S);

  void beginRecord(RecordKind K);
  void putVarint(uint64_t V);
  void putByte(uint8_t B);
  void putFixed64(uint64_t V);
  /// putVarint(intern(S)).
  void putString(std::string_view S);
  /// Length-prefixed raw bytes, *not* interned: the transport for bulk
  /// one-off payloads (a request's design text, a response's stdout
  /// stream) where interning would only copy them a second time.
  ///
  /// Lifetime rule: the writer keeps a view of \p Bytes, not a copy, and
  /// copies the bytes into the stream at endRecord(). They must stay
  /// alive and unchanged until then. A temporary std::string would be
  /// gone by then, so passing one does not compile; literals, views and
  /// named strings do.
  void putBytes(std::string_view Bytes);
  void putBytes(const char *Bytes) { putBytes(std::string_view(Bytes)); }
  void putBytes(const std::string &&Bytes) = delete;
  void endRecord();

  /// Convenience: StreamBegin record announcing \p K at \p Version.
  void beginStream(StreamKind K, uint64_t Version);
  /// Closes the stream: one StreamEnd record carrying the count of
  /// records framed before it.
  void finish();

  /// Drains and returns everything framed so far (header included on
  /// first call). The writer remains usable; interning state persists.
  std::string take();

private:
  /// A putBytes() blob: its bytes, and the offset in Payload they follow.
  struct Blob {
    size_t At;
    std::string_view Bytes;
  };

  /// Appends one frame whose payload is \p Fields with the \p Spliced
  /// blobs spliced in at their offsets.
  void frame(RecordKind K, std::string_view Fields,
             std::span<const Blob> Spliced = {});
  void flushStrings();

  /// Hashes views and strings alike, so lookups build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };

  std::string Out;
  /// The open record's fields, its blobs excepted.
  std::string Payload;
  /// The open record's blobs, in order; views until endRecord().
  std::vector<Blob> Blobs;
  /// Every string interned so far, with its id.
  std::unordered_map<std::string, uint32_t, NameHash, std::equal_to<>> IdOf;
  /// Strings interned since the last StringTable record: views of IdOf's
  /// keys, which stay put when the map rehashes (its nodes never move).
  std::vector<std::string_view> Pending;
  RecordKind CurKind = RecordKind::StringTable;
  bool InRecord = false;
  size_t Records = 0;
};

/// Iterates the records of a wire stream without ever trusting a
/// damaged frame. Zero-copy: payload and string views point into the
/// caller's buffer, which must outlive the reader.
class Reader {
public:
  explicit Reader(std::string_view Bytes) : Data(Bytes) {}

  /// Validates magic + container version. On failure \p Why (when
  /// non-null) names the problem ("bad magic", "unsupported wire format
  /// version N").
  bool readHeader(std::string *Why = nullptr);

  struct Record {
    RecordKind Kind = RecordKind::StringTable;
    std::string_view Payload;
    /// Byte offset of the record's kind byte, for quarantine reports.
    /// next() sets it on every return, so on Truncated/Corrupt it names
    /// the damaged record (Exhausted: the end of the bytes).
    size_t Offset = 0;
  };

  enum class Item : uint8_t {
    Record,    ///< \p R holds the next non-bookkeeping record.
    End,       ///< StreamEnd seen (clean end of stream).
    Exhausted, ///< Bytes ran out exactly between records (no StreamEnd).
    Truncated, ///< Bytes ran out inside a frame.
    Corrupt,   ///< Checksum mismatch or malformed frame.
  };

  /// Advances to the next record, consuming StringTable records
  /// internally (extending the string table). Anything but Item::Record
  /// ends iteration; Truncated/Corrupt mean the rest of the stream is
  /// untrustworthy.
  Item next(Record &R);

  /// The string interned under \p Id, or std::nullopt when out of range
  /// (a damaged or misordered stream).
  std::string_view string(uint64_t Id) const {
    return Id < Strings.size() ? Strings[Id] : std::string_view();
  }
  bool hasString(uint64_t Id) const { return Id < Strings.size(); }

  size_t recordsRead() const { return Records; }

  /// Cursor over one record's payload. All get* return false on
  /// truncation or malformed data, after which the cursor stays failed.
  class Cursor {
  public:
    Cursor(const Record &R, const Reader &Owner)
        : Data(R.Payload), Owner(Owner) {}

    bool getVarint(uint64_t &V);
    bool getByte(uint8_t &B);
    bool getFixed64(uint64_t &V);
    /// Reads a varint string id and resolves it via the owner's table.
    bool getString(std::string_view &S);
    /// Reads length-prefixed raw bytes (inverse of Writer::putBytes);
    /// \p S views into the record payload.
    bool getBytes(std::string_view &S);
    bool atEnd() const { return Pos == Data.size() && !Failed; }
    bool failed() const { return Failed; }

  private:
    std::string_view Data;
    const Reader &Owner;
    size_t Pos = 0;
    bool Failed = false;
  };

private:
  std::string_view Data;
  size_t Pos = 0;
  std::vector<std::string_view> Strings;
  size_t Records = 0;
};

} // namespace wiresort::support::wire

#endif // WIRESORT_SUPPORT_WIRE_H
