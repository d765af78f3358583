//===- parse/Blif.h - BLIF import/export ------------------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reader and writer for the Berkeley Logic Interchange Format, the
/// interchange the paper's evaluation pipeline uses: BaseJump STL and
/// OPDB designs were synthesized by Yosys to (hierarchical or flattened)
/// BLIF and imported into PyRTL (Sections 5.1, 5.2, 5.4).
///
/// Supported constructs: .model/.inputs/.outputs/.names (single-output
/// covers)/.latch/.subckt/.end, comments, and line continuations. Every
/// BLIF signal is a 1-bit wire; .names becomes an Op::Lut net, .latch a
/// Register, .subckt a SubInstance (resolved across models in the file).
/// A cover lists its ON-set (rows with output 1) or its OFF-set (rows
/// with output 0), as ir::CoverView reads it; one that mixes the two is
/// refused (WS201).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_PARSE_BLIF_H
#define WIRESORT_PARSE_BLIF_H

#include "ir/Design.h"
#include "support/Deadline.h"
#include "support/Diag.h"

#include <cstddef>
#include <memory>
#include <string>

namespace wiresort::parse {

/// A parsed BLIF file: a design holding one module per .model, plus the
/// id of the first (top) model.
struct BlifFile {
  ir::Design Design;
  ir::ModuleId Top = ir::InvalidId;
};

/// Content-keyed cache of parsed `.model` chunks, the parse half of the
/// serving layer's residency (docs/SERVING.md). parseBlif keys each
/// chunk by its exact bytes: a hit replays the stored parse (with source
/// lines rebased to the chunk's position in the new file, so diagnostics
/// stay byte-identical to an uncached parse), a miss parses like any
/// chunk and its pristine result populates the cache. A warm re-parse of
/// an edited file therefore re-tokenizes only the edited models — the
/// same dirtied-only contract the summary cache gives Stage 1.
///
/// Thread-safe: concurrent parseBlif calls may share one cache.
/// Bounded: past MaxEntries the least-recently-used chunks are evicted
/// one at a time, so a daemon's warm working set survives an overflow —
/// eviction costs one cold parse of the coldest chunk, never a verdict
/// and never (as the old wholesale flush did) the whole cache.
class BlifParseCache {
public:
  explicit BlifParseCache(size_t MaxEntries = 4096);
  ~BlifParseCache();
  BlifParseCache(const BlifParseCache &) = delete;
  BlifParseCache &operator=(const BlifParseCache &) = delete;

  /// Cached chunks / chunk lookups that replayed / that missed.
  size_t size() const;
  size_t hits() const;
  size_t misses() const;

  struct Impl;

private:
  friend support::Expected<BlifFile>
  parseBlif(const std::string &, const std::string &,
            const support::Deadline *, BlifParseCache *, unsigned);
  std::unique_ptr<Impl> I;
};

/// Parses BLIF text. On malformed input the result carries a
/// WS201_BLIF_SYNTAX / WS202_BLIF_STRUCTURE diagnostic whose SrcLoc
/// points at the offending token (1-based line and column in \p Text,
/// file field set to \p FileName); the result validates on success.
/// An active \p DL is polled once per input line; when it fires the
/// parse stops with a WS601_CANCELLED diagnostic locating the line it
/// stopped at (docs/ROBUSTNESS.md). A null \p DL never cancels.
///
/// The text is split at non-continued `.model` lines, and each chunk
/// gets its own pass 1. A non-null \p Cache replays chunks it has seen
/// by content — same result, same diagnostics, same bytes out, only the
/// tokenizing skipped (see BlifParseCache). The chunks that are not
/// replayed parse on up to \p Threads threads (0 = hardware
/// concurrency), largest first. The result, diagnostics and counters do
/// not depend on the thread count: the first failing chunk in file order
/// supplies the diagnostic, the cache is consulted and filled in file
/// order on the calling thread, and so is `.subckt` resolution.
support::Expected<BlifFile> parseBlif(const std::string &Text,
                                      const std::string &FileName = "",
                                      const support::Deadline *DL = nullptr,
                                      BlifParseCache *Cache = nullptr,
                                      unsigned Threads = 1);

/// Serializes \p Top and every definition it (transitively) instantiates.
/// All reachable modules must be bit-level (1-bit wires) and contain only
/// primitive operations — run synth::lower first for RTL modules.
std::string writeBlif(const ir::Design &D, ir::ModuleId Top);

} // namespace wiresort::parse

#endif // WIRESORT_PARSE_BLIF_H
