//===- analysis/SummaryEngine.h - Parallel cached Stage-1 -------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production driver for Stage-1 inference. Section 5.5 argues that
/// per-module summary computation is embarrassingly modular: a summary
/// depends only on the module's own body plus the summaries of its
/// instantiated definitions. The SummaryEngine exploits exactly that
/// factoring twice over:
///
///  * \b Parallelism — modules are inferred one instantiation level at a
///    time (a leaf is level 0, any other module one above its deepest
///    instantiated definition). A level's modules depend only on lower
///    levels, so they run concurrently, largest first: the calling
///    thread, one of EngineConfig::Threads, infers the largest itself
///    and a ThreadPool of the other threads takes the rest. The calling
///    thread resolves each level and settles its results in module-id
///    order. The module-body hashes behind the cache keys run the same
///    way, in the same pool.
///  * \b Memoization — results live in a content-addressed SummaryCache.
///    A module's cache key is ir::structuralHash of its body combined
///    with the keys of its instantiated definitions (in instance order),
///    so a hit is a proof that inference would recompute the same
///    summary. Re-checks, incremental sessions, and repeated benchmark
///    sweeps all hit the cache; edits invalidate exactly the changed
///    module and its transitive instantiators. Within one call,
///    content-identical modules share one inference: the first in id
///    order claims the key, and its twins wait one round and hit.
///
/// Determinism contract: for the same design, analyze() produces
/// structurallyEqual summaries, byte-identical diagnostics and the same
/// EngineStats counts regardless of thread count; summaries and
/// diagnostics are also independent of cache state. On loop-containing
/// designs every module whose dependencies summarized cleanly is
/// analyzed and its loop reported, sorted by module id — exactly the
/// list serial analyzeDesign emits. The differential and property suites
/// under tests/ enforce this contract.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_ANALYSIS_SUMMARYENGINE_H
#define WIRESORT_ANALYSIS_SUMMARYENGINE_H

#include "analysis/CheckOptions.h"
#include "analysis/SortInference.h"
#include "ir/Design.h"
#include "support/Deadline.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wiresort::analysis {

/// Thread-safe content-addressed store of module summaries.
///
/// Keys are SummaryEngine cache keys (body hash + sub-summary keys), so
/// equal keys imply structurally identical summaries up to the module id
/// of the owning design, which lookup() patches for the caller.
class SummaryCache {
public:
  /// \returns the cached summary for \p Key with Id/ModuleName rewritten
  /// to \p Id / \p Name, or std::nullopt. Counts a hit or a miss.
  std::optional<ModuleSummary> lookup(uint64_t Key, ir::ModuleId Id,
                                      const std::string &Name);

  /// Memoizes \p S under \p Key. First write wins: one analyze() call
  /// inserts each key at most once, but concurrent calls on one engine
  /// can race to insert a key, and both carry an identical summary by
  /// construction.
  void insert(uint64_t Key, const ModuleSummary &S);

  /// Entries / lookups that hit / lookups that missed. Read under the
  /// lock: a resident engine's stats reader races its lookups.
  size_t size() const;
  size_t hits() const;
  size_t misses() const;

private:
  mutable std::mutex Mutex;
  std::map<uint64_t, ModuleSummary> Entries;
  size_t Hits = 0;
  size_t Misses = 0;
};

/// Counters of one analyze() call. The same values are mirrored into the
/// support::trace registry (counters "engine.modules",
/// "engine.cache_hits", "engine.inferred", "engine.ascribed", and the
/// "engine.infer_us" per-module histogram — docs/OBSERVABILITY.md)
/// whenever a trace::Session is live; this struct is the per-call
/// snapshot that works even with tracing disabled, the registry is the
/// session-cumulative view. Time is measured by the engine.analyze and
/// engine.module spans, not here.
struct EngineStats {
  size_t Modules = 0;    ///< Modules the design required summaries for.
  size_t CacheHits = 0;  ///< Summaries served from the cache.
  size_t Inferred = 0;   ///< Summaries computed by inferSummary.
  size_t Ascribed = 0;   ///< Summaries taken as-is from the caller.
  size_t Cancelled = 0;  ///< Modules abandoned to a deadline (WS601).
  size_t Panicked = 0;   ///< Modules whose worker threw (WS604).
  unsigned ThreadsUsed = 1;
};

/// Everything one analyze() call produced besides the summaries
/// themselves: its counters and the per-module cache keys of the design
/// it ran over (what saveCache needs). The engine keeps no per-call
/// state, so this record travels with the call and concurrent calls on
/// one engine never see each other's (docs/SERVING.md).
struct AnalyzeOutcome {
  EngineStats Stats;
  std::vector<uint64_t> Keys;
};

/// What loadCache managed to recover from a sidecar. Degradation is the
/// point: corrupt or unreadable records cost warm starts, never the
/// run — Warnings carries the WS602/WS603 evidence (with the byte
/// offset of the damaged record) for the caller to surface.
struct CacheLoadResult {
  size_t Loaded = 0;      ///< Summaries seeded into the in-memory cache.
  size_t Quarantined = 0; ///< Damaged stream tails skipped (0 or 1).
  support::DiagList Warnings;
};

/// Scheduler + cache front end replacing serial analyzeDesign on every
/// production path (wiresort-check, the daemon, the benches). An engine
/// is its configuration plus its thread-safe cache and nothing else:
/// any number of threads may call analyze() on one engine at once.
class SummaryEngine {
public:
  SummaryEngine() = default;
  explicit SummaryEngine(EngineConfig Cfg) : Cfg(Cfg) {}

  /// Engine configuration this instance was built with.
  const EngineConfig &config() const { return Cfg; }

  /// Analyzes every module of \p D, filling \p Out (cleared first) with a
  /// summary per module exactly as serial analyzeDesign would. Modules
  /// present in \p Ascribed are taken as-is (opaque IP; Section 4).
  /// \returns the combinational-loop diagnostics of every module whose
  /// dependencies summarized cleanly, sorted by module id (empty — check
  /// hasError() — on success); dependents of failed modules are skipped
  /// silently and \p Out holds the summaries of everything that did
  /// summarize.
  ///
  /// The run is bounded by \p DL: when the deadline expires (or its
  /// token is cancelled) no new module is started, every unfinished
  /// module and its dependents are marked Cancelled, and the returned
  /// status carries — after the usual per-module diagnostics — one
  /// WS601_CANCELLED error noting how many modules completed and how
  /// many were abandoned. Summaries of completed modules are still
  /// delivered through \p Out (partial progress is a feature: a caller
  /// can warm the cache even from a timed-out run). The default, inert
  /// deadline never fires.
  ///
  /// When \p Outcome is given it receives this call's counters and the
  /// design's cache keys. The call touches no engine state but the
  /// thread-safe cache, so it is re-entrant: the resident service
  /// (src/driver/) runs concurrent requests through one engine.
  support::Status
  analyze(const ir::Design &D, std::map<ir::ModuleId, ModuleSummary> &Out,
          const std::map<ir::ModuleId, ModuleSummary> &Ascribed = {},
          const support::Deadline &DL = {},
          AnalyzeOutcome *Outcome = nullptr);

  /// Pure key computation: structuralHash of each module body folded
  /// with the keys of its instantiated definitions in instance order
  /// (ascribed modules key on summary content). The one key function
  /// shared — by construction, not convention — between analyze() and
  /// saveCache's callers.
  static std::vector<uint64_t>
  computeKeys(const ir::Design &D,
              const std::map<ir::ModuleId, ModuleSummary> &Ascribed = {});

  /// The engine's cache (shared across analyze() calls; hand the same
  /// engine to repeated checks to get warm-cache behavior).
  SummaryCache &cache() { return Cache; }

  /// Persists \p Summaries of \p D as a cache-v3 wire stream
  /// (docs/FORMATS.md): one CacheEntry record per module carrying its
  /// key from \p Keys (as computeKeys or an AnalyzeOutcome gives them)
  /// and its name-based summary body, every record length-prefixed and
  /// FNV-1a-checksummed by the framing. The write is crash-safe: the
  /// whole stream is composed in memory, written to Path+".tmp",
  /// fsync'd, and renamed over \p Path, so an interrupted save leaves
  /// either the old cache or the new one — never a torn file. Transient
  /// I/O failures are retried a bounded number of times with backoff.
  /// \returns an empty Status on success, or a WS602_CACHE_IO warning
  /// naming the failing path and syscall (the caller keeps its verdict;
  /// a failed save only costs the next run its warm start).
  static support::Status
  saveCache(const std::string &Path, const ir::Design &D,
            const std::map<ir::ModuleId, ModuleSummary> &Summaries,
            const std::vector<uint64_t> &Keys);

  /// Seeds the cache from a cache-v3 stream written by saveCache,
  /// resolving port names against \p D. Staleness of any kind is
  /// harmless: entries whose recorded key no longer matches the design
  /// never hit, and records that no longer resolve (module renamed away,
  /// interface changed) are skipped rather than loaded. Damage is
  /// quarantined, never fatal: a record failing its framing checksum (or
  /// truncating) quarantines the rest of the stream (the length prefix
  /// after a corrupt frame cannot be trusted) with one
  /// WS603_CACHE_CORRUPT warning naming the damaged record's byte offset,
  /// and the run degrades to cold inference for the affected modules.
  /// \returns the load tally plus warnings, or a WS502_CACHE_FORMAT
  /// diagnostic when the file is not a summary-cache stream this build
  /// reads (a pre-v3 text cache, a design, a `.wsort` sidecar, a newer
  /// cache version); the file is never rewritten here. A missing or
  /// empty file is not an error (empty result).
  support::Expected<CacheLoadResult> loadCache(const std::string &Path,
                                               const ir::Design &D);

private:
  EngineConfig Cfg;
  SummaryCache Cache;
};

} // namespace wiresort::analysis

#endif // WIRESORT_ANALYSIS_SUMMARYENGINE_H
