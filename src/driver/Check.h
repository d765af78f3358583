//===- driver/Check.h - The check request/response facade -------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library-level entry point behind every way of running a check:
/// the `wiresort-check` CLI, the `wiresort-served` daemon, and the
/// benches are all thin clients of the same CheckRequest → CheckResult
/// facade, which owns parse dispatch, engine setup, cache I/O, and
/// verdict construction. Byte-identity across clients is therefore a
/// construction property, not a test hope: a daemon `check` response
/// carries exactly the stdout/stderr bytes `wiresort-check` would have
/// printed for the same inputs, because both ran the same function.
///
/// Two grips on the same core:
///
///  * \ref runCheck — one-shot: build an engine, serve one request,
///    tear down. What the CLI uses; cold by definition.
///  * \ref CheckService — resident: one engine (and its
///    content-addressed summary cache) lives across requests, so a
///    re-submitted design re-infers only what actually changed — every
///    unchanged module is a cache hit keyed on structural content
///    (docs/ENGINE.md). run() is thread-safe and re-entrant; the
///    serving layer (driver/Serve.h) multiplexes concurrent requests
///    onto one CheckService.
///
/// Output contract (docs/DIAGNOSTICS.md): CheckResult::Out is the
/// byte-exact stdout of `wiresort-check` for the request (NDJSON diags
/// + verdict line in JSON mode; tables and human one-liners in text
/// mode), CheckResult::Err the byte-exact stderr (human-rendered diags
/// with caret echoes). Exit codes: 0 ok, 1 error diags, 2 usage/IO,
/// 3 cancelled.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_DRIVER_CHECK_H
#define WIRESORT_DRIVER_CHECK_H

#include "analysis/CheckOptions.h"
#include "analysis/SummaryEngine.h"
#include "parse/Blif.h"
#include "support/Deadline.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace wiresort::driver {

/// Everything one check needs, fully parsed — no argv in the library.
/// The CLI fills one from flags; the daemon decodes one from a wire
/// record (driver/Serve.h maps the fields one-to-one).
struct CheckRequest {
  /// Design source. When \c HasInlineText the daemon already shipped
  /// the bytes and \c DesignText is authoritative; otherwise the driver
  /// reads \c DesignPath. Either way \c name() is the string used for
  /// front-end dispatch (.v/.sv = Verilog, else BLIF) and in every
  /// diagnostic, so an inline request diagnoses byte-identically to a
  /// CLI run on the same file.
  std::string DesignPath;
  std::string DesignText;
  bool HasInlineText = false;
  /// Diagnostic/dispatch name for inline text; defaults to DesignPath.
  std::string DesignName;

  /// The per-request knobs (deadline, format, cache sidecar, tracing,
  /// fault schedule) — see analysis/CheckOptions.h.
  analysis::RequestOptions Req;

  /// External cancellation, observed alongside Req.TimeoutMs by the
  /// run's cooperative deadline. Not a wire field: the serving layer
  /// threads its drain-kill token through here so a bounded drain can
  /// cancel in-flight requests (they fail closed — WS601, exit 3). An
  /// inert (default) token costs nothing.
  support::CancellationToken Cancel;

  /// Artifact paths; empty = not requested. Mirrors the CLI flags.
  std::string SummariesOut;  ///< --summaries FILE
  std::string CheckPath;     ///< --check FILE (ascription compare)
  std::string DotPath;       ///< --dot FILE
  std::string ConvertIn;     ///< --convert-summaries FILE
  bool BinarySummaries = false; ///< --summary-format binary

  /// Declared-summary sidecar shipped inline (the daemon's `ascribe`
  /// method); when set, \c CheckPath is only the diagnostic name.
  std::string CheckText;
  bool HasInlineCheckText = false;

  bool Quiet = false;     ///< --quiet
  bool ShowDepth = false; ///< --depth

  const std::string &name() const {
    return DesignName.empty() ? DesignPath : DesignName;
  }
};

/// What one check produced. Out/Err are the full stdout/stderr byte
/// streams (see the file comment); the scalar fields are the structured
/// view the daemon and benches read without re-parsing the text.
struct CheckResult {
  int ExitCode = 0;
  std::string Out;
  std::string Err;
  size_t Errors = 0;   ///< Error-severity diagnostics emitted.
  size_t Modules = 0;  ///< Summaries delivered (0 on failed runs).
  bool Cancelled = false; ///< Deadline fired (WS601; exit 3).
  analysis::EngineStats Stats; ///< Stage-1 counters for this request.
};

/// A resident check core: one SummaryEngine whose summary cache
/// persists across run() calls. Thread-safe — concurrent run() calls
/// share the cache (first writer wins per key) and otherwise touch only
/// request-local state: SummaryEngine::analyze returns each call's
/// counters and cache keys in the request's own AnalyzeOutcome.
/// Requests that open a telemetry window (Stats or TraceOutPath)
/// serialize on an internal mutex, because at most one trace::Session
/// may be live per process.
class CheckService {
public:
  explicit CheckService(analysis::EngineConfig Cfg = {}) : Engine(Cfg) {}

  /// Serves one request. Never throws; every failure mode is a
  /// diagnostic in the result (docs/ROBUSTNESS.md).
  CheckResult run(const CheckRequest &R) { return run(R, &ParseCache); }

  /// The resident engine (its cache() is the residency).
  analysis::SummaryEngine &engine() { return Engine; }

  /// The parse half of the residency: BLIF `.model` chunks are cached
  /// by content, so a warm request re-tokenizes only edited models —
  /// the same dirtied-only contract the summary cache gives inference
  /// (docs/SERVING.md). A one-shot runCheck parses with no parse cache
  /// at all; a replay is byte-identical to a parse, so CLI and daemon
  /// bytes cannot diverge on cache state.
  const parse::BlifParseCache &parseCache() const { return ParseCache; }

  /// Requests served since construction (daemon stats).
  size_t requestsServed() const { return Served.load(); }

private:
  friend CheckResult runCheck(const CheckRequest &, analysis::EngineConfig);

  /// run(), parsing BLIF through \p Cache (null: no parse cache).
  CheckResult run(const CheckRequest &R, parse::BlifParseCache *Cache);

  analysis::SummaryEngine Engine;
  parse::BlifParseCache ParseCache;
  std::mutex TelemetryMutex;
  std::atomic<size_t> Served{0};
};

/// One-shot convenience: a fresh (cold) CheckService for one request —
/// exactly what a `wiresort-check` process invocation is — that parses
/// with no parse cache, since nothing would replay it. \p Cfg carries
/// the engine knobs (--threads, which also sets the parse threads).
CheckResult runCheck(const CheckRequest &R, analysis::EngineConfig Cfg = {});

/// The bytes of the file at \p Path, read to its end without seeking, so
/// pipes and /dev/stdin work; a regular file is read straight into a
/// string sized once from its length. std::nullopt when it cannot be
/// opened or a read fails, as reading a directory does (EISDIR).
std::optional<std::string> readFile(const std::string &Path);

} // namespace wiresort::driver

#endif // WIRESORT_DRIVER_CHECK_H
