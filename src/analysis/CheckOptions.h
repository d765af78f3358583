//===- analysis/CheckOptions.h - Engine vs per-request knobs ----*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The knob surface for running wire-sort checks, split along the
/// residency boundary the serving layer introduced (docs/SERVING.md):
///
///  * \ref EngineConfig — knobs that configure a *resident engine*
///    (worker threads, whether the content-addressed summary cache is
///    consulted). A long-lived SummaryEngine is built from one of these
///    and then serves many requests.
///  * \ref RequestOptions — knobs that vary *per request* (deadline,
///    output format, cache sidecar path, tracing, fault schedule). A
///    resident engine can serve many differently-configured requests
///    concurrently without copying or re-creating engine state.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_ANALYSIS_CHECKOPTIONS_H
#define WIRESORT_ANALYSIS_CHECKOPTIONS_H

#include <cstdint>
#include <string>

namespace wiresort::analysis {

/// Diagnostic/verdict rendering (docs/DIAGNOSTICS.md).
enum class Format { Text, Json };

/// Configuration of a (possibly resident) SummaryEngine: state that is
/// fixed for the engine's lifetime and shared by every request it
/// serves. See docs/ENGINE.md and docs/SERVING.md.
struct EngineConfig {
  /// Threads for SummaryEngine, the calling thread included: each
  /// analyze() call runs a pool of min(Threads, modules) - 1 workers
  /// beside its caller. 0 = hardware concurrency, 1 = serial (no pool).
  /// A resident service usually runs each request at 1 and gets its
  /// parallelism from concurrent requests instead.
  unsigned Threads = 0;

  /// When false, every analyze() call re-infers everything (the
  /// in-memory summary cache is neither consulted nor populated) — the
  /// differential-testing baseline.
  bool UseCache = true;
};

/// Options for one check request. A resident engine serves many of
/// these, each with its own deadline/format/fault schedule, without
/// copying engine state.
struct RequestOptions {
  /// Persistent summary-cache sidecar ("" = in-memory only). Consumed
  /// by the driver/CLI via SummaryEngine::loadCache/saveCache; the
  /// engine itself never opens it implicitly.
  std::string CachePath;

  /// Diagnostic/verdict rendering (docs/DIAGNOSTICS.md).
  Format OutputFormat = Format::Text;

  /// Chrome trace-event JSON destination for a trace::Session ("" = no
  /// tracing). See docs/OBSERVABILITY.md.
  std::string TraceOutPath;

  /// Collect and render the support::trace counter/histogram registry
  /// (wiresort-check --stats).
  bool Stats = false;

  /// Wall-clock budget for this request in milliseconds (0 = none).
  /// The driver turns this into one support::Deadline covering parse +
  /// analysis; a request that exceeds it fails closed with a
  /// WS601_CANCELLED partial-progress diag and exit code 3
  /// (docs/ROBUSTNESS.md).
  uint64_t TimeoutMs = 0;

  /// Fault-injection schedule ("site=mode,..." — support/FailPoint.h),
  /// normally empty. NOTE: the failpoint registry is process-wide, so
  /// in a resident service a request's schedule is visible to requests
  /// running concurrently with it (docs/SERVING.md degradation matrix).
  std::string FailpointSpec;

  /// Seed for probabilistic failpoint triggers, so a (spec, seed) pair
  /// replays byte-identically.
  uint64_t FaultSeed = 0;
};

} // namespace wiresort::analysis

#endif // WIRESORT_ANALYSIS_CHECKOPTIONS_H
