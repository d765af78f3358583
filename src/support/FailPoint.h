//===- support/FailPoint.h - Fault-injection framework ----------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zero-overhead-when-disabled fault injection (docs/ROBUSTNESS.md). The
/// checking pipeline claims to fail *closed* — a cache that cannot be
/// written degrades to a warning, a worker that throws becomes a
/// structured diag, a deadline that fires produces a partial-progress
/// report — and those claims are only testable if faults can be raised
/// on demand, deterministically, inside the production code paths. A
/// failpoint is a named site compiled into a hot path:
///
///   if (WS_FAILPOINT("cache.save.write"))
///     return simulatedIoError();
///
/// Disabled (the production steady state) a site costs one relaxed
/// atomic load and a branch — the same budget as a trace::Counter, and
/// covered by the same bench_engine overhead smoke. Armed sites evaluate
/// a per-site trigger:
///
///   * `always`   — fire on every hit (deterministic);
///   * `nth(N)`   — fire on exactly the Nth hit, once (deterministic);
///   * `prob(P)`  — fire each hit with probability P, derived from the
///                  configured seed, the site name, and the hit index,
///                  so a (spec, seed) pair replays byte-identically;
///   * `off`      — explicit disarm.
///
/// Sites are configured per run from a spec string
/// ("site=mode,site=mode", e.g. `--failpoints cache.save.write=nth(2)`)
/// or from the environment (WIRESORT_FAILPOINTS /
/// WIRESORT_FAILPOINT_SEED — the channel the crash-recovery tests use to
/// inject faults into a child process). The seed comes from
/// analysis::RequestOptions::FaultSeed on production paths. Every fired
/// site bumps the `fault.injected` trace counter, so fault activity is
/// visible in `wiresort-check --stats` (docs/OBSERVABILITY.md).
///
/// The site registry is in docs/ROBUSTNESS.md; configure() accepts
/// unknown site names (the site is created disarmed-by-name so tooling
/// can pre-arm sites of a binary that registers them lazily).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_FAILPOINT_H
#define WIRESORT_SUPPORT_FAILPOINT_H

#include "support/Diag.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wiresort::support::failpoint {

/// One named injection site. Obtained via \ref site() and cached in a
/// function-local static by the WS_FAILPOINT macro; the reference is
/// stable for the process lifetime.
class Site {
public:
  /// The hot-path query: false in one relaxed load + branch when the
  /// site is not armed; otherwise evaluates the configured trigger
  /// (counting the hit either way).
  bool shouldFire() {
    if (!Armed.load(std::memory_order_relaxed))
      return false;
    return fireSlow();
  }

  const std::string &name() const { return Name; }

  /// Hits observed while armed (trigger evaluations, not fires).
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  /// Times the trigger actually fired.
  uint64_t fires() const { return Fires.load(std::memory_order_relaxed); }

private:
  friend Site &site(const std::string &Name);
  friend Status configure(const std::string &Spec, uint64_t Seed);
  friend void disarmAll();
  friend size_t armedCount();

  explicit Site(std::string Name) : Name(std::move(Name)) {}

  enum class Mode : uint8_t { Off, Always, Nth, Prob };

  /// Evaluates the armed trigger; out of line so the header stays free
  /// of the mixing arithmetic.
  bool fireSlow();

  const std::string Name;
  std::atomic<bool> Armed{false};
  std::atomic<uint8_t> ModeV{static_cast<uint8_t>(Mode::Off)};
  /// Nth: the 1-based hit to fire on. Prob: fire threshold scaled to
  /// 2^64 (hash < Threshold fires).
  std::atomic<uint64_t> Param{0};
  std::atomic<uint64_t> Seed{0};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Fires{0};
};

/// Interns \p Name in the process-wide registry (creating a disarmed
/// site on first use) and returns its stable reference.
Site &site(const std::string &Name);

/// Arms sites per \p Spec — a comma-separated list of `name=mode` with
/// mode one of `always`, `off`, `nth(N)` (N >= 1), `prob(P)`
/// (0 <= P <= 1). An empty spec is a no-op (sites keep their state).
/// \p Seed feeds the prob() trigger streams. \returns a WS503_USAGE
/// diagnostic naming the offending clause on a malformed spec (no site
/// state is changed in that case).
Status configure(const std::string &Spec, uint64_t Seed = 0);

/// Reads WIRESORT_FAILPOINTS / WIRESORT_FAILPOINT_SEED and configures
/// accordingly (no-op when unset). Also interns the `fault.*` trace
/// counters so they are visible — at zero — in every stats report.
Status configureFromEnv();

/// Disarms every site and resets its hit/fire counts. Tests sandwich
/// their schedules between configure()/disarmAll() so state never leaks
/// across trials.
void disarmAll();

/// Number of currently armed sites (cheap; for assertions and smokes).
size_t armedCount();

/// Names of every interned site, sorted (the registry listing
/// docs/ROBUSTNESS.md is checked against).
std::vector<std::string> siteNames();

} // namespace wiresort::support::failpoint

/// The injection-site macro: evaluates to true when the named fault
/// should fire at this hit. NAME must be a string literal; the site
/// lookup happens once per call site (function-local static).
#define WS_FAILPOINT(NAME)                                                   \
  ([]() -> bool {                                                            \
    static ::wiresort::support::failpoint::Site &WsFpSite =                  \
        ::wiresort::support::failpoint::site(NAME);                          \
    return WsFpSite.shouldFire();                                            \
  }())

#endif // WIRESORT_SUPPORT_FAILPOINT_H
