//===- tests/property/FaultSoakTest.cpp - Randomized fault soak -----------===//
//
// Part of the wiresort project. The robustness acceptance bar
// (docs/ROBUSTNESS.md): 200 seeded trials, each running the full
// load-cache / analyze / save-cache pipeline over a random design with a
// randomized failpoint schedule armed, must satisfy
//
//  * cache-fault-only schedules leave the verdict byte-identical to the
//    fault-free run (the cache can only ever cost warm starts);
//  * cancel/panic schedules either match the fault-free verdict or fail
//    *closed*: only WS601/WS604 (plus the fault-free run's own loop
//    diags) appear, and every summary actually delivered is structurally
//    identical to its fault-free counterpart — partial, never wrong;
//  * the on-disk cache is never torn: after every trial a disarmed
//    process loads it back with zero quarantined records.
//
// No crash, no hang, no corrupt file, no wrong verdict — by running,
// not by argument. (The process-killing cache.save.partial fault is
// exercised separately by CrashRecoveryTest; everything else is armed
// here.)
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "gen/Random.h"
#include "ir/Builder.h"
#include "support/Deadline.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <random>
#include <set>
#include <string>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::gen;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

RandomCircuitParams paramsFor(uint32_t Seed) {
  RandomCircuitParams P;
  P.NModuleDefs = 2 + Seed % 4;
  P.NInstances = 3 + Seed % 9;
  P.PConnect = 0.5 + 0.4 * ((Seed % 5) / 5.0);
  P.ModuleShape.NInputs = 2 + Seed % 4;
  P.ModuleShape.NOutputs = 2 + Seed % 3;
  P.ModuleShape.NGates = 8 + Seed % 20;
  P.ModuleShape.PReg = 0.1 + 0.6 * ((Seed % 7) / 7.0);
  return P;
}

/// Faults that only touch cache persistence: the verdict must not move.
const char *const CacheSites[] = {
    "cache.save.open", "cache.save.write",  "cache.save.fsync",
    "cache.save.rename", "cache.load.read", "cache.load.corrupt",
};
/// Faults that abandon or kill work mid-run: fail closed, never wrong.
const char *const CancelSites[] = {
    "engine.cancel",
    "engine.module.throw",
    "kernel.cancel",
};

/// One randomized schedule: 1-3 sites drawn from \p Pool (and, for mixed
/// trials, a second pool), each with a random trigger.
std::string randomSchedule(std::mt19937 &Rng, bool UseCache,
                           bool UseCancel) {
  auto mode = [&]() -> std::string {
    switch (Rng() % 3) {
    case 0:
      return "always";
    case 1:
      return "nth(" + std::to_string(1 + Rng() % 8) + ")";
    default:
      return "prob(0." + std::to_string(2 + Rng() % 7) + ")";
    }
  };
  std::set<std::string> Picked;
  unsigned N = 1 + Rng() % 3;
  for (unsigned I = 0; I != N; ++I) {
    bool FromCache = UseCache && (!UseCancel || Rng() % 2 == 0);
    const char *const *Pool = FromCache ? CacheSites : CancelSites;
    size_t Size = FromCache ? std::size(CacheSites) : std::size(CancelSites);
    Picked.insert(std::string(Pool[Rng() % Size]) + "=" + mode());
  }
  std::string Spec;
  for (const std::string &Clause : Picked)
    Spec += (Spec.empty() ? "" : ",") + Clause;
  return Spec;
}

class FaultSoakTrial : public ::testing::TestWithParam<uint32_t> {
protected:
  void SetUp() override { support::failpoint::disarmAll(); }
  void TearDown() override { support::failpoint::disarmAll(); }
};

} // namespace

TEST_P(FaultSoakTrial, FaultsNeverCorruptCacheOrVerdict) {
  const uint32_t Seed = GetParam();
  std::mt19937 Rng(Seed ^ 0xfa517050u);
  // Trial class rotates: cache-only, cancel-only, mixed.
  const bool UseCache = Seed % 3 != 1;
  const bool UseCancel = Seed % 3 != 0;
  const std::string Spec = randomSchedule(Rng, UseCache, UseCancel);
  const unsigned Threads = Seed % 2 ? 1 : 4;
  const std::string Trial = "seed " + std::to_string(Seed) + " threads " +
                            std::to_string(Threads) + " spec '" + Spec +
                            "'";

  Design D;
  {
    std::mt19937 DesignRng(Seed);
    randomCircuit(DesignRng, D, paramsFor(Seed), "soak").seal();
  }

  const EngineConfig Opts{Threads, true};
  std::string Path = ::testing::TempDir() + "/fault_soak_" +
                     std::to_string(Seed) + ".wscache";
  std::remove(Path.c_str());
  std::remove((Path + ".tmp").c_str());

  // --- Fault-free reference: verdict bytes, summaries, and the cache
  // --- file the faulty run starts from.
  SummaryEngine Ref(Opts);
  Summaries RefOut;
  AnalyzeOutcome RefRun;
  support::Status RefVerdict = Ref.analyze(D, RefOut, {}, {}, &RefRun);
  const std::string RefJson = support::renderJson(RefVerdict);
  ASSERT_TRUE(SummaryEngine::saveCache(Path, D, RefOut, RefRun.Keys).empty())
      << Trial;

  // --- The faulty run: same pipeline, schedule armed, a live (but
  // --- never naturally expiring) deadline so the DL-gated kernel
  // --- cancel site is reachable.
  ASSERT_TRUE(
      support::failpoint::configure(Spec, /*Seed=*/Seed).empty())
      << Trial;
  SummaryEngine Faulty(Opts);
  auto Loaded = Faulty.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue())
      << Trial << ": intact cache rejected\n" << Loaded.describe();
  Summaries FaultyOut;
  AnalyzeOutcome FaultyRun;
  support::Status FaultyVerdict = Faulty.analyze(
      D, FaultyOut, {}, support::Deadline::afterMs(60000), &FaultyRun);
  support::Status SaveStatus =
      SummaryEngine::saveCache(Path, D, FaultyOut, FaultyRun.Keys);
  EXPECT_FALSE(SaveStatus.hasError())
      << Trial << ": cache faults must degrade to warnings\n"
      << SaveStatus.describe();
  support::failpoint::disarmAll();

  // --- Partial progress is never wrong progress: every delivered
  // --- summary matches its fault-free counterpart exactly.
  for (const auto &[Id, S] : FaultyOut) {
    ASSERT_TRUE(RefOut.count(Id))
        << Trial << ": module " << Id
        << " summarized under faults but not fault-free";
    EXPECT_TRUE(structurallyEqual(S, RefOut.at(Id)))
        << Trial << ": module " << Id << " summary diverged";
  }

  const std::string FaultyJson = support::renderJson(FaultyVerdict);
  if (!UseCancel) {
    // Cache faults must be invisible to the verdict, byte for byte.
    EXPECT_EQ(FaultyJson, RefJson) << Trial;
    EXPECT_EQ(FaultyOut.size(), RefOut.size()) << Trial;
  } else if (FaultyJson != RefJson) {
    // A moved verdict must have declared itself: cancellation (WS601)
    // or a contained panic (WS604) — and nothing else beyond the
    // fault-free run's own loop diagnostics.
    std::set<std::string> RefDiags;
    for (const support::Diag &Dg : RefVerdict)
      RefDiags.insert(Dg.describe());
    bool FailedClosed = false;
    for (const support::Diag &Dg : FaultyVerdict) {
      switch (Dg.code()) {
      case support::DiagCode::WS601_CANCELLED:
      case support::DiagCode::WS604_WORKER_PANIC:
        FailedClosed = true;
        break;
      default:
        EXPECT_TRUE(RefDiags.count(Dg.describe()))
            << Trial << ": novel non-fault diagnostic\n" << Dg.describe();
        break;
      }
    }
    EXPECT_TRUE(FailedClosed)
        << Trial << ": verdict moved without WS601/WS604\nfaulty:\n"
        << FaultyVerdict.describe() << "\nreference:\n"
        << RefVerdict.describe();
  }

  // --- The file at Path is a complete, checksum-clean cache no matter
  // --- which save/load faults fired: either the faulty save landed
  // --- atomically (FaultyOut records) or the reference file survived
  // --- untouched (RefOut records). Never torn, never quarantined.
  SummaryEngine Reload(Opts);
  auto Final = Reload.loadCache(Path, D);
  ASSERT_TRUE(Final.hasValue())
      << Trial << ": torn cache after faults\n" << Final.describe();
  EXPECT_EQ(Final->Quarantined, 0u) << Trial << "\n"
                                    << Final->Warnings.describe();
  EXPECT_TRUE(Final->Loaded == RefOut.size() ||
              Final->Loaded == FaultyOut.size())
      << Trial << ": loaded " << Final->Loaded << ", expected "
      << RefOut.size() << " or " << FaultyOut.size();

  std::remove(Path.c_str());
  std::remove((Path + ".tmp").c_str());
}

// The acceptance bar: >= 200 seeded schedules, zero crashes, hangs,
// torn caches, or wrong verdicts. Carries the ctest label "soak" so the
// sanitizer stage of tools/run_tests.sh can rerun exactly this suite.
INSTANTIATE_TEST_SUITE_P(RandomSchedules, FaultSoakTrial,
                         ::testing::Range<uint32_t>(0, 200));
