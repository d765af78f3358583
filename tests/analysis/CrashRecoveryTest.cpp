//===- tests/analysis/CrashRecoveryTest.cpp - Crash-safe cache ------------===//
//
// Part of the wiresort project. The saveCache atomicity claim
// (docs/ROBUSTNESS.md), tested for real: a child process is killed — via
// the cache.save.partial failpoint — after writing half the payload and
// before the rename, and the parent then proves the target path still
// holds exactly the previous cache, a fresh process loads it cleanly,
// and the warm verdict is unchanged. Torn bytes only ever live in the
// .tmp staging file.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "gen/Fifo.h"
#include "ir/Builder.h"
#include "ir/Circuit.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

/// leaf + two instances: small but multi-record, so a torn write has
/// something to tear between.
std::vector<ModuleId> buildPair(Design &D) {
  ModuleId Leaf = D.addModule(gen::makeFifo({8, 2, /*Forwarding=*/true}));
  Circuit Top(D, "top");
  InstId Front = Top.addInstance(Leaf, "front");
  InstId Back = Top.addInstance(Leaf, "back");
  Top.connect(Front, "v_o", Back, "v_i");
  return {Leaf, Top.seal()};
}

std::optional<std::string> slurp(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Runs saveCache in a forked child with cache.save.partial armed; the
/// failpoint writes half the payload into Path+".tmp" and _exit(125)s
/// before the rename. \returns the child's exit status.
int crashMidSave(const std::string &Path, const Design &D,
                 const Summaries &Out) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    support::failpoint::disarmAll();
    if (support::failpoint::configure("cache.save.partial=always")
            .hasError())
      ::_exit(110);
    (void)SummaryEngine::saveCache(
        Path, D, Out, SummaryEngine::computeKeys(D)); // _exit(125)s inside.
    ::_exit(111); // The failpoint did not fire: fail the test.
  }
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

} // namespace

TEST(CrashRecoveryTest, InterruptedSaveLeavesThePreviousCacheIntact) {
  Design D;
  buildPair(D);
  std::string Path = ::testing::TempDir() + "/crash_recovery.wscache";
  std::string Tmp = Path + ".tmp";
  std::remove(Path.c_str());
  std::remove(Tmp.c_str());

  // A healthy first save: this is the "previous cache" the crash must
  // not damage.
  const EngineConfig Serial{1, true};
  SummaryEngine Engine(Serial);
  Summaries Out;
  AnalyzeOutcome Outcome;
  ASSERT_FALSE(Engine.analyze(D, Out, {}, {}, &Outcome).hasError());
  ASSERT_TRUE(SummaryEngine::saveCache(Path, D, Out, Outcome.Keys).empty());
  std::optional<std::string> Old = slurp(Path);
  ASSERT_TRUE(Old.has_value());

  ASSERT_EQ(crashMidSave(Path, D, Out), 125);

  // The target is byte-identical to before the crash; the torn prefix
  // landed in .tmp: exactly half of the same payload, which tears the
  // record set midway.
  std::optional<std::string> After = slurp(Path);
  ASSERT_TRUE(After.has_value());
  EXPECT_EQ(*After, *Old);
  std::optional<std::string> Torn = slurp(Tmp);
  ASSERT_TRUE(Torn.has_value()) << "crash did not happen mid-write";
  EXPECT_EQ(Torn->size(), Old->size() / 2);
  std::remove(Tmp.c_str());

  // A fresh process (modeled by a fresh engine) recovers: every record
  // loads, nothing is quarantined, and the warm run re-infers nothing
  // and reaches the same verdict.
  SummaryEngine Fresh(Serial);
  auto Loaded = Fresh.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_EQ(Loaded->Loaded, Out.size());
  EXPECT_EQ(Loaded->Quarantined, 0u);
  EXPECT_TRUE(Loaded->Warnings.empty());
  Summaries Warm;
  AnalyzeOutcome WarmRun;
  EXPECT_FALSE(Fresh.analyze(D, Warm, {}, {}, &WarmRun).hasError());
  EXPECT_EQ(WarmRun.Stats.Inferred, 0u);
  EXPECT_EQ(WarmRun.Stats.CacheHits, D.numModules());
  ASSERT_EQ(Warm.size(), Out.size());
  for (const auto &[Id, S] : Out)
    EXPECT_TRUE(structurallyEqual(S, Warm.at(Id))) << "module " << Id;
  std::remove(Path.c_str());
}

TEST(CrashRecoveryTest, InterruptedFirstSaveLeavesNoCacheAtAll) {
  // No previous cache: after the crash the target must simply not
  // exist — a later run starts cold, it does not trip over torn bytes.
  Design D;
  buildPair(D);
  std::string Path =
      ::testing::TempDir() + "/crash_recovery_first.wscache";
  std::string Tmp = Path + ".tmp";
  std::remove(Path.c_str());
  std::remove(Tmp.c_str());

  const EngineConfig Serial{1, true};
  SummaryEngine Engine(Serial);
  Summaries Out;
  ASSERT_FALSE(Engine.analyze(D, Out).hasError());

  ASSERT_EQ(crashMidSave(Path, D, Out), 125);
  EXPECT_FALSE(slurp(Path).has_value());
  std::remove(Tmp.c_str());

  SummaryEngine Fresh(Serial);
  auto Loaded = Fresh.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_EQ(Loaded->Loaded, 0u);
}
