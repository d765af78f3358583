//===- tests/analysis/SummaryEngineTest.cpp - Engine unit tests -----------===//
//
// Part of the wiresort project. Unit coverage for the parallel cached
// Stage-1 driver: level scheduling over diamond hierarchies, the calling
// thread's share of a round, cache hit and miss accounting at pinned
// thread counts, content-identical twins,
// concurrent calls on one engine, content-addressed keys
// (design-independent, renaming-insensitive, sub-summary-sensitive),
// ascription, and the disk sidecar. The cross-cutting guarantees
// (verdict equals the flattened oracle, determinism across thread
// counts) live in tests/property/.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "analysis/SortInference.h"
#include "analysis/SummaryIO.h"
#include "gen/Fifo.h"
#include "gen/LoopInjector.h"
#include "ir/Builder.h"
#include "support/FailPoint.h"
#include "support/Trace.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <thread>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

/// Thread counts the schedule-sensitive cases pin, whatever the host
/// has: the counters must not depend on them.
constexpr unsigned PinnedThreads[] = {1, 2, 4, 8};

/// leaf <- mid_a, leaf <- mid_b, {mid_a, mid_b} <- top: the classic
/// diamond. \returns {leaf, mid_a, mid_b, top}.
std::vector<ModuleId> buildDiamond(Design &D) {
  ModuleId Leaf = D.addModule(gen::makeFifo({8, 2, /*Forwarding=*/true}));

  std::vector<ModuleId> Ids = {Leaf};
  for (const char *Name : {"mid_a", "mid_b"}) {
    Circuit Mid(D, Name);
    InstId Front = Mid.addInstance(Leaf, "front");
    InstId Back = Mid.addInstance(Leaf, "back");
    Mid.connect(Front, "v_o", Back, "v_i");
    Ids.push_back(Mid.seal());
  }

  Circuit Top(D, "top");
  InstId A = Top.addInstance(Ids[1], "a");
  InstId B = Top.addInstance(Ids[2], "b");
  Top.connect(A, "back.v_o", B, "front.v_i");
  Ids.push_back(Top.seal());
  return Ids;
}

Summaries engineAnalyzeOrDie(SummaryEngine &Engine, const Design &D,
                             AnalyzeOutcome *Outcome = nullptr) {
  Summaries Out;
  auto Loop = Engine.analyze(D, Out, {}, {}, Outcome);
  EXPECT_FALSE(Loop.hasError()) << Loop.describe();
  return Out;
}

void expectAllEqual(const Summaries &A, const Summaries &B) {
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Id, S] : A)
    EXPECT_TRUE(structurallyEqual(S, B.at(Id))) << "module id " << Id;
}

/// A tiny module with a fixed shape; \p Twist changes the body, \p Name
/// only the label.
Module makeCone(const std::string &Name, bool Twist) {
  Builder B(Name);
  V X = B.input("x", 1);
  V Y = B.input("y", 1);
  V T = Twist ? B.andv(X, Y) : B.xorv(X, Y);
  B.output("z", B.notv(T));
  return B.finish();
}

/// a = a & b: a one-net internal combinational loop. \p Name is the only
/// difference between two of these, so they share a cache key.
Module makeSelfLoop(const std::string &Name) {
  Module M(Name);
  WireId A = M.addWire("a", WireKind::Basic, 1);
  WireId B = M.addInput("b", 1);
  WireId Y = M.addOutput("y", 1);
  M.addNet(Op::And, {A, B}, A);
  M.addNet(Op::Buf, {A}, Y);
  return M;
}

/// Arms a failpoint schedule for one scope and disarms everything on
/// exit, so a failed assertion cannot leak it into later tests.
struct ArmedFailpoints {
  explicit ArmedFailpoints(const std::string &Spec) {
    support::failpoint::disarmAll();
    EXPECT_TRUE(support::failpoint::configure(Spec).empty()) << Spec;
  }
  ~ArmedFailpoints() { support::failpoint::disarmAll(); }
};

} // namespace

TEST(SummaryEngineTest, DiamondMatchesSerialAnalyzeDesign) {
  for (unsigned Threads : {1u, 4u}) {
    Design D;
    buildDiamond(D);

    Summaries Reference;
    ASSERT_FALSE(analyzeDesign(D, Reference).hasError());

    SummaryEngine Engine(EngineConfig{Threads, true});
    AnalyzeOutcome Outcome;
    Summaries Out = engineAnalyzeOrDie(Engine, D, &Outcome);
    expectAllEqual(Reference, Out);
    EXPECT_EQ(Outcome.Stats.Modules, D.numModules());
  }
}

TEST(SummaryEngineTest, DiamondSchedulesDependenciesBeforeDependents) {
  // The engine must summarize leaf before mids before top; since
  // inferSummary asserts its sub-summaries exist, a wrong order dies
  // loudly. Verify the observable part: every module got a summary and
  // the sub-summary-dependent keys differ across levels.
  Design D;
  std::vector<ModuleId> Ids = buildDiamond(D);
  SummaryEngine Engine;
  AnalyzeOutcome Outcome;
  Summaries Out = engineAnalyzeOrDie(Engine, D, &Outcome);
  ASSERT_EQ(Out.size(), D.numModules());
  const std::vector<uint64_t> &Keys = Outcome.Keys;
  // mid_a and mid_b are separate seals with identical shape: same key.
  EXPECT_EQ(Keys.at(Ids[1]), Keys.at(Ids[2]));
  EXPECT_NE(Keys.at(Ids[0]), Keys.at(Ids[1]));
  EXPECT_NE(Keys.at(Ids[1]), Keys.at(Ids[3]));
}

TEST(SummaryEngineTest, CallingThreadInfersTheLargestModule) {
  // One round of three independent modules of different sizes, the
  // largest in the middle of the id order. The calling thread is one of
  // the Threads: it hashes the keys beside the pool under one
  // engine.keys span and infers the round's largest module itself.
  Design Rtl, D;
  for (uint16_t DepthLog2 : {6, 8, 4})
    D.addModule(synth::lower(
        Rtl, Rtl.addModule(gen::makeFifo({8, DepthLog2, true}))));
  const std::string Largest = D.module(1).Name;
  for (unsigned Threads : {2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    SummaryEngine Engine(EngineConfig{Threads, true});
    trace::Session Session;
    AnalyzeOutcome Outcome;
    Summaries Out = engineAnalyzeOrDie(Engine, D, &Outcome);
    ASSERT_FALSE(Session.finish().hasError());
    EXPECT_EQ(Out.size(), 3u);
    EXPECT_EQ(Outcome.Stats.Inferred, 3u);
    EXPECT_EQ(Outcome.Stats.ThreadsUsed, Threads);

    std::vector<uint32_t> AnalyzeTids, KeysTids, LargestTids;
    std::set<uint32_t> ModuleTids;
    for (const trace::SpanRecord &R : Session.spans()) {
      if (R.Name == "engine.analyze")
        AnalyzeTids.push_back(R.Tid);
      if (R.Name == "engine.keys")
        KeysTids.push_back(R.Tid);
      if (R.Name != "engine.module")
        continue;
      ModuleTids.insert(R.Tid);
      for (const auto &[Key, Value] : R.Args)
        if (Key == "module" && Value == Largest)
          LargestTids.push_back(R.Tid);
    }
    ASSERT_EQ(AnalyzeTids.size(), 1u);
    EXPECT_EQ(KeysTids, AnalyzeTids);
    EXPECT_EQ(LargestTids, AnalyzeTids);
    EXPECT_LE(ModuleTids.size(), Threads);
  }
}

TEST(SummaryEngineTest, CacheAccountingColdAndWarm) {
  for (unsigned Threads : PinnedThreads) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    Design D;
    buildDiamond(D);
    SummaryEngine Engine(EngineConfig{Threads, true});

    AnalyzeOutcome ColdRun;
    engineAnalyzeOrDie(Engine, D, &ColdRun);
    const EngineStats &Cold = ColdRun.Stats;
    EXPECT_EQ(Cold.Modules, D.numModules());
    // mid_b is content-identical to mid_a, so even the cold pass serves
    // it from the cache.
    EXPECT_EQ(Cold.Inferred, D.numModules() - 1);
    EXPECT_EQ(Cold.CacheHits, 1u);
    EXPECT_EQ(Engine.cache().misses(), D.numModules() - 1);

    AnalyzeOutcome WarmRun;
    engineAnalyzeOrDie(Engine, D, &WarmRun);
    const EngineStats &Warm = WarmRun.Stats;
    EXPECT_EQ(Warm.Inferred, 0u);
    EXPECT_EQ(Warm.CacheHits, D.numModules());
    // The cache holds one entry per distinct content.
    EXPECT_EQ(Engine.cache().size(), D.numModules() - 1);
  }
}

TEST(SummaryEngineTest, RenamingIsKeyNeutralBodyEditIsNot) {
  Design D;
  ModuleId A = D.addModule(makeCone("cone_a", false));
  ModuleId B = D.addModule(makeCone("cone_b", false)); // Renamed only.
  ModuleId C = D.addModule(makeCone("cone_c", true));  // Different body.
  SummaryEngine Engine;
  AnalyzeOutcome Outcome;
  Summaries Out = engineAnalyzeOrDie(Engine, D, &Outcome);

  EXPECT_EQ(Outcome.Keys.at(A), Outcome.Keys.at(B));
  EXPECT_NE(Outcome.Keys.at(A), Outcome.Keys.at(C));
  // The shared entry still reports each module's own identity.
  EXPECT_EQ(Out.at(B).ModuleName, "cone_b");
  EXPECT_EQ(Out.at(B).Id, B);
}

TEST(SummaryEngineTest, LeafEditInvalidatesTransitiveInstantiators) {
  for (unsigned Threads : PinnedThreads) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    Design D;
    std::vector<ModuleId> Ids = buildDiamond(D);
    SummaryEngine Engine(EngineConfig{Threads, true});
    AnalyzeOutcome First;
    engineAnalyzeOrDie(Engine, D, &First);
    std::vector<uint64_t> Before;
    for (ModuleId Id : Ids)
      Before.push_back(First.Keys.at(Id));

    // Edit the leaf: a summary-neutral pair of inverters off a constant.
    Module &Leaf = D.module(Ids[0]);
    WireId C0 = Leaf.addWire("edit_c", WireKind::Const, 1, 0);
    WireId W = Leaf.addWire("edit_w", WireKind::Basic, 1);
    Leaf.addNet(Op::Not, {C0}, W);

    AnalyzeOutcome Edited;
    engineAnalyzeOrDie(Engine, D, &Edited);
    // Everything re-keys (leaf body changed; the rest via sub-summary
    // keys), so everything re-infers even though the summaries are
    // unchanged.
    for (size_t I = 0; I != Ids.size(); ++I)
      EXPECT_NE(Edited.Keys.at(Ids[I]), Before[I]) << "module " << I;
    EXPECT_EQ(Edited.Stats.CacheHits, 1u); // mid_b off fresh mid_a.
    EXPECT_EQ(Edited.Stats.Inferred, D.numModules() - 1);
  }
}

TEST(SummaryEngineTest, KeysAreDesignIndependent) {
  // Same content at different module ids (a dummy shifts everything)
  // must produce the same keys — the "content-addressed" in the name.
  Design D1;
  ModuleId L1 = D1.addModule(gen::makeFifo({8, 2, true}));
  Circuit C1(D1, "wrap");
  C1.addInstance(L1, "inner");
  ModuleId W1 = C1.seal();

  Design D2;
  D2.addModule(makeCone("dummy", false));
  ModuleId L2 = D2.addModule(gen::makeFifo({8, 2, true}));
  Circuit C2(D2, "wrap");
  C2.addInstance(L2, "inner");
  ModuleId W2 = C2.seal();

  SummaryEngine Engine;
  AnalyzeOutcome First, Second;
  engineAnalyzeOrDie(Engine, D1, &First);
  uint64_t KeyL = First.Keys.at(L1), KeyW = First.Keys.at(W1);

  engineAnalyzeOrDie(Engine, D2, &Second);
  EXPECT_EQ(Second.Keys.at(L2), KeyL);
  EXPECT_EQ(Second.Keys.at(W2), KeyW);
  // And the shared cache served both across the design boundary.
  EXPECT_GE(Second.Stats.CacheHits, 2u);
}

TEST(SummaryEngineTest, DisabledCacheNeverHits) {
  Design D;
  buildDiamond(D);
  SummaryEngine Engine(EngineConfig{0, false});
  Summaries First = engineAnalyzeOrDie(Engine, D);
  AnalyzeOutcome Outcome;
  Summaries Second = engineAnalyzeOrDie(Engine, D, &Outcome);
  EXPECT_EQ(Outcome.Stats.CacheHits, 0u);
  EXPECT_EQ(Outcome.Stats.Inferred, D.numModules());
  EXPECT_EQ(Engine.cache().size(), 0u);
  expectAllEqual(First, Second);
}

TEST(SummaryEngineTest, CacheCountersCanBePolledDuringLookups) {
  // The daemon's stats method reads hits()/misses() on one worker while
  // check requests look up on others; run under TSan, this pins that
  // both accessors synchronize with lookup().
  SummaryCache Cache;
  Cache.insert(1, ModuleSummary());
  constexpr size_t Lookups = 20000;
  std::atomic<bool> Started{false}, Done{false};
  size_t MaxSeen = 0;
  std::thread Poller([&] {
    Started.store(true);
    while (!Done.load())
      MaxSeen = std::max(MaxSeen, Cache.hits() + Cache.misses());
  });
  while (!Started.load())
    std::this_thread::yield();
  for (size_t I = 0; I != Lookups; ++I)
    (void)Cache.lookup(I % 2, 0, "m");
  Done.store(true);
  Poller.join();
  EXPECT_LE(MaxSeen, Lookups);
  EXPECT_EQ(Cache.hits(), Lookups / 2);
  EXPECT_EQ(Cache.misses(), Lookups / 2);
}

TEST(SummaryEngineTest, ConcurrentCallsOnOneEngineMatchTheirSoloRuns) {
  // The re-entrancy contract: analyze() keeps every per-call artifact in
  // the caller's outcome, so concurrent calls on one engine each get
  // exactly what a solo run on a fresh engine gets. Only the hit/infer
  // split may move, because the threads share the cache (the ring's leaf
  // is the diamond's); together they still count every summary.
  struct Case {
    Design D;
    Summaries Ascribed;
    std::string Json;
    Summaries Out;
    std::vector<uint64_t> Keys;
  };
  std::vector<Case> Cases(4);
  buildDiamond(Cases[0].D);
  Cases[1].D.addModule(makeCone("cone_a", false));
  Cases[1].D.addModule(makeCone("cone_b", false));
  {
    Design &D = Cases[2].D;
    ModuleId A = D.addModule(gen::makeFifo({8, 2, true}));
    gen::buildLoopedRing(D, {A, A}, "ring").seal();
  }
  {
    Design &D = Cases[3].D;
    ModuleId Leaf = D.addModule(gen::makeFifo({8, 2, true}));
    Circuit C(D, "wrap");
    C.addInstance(Leaf, "inner");
    C.seal();
    Summaries Reference;
    ASSERT_FALSE(analyzeDesign(D, Reference).hasError());
    Cases[3].Ascribed = {{Leaf, Reference.at(Leaf)}};
  }
  const EngineConfig Cfg{2, true};
  for (Case &C : Cases) {
    SummaryEngine Solo(Cfg);
    AnalyzeOutcome Outcome;
    C.Json = support::renderJson(
        Solo.analyze(C.D, C.Out, C.Ascribed, {}, &Outcome));
    C.Keys = SummaryEngine::computeKeys(C.D, C.Ascribed);
    EXPECT_EQ(Outcome.Keys, C.Keys);
  }
  ASSERT_NE(Cases[2].Json.find("WS101"), std::string::npos) << Cases[2].Json;

  struct Call {
    std::string Json;
    Summaries Out;
    AnalyzeOutcome Outcome;
  };
  constexpr int CallsPerThread = 6;
  std::vector<std::vector<Call>> Got(Cases.size());
  SummaryEngine Shared(Cfg);
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != Cases.size(); ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I != CallsPerThread; ++I) {
        Call C;
        C.Json = support::renderJson(Shared.analyze(
            Cases[T].D, C.Out, Cases[T].Ascribed, {}, &C.Outcome));
        Got[T].push_back(std::move(C));
      }
    });
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();

  for (size_t T = 0; T != Cases.size(); ++T) {
    const Case &Solo = Cases[T];
    for (size_t I = 0; I != Got[T].size(); ++I) {
      SCOPED_TRACE("design " + std::to_string(T) + " call " +
                   std::to_string(I));
      const Call &C = Got[T][I];
      EXPECT_EQ(C.Json, Solo.Json);
      expectAllEqual(Solo.Out, C.Out);
      EXPECT_EQ(C.Outcome.Keys, Solo.Keys);
      const EngineStats &S = C.Outcome.Stats;
      EXPECT_EQ(S.Modules, Solo.D.numModules());
      EXPECT_EQ(S.Inferred + S.CacheHits + S.Ascribed, C.Out.size());
    }
  }
}

TEST(SummaryEngineTest, AscribedModulesAreTakenAsIs) {
  Design D;
  ModuleId Leaf = D.addModule(gen::makeFifo({8, 2, true}));
  Circuit C(D, "wrap");
  C.addInstance(Leaf, "inner");
  C.seal();

  Summaries Reference;
  ASSERT_FALSE(analyzeDesign(D, Reference).hasError());
  Summaries Ascribed = {{Leaf, Reference.at(Leaf)}};

  SummaryEngine Engine;
  Summaries Out;
  AnalyzeOutcome Outcome;
  ASSERT_FALSE(Engine.analyze(D, Out, Ascribed, {}, &Outcome).hasError());
  EXPECT_EQ(Outcome.Stats.Ascribed, 1u);
  expectAllEqual(Reference, Out);
}

TEST(SummaryEngineTest, LoopVerdictMatchesSerialDiagnostic) {
  for (unsigned Threads : {1u, 4u}) {
    Design D;
    ModuleId A = D.addModule(gen::makeFifo({8, 2, true}));
    Circuit Ring = gen::buildLoopedRing(D, {A, A}, "ring");
    Ring.seal();

    Summaries Reference;
    wiresort::support::Status Serial = analyzeDesign(D, Reference);
    ASSERT_TRUE(Serial.hasError());

    SummaryEngine Engine(EngineConfig{Threads, true});
    Summaries Out;
    support::Status Verdict = Engine.analyze(D, Out);
    ASSERT_TRUE(Verdict.hasError());
    EXPECT_EQ(Verdict.describe(), Serial.describe());
  }
}

TEST(SummaryEngineTest, LoopedTwinsEachReportTheirOwnLoop) {
  // Twins share a key, so the second waits one round for the first. A
  // failed leader caches nothing: the twin then infers itself and reports
  // its own WS101, exactly the list serial analyzeDesign emits.
  Design D;
  D.addModule(makeSelfLoop("loop_a"));
  D.addModule(makeSelfLoop("loop_b"));
  Summaries Reference;
  support::Status Serial = analyzeDesign(D, Reference);
  ASSERT_EQ(Serial.size(), 2u) << Serial.describe();
  EXPECT_NE(Serial.describe().find("loop_a.a"), std::string::npos);
  EXPECT_NE(Serial.describe().find("loop_b.a"), std::string::npos);

  for (unsigned Threads : PinnedThreads) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    SummaryEngine Engine(EngineConfig{Threads, true});
    Summaries Out;
    AnalyzeOutcome Outcome;
    support::Status Verdict = Engine.analyze(D, Out, {}, {}, &Outcome);
    EXPECT_EQ(Verdict.describe(), Serial.describe());
    EXPECT_TRUE(Out.empty());
    EXPECT_EQ(Outcome.Stats.Inferred, 0u);
    EXPECT_EQ(Outcome.Stats.CacheHits, 0u);
    EXPECT_EQ(Engine.cache().size(), 0u);
  }
}

TEST(SummaryEngineTest, PanickedLeaderLeavesItsTwinToInferItself) {
  // The panic stays with the module that threw: its twin is not failed
  // along with it, but infers itself in the next round (nth(1) has
  // already fired) and succeeds — at every thread count.
  for (unsigned Threads : PinnedThreads) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    Design D;
    ModuleId A = D.addModule(makeCone("cone_a", false));
    ModuleId B = D.addModule(makeCone("cone_b", false));
    SummaryEngine Engine(EngineConfig{Threads, true});
    Summaries Out;
    support::Status Verdict;
    AnalyzeOutcome Outcome;
    {
      ArmedFailpoints Armed("engine.module.throw=nth(1)");
      Verdict = Engine.analyze(D, Out, {}, {}, &Outcome);
    }
    ASSERT_EQ(Verdict.size(), 1u) << Verdict.describe();
    EXPECT_EQ(Verdict.firstError().code(),
              support::DiagCode::WS604_WORKER_PANIC);
    EXPECT_EQ(Verdict.firstError().note("module"), "cone_a");
    EXPECT_EQ(Out.count(A), 0u);
    ASSERT_EQ(Out.count(B), 1u);
    EXPECT_EQ(Out.at(B).ModuleName, "cone_b");
    EXPECT_EQ(Outcome.Stats.Panicked, 1u);
    EXPECT_EQ(Outcome.Stats.Inferred, 1u);
    EXPECT_EQ(Outcome.Stats.CacheHits, 0u);
  }
}

TEST(SummaryEngineTest, SidecarRoundTripWarmsAFreshEngine) {
  Design D;
  buildDiamond(D);
  std::string Path =
      ::testing::TempDir() + "/summary_engine_roundtrip.wsort";

  SummaryEngine Writer;
  AnalyzeOutcome Written;
  Summaries Out = engineAnalyzeOrDie(Writer, D, &Written);
  ASSERT_TRUE(SummaryEngine::saveCache(Path, D, Out, Written.Keys).empty());

  SummaryEngine Reader;
  auto Loaded = Reader.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_GT(Loaded->Loaded, 0u);
  EXPECT_EQ(Loaded->Quarantined, 0u);
  EXPECT_TRUE(Loaded->Warnings.empty());

  AnalyzeOutcome Read;
  Summaries Warm = engineAnalyzeOrDie(Reader, D, &Read);
  EXPECT_EQ(Read.Stats.Inferred, 0u);
  EXPECT_EQ(Read.Stats.CacheHits, D.numModules());
  expectAllEqual(Out, Warm);
  std::remove(Path.c_str());
}

TEST(SummaryEngineTest, MissingAndStaleSidecarsAreHarmless) {
  for (unsigned Threads : PinnedThreads) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    Design D;
    buildDiamond(D);
    SummaryEngine Engine(EngineConfig{Threads, true});

    auto Missing = Engine.loadCache(
        ::testing::TempDir() + "/does_not_exist.wsort", D);
    ASSERT_TRUE(Missing.hasValue()) << Missing.describe();
    EXPECT_EQ(Missing->Loaded, 0u);

    // A sidecar written for an older body: keys no longer match, so the
    // entries load but never hit.
    std::string Path = ::testing::TempDir() + "/summary_engine_stale.wsort";
    AnalyzeOutcome Written;
    Summaries Out = engineAnalyzeOrDie(Engine, D, &Written);
    ASSERT_TRUE(SummaryEngine::saveCache(Path, D, Out, Written.Keys).empty());

    Design Edited;
    std::vector<ModuleId> Ids = buildDiamond(Edited);
    Module &Leaf = Edited.module(Ids[0]);
    WireId C0 = Leaf.addWire("edit_c", WireKind::Const, 1, 0);
    WireId W = Leaf.addWire("edit_w", WireKind::Basic, 1);
    Leaf.addNet(Op::Not, {C0}, W);

    SummaryEngine Fresh(EngineConfig{Threads, true});
    auto Loaded = Fresh.loadCache(Path, Edited);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
    AnalyzeOutcome Rerun;
    engineAnalyzeOrDie(Fresh, Edited, &Rerun);
    EXPECT_EQ(Rerun.Stats.CacheHits, 1u); // Only the mid_a/mid_b share.
    std::remove(Path.c_str());
  }
}

TEST(SummaryEngineTest, StaleBinaryCacheEntriesAreSkippedSilently) {
  // The v3 equivalent of cross-design staleness: a cache saved against
  // one design, loaded against a design missing those modules. Every
  // record passes its framing checksum but fails to resolve — provably
  // stale, skipped without a warning.
  Design A;
  buildDiamond(A);
  SummaryEngine Writer;
  AnalyzeOutcome Written;
  Summaries Out = engineAnalyzeOrDie(Writer, A, &Written);
  std::string Path = ::testing::TempDir() + "/summary_engine_stale.wsort";
  ASSERT_TRUE(SummaryEngine::saveCache(Path, A, Out, Written.Keys).empty());

  Design B; // Same leaf, no diamond: only the fifo records resolve.
  B.addModule(gen::makeFifo({8, 2, /*Forwarding=*/true}));
  SummaryEngine Reader;
  auto Loaded = Reader.loadCache(Path, B);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_EQ(Loaded->Loaded, 1u); // The shared fifo module.
  EXPECT_EQ(Loaded->Quarantined, 0u);
  EXPECT_TRUE(Loaded->Warnings.empty()) << Loaded->Warnings.describe();
  std::remove(Path.c_str());
}

TEST(SummaryEngineTest, SavedCacheIsAWireStreamAndReloadsWarm) {
  // The disk round trip in the current (v3) format: saveCache writes a
  // sniffable wire stream, a fresh engine reloads every record with no
  // warnings, and the warm run re-infers nothing.
  Design D;
  buildDiamond(D);
  SummaryEngine Writer;
  AnalyzeOutcome Written;
  Summaries Out = engineAnalyzeOrDie(Writer, D, &Written);
  std::string Path = ::testing::TempDir() + "/summary_engine_v3.wsort";
  ASSERT_TRUE(SummaryEngine::saveCache(Path, D, Out, Written.Keys).empty());
  {
    std::ifstream In(Path, std::ios::binary);
    char First = 0;
    ASSERT_TRUE(In.get(First));
    EXPECT_EQ(static_cast<unsigned char>(First), 0xD7u);
  }

  SummaryEngine Reader;
  auto Loaded = Reader.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_EQ(Loaded->Loaded, Out.size());
  EXPECT_TRUE(Loaded->Warnings.empty()) << Loaded->Warnings.describe();
  AnalyzeOutcome Read;
  Summaries Warm = engineAnalyzeOrDie(Reader, D, &Read);
  EXPECT_EQ(Read.Stats.Inferred, 0u);
  EXPECT_EQ(Read.Stats.CacheHits, D.numModules());
  expectAllEqual(Out, Warm);
  std::remove(Path.c_str());
}

TEST(SummaryEngineTest, NonSidecarFilesAreRejectedByLoadCache) {
  Design D;
  buildDiamond(D);
  SummaryEngine Engine;
  std::string Path = ::testing::TempDir() + "/summary_engine_bogus.wsort";
  auto contents = [&]() {
    std::ifstream In(Path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In), {});
  };

  std::ofstream(Path) << "this is not a sidecar\n";
  auto Bogus = Engine.loadCache(Path, D);
  ASSERT_FALSE(Bogus.hasValue());
  EXPECT_EQ(Bogus.diags().firstError().code(),
            support::DiagCode::WS502_CACHE_FORMAT);
  EXPECT_NE(Bogus.describe().find("bad magic"), std::string::npos)
      << Bogus.describe();

  // A pre-v3 text cache is refused the same way and left byte-identical:
  // loadCache never rewrites a file it cannot read.
  SummaryEngine Writer;
  AnalyzeOutcome Written;
  Summaries Out = engineAnalyzeOrDie(Writer, D, &Written);
  std::ostringstream Legacy;
  Legacy << "# wiresort summary cache v2\n";
  for (const auto &[Id, S] : Out)
    Legacy << "# key " << D.module(Id).Name << ' ' << std::hex
           << Written.Keys.at(Id) << std::dec << '\n';
  Legacy << writeSummaries(D, Out);
  std::ofstream(Path) << Legacy.str();
  auto V2 = Engine.loadCache(Path, D);
  ASSERT_FALSE(V2.hasValue());
  EXPECT_EQ(V2.diags().firstError().code(),
            support::DiagCode::WS502_CACHE_FORMAT);
  EXPECT_NE(V2.describe().find("bad magic"), std::string::npos)
      << V2.describe();
  EXPECT_EQ(contents(), Legacy.str());

  // An empty file is a cold start, like a missing one.
  std::ofstream(Path).flush();
  auto Empty = Engine.loadCache(Path, D);
  ASSERT_TRUE(Empty.hasValue()) << Empty.describe();
  EXPECT_EQ(Empty->Loaded, 0u);
  EXPECT_TRUE(Empty->Warnings.empty()) << Empty->Warnings.describe();
  std::remove(Path.c_str());
}
