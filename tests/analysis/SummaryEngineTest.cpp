//===- tests/analysis/SummaryEngineTest.cpp - Engine unit tests -----------===//
//
// Part of the wiresort project. Unit coverage for the parallel cached
// Stage-1 driver: level scheduling over diamond hierarchies, cache hit
// and miss accounting at pinned thread counts, content-identical twins,
// content-addressed keys (design-independent, renaming-insensitive,
// sub-summary-sensitive), ascription, and the disk sidecar. The
// cross-cutting guarantees (verdict equals the flattened oracle,
// determinism across thread counts) live in tests/property/.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "analysis/SortInference.h"
#include "analysis/SummaryIO.h"
#include "gen/Fifo.h"
#include "gen/LoopInjector.h"
#include "ir/Builder.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
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

Summaries engineAnalyzeOrDie(SummaryEngine &Engine, const Design &D) {
  Summaries Out;
  auto Loop = Engine.analyze(D, Out);
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
    Summaries Out = engineAnalyzeOrDie(Engine, D);
    expectAllEqual(Reference, Out);
    EXPECT_EQ(Engine.stats().Modules, D.numModules());
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
  Summaries Out = engineAnalyzeOrDie(Engine, D);
  ASSERT_EQ(Out.size(), D.numModules());
  // mid_a and mid_b are separate seals with identical shape: same key.
  EXPECT_EQ(Engine.keyOf(Ids[1]), Engine.keyOf(Ids[2]));
  EXPECT_NE(Engine.keyOf(Ids[0]), Engine.keyOf(Ids[1]));
  EXPECT_NE(Engine.keyOf(Ids[1]), Engine.keyOf(Ids[3]));
}

TEST(SummaryEngineTest, CacheAccountingColdAndWarm) {
  for (unsigned Threads : PinnedThreads) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    Design D;
    buildDiamond(D);
    SummaryEngine Engine(EngineConfig{Threads, true});

    engineAnalyzeOrDie(Engine, D);
    const EngineStats &Cold = Engine.stats();
    EXPECT_EQ(Cold.Modules, D.numModules());
    // mid_b is content-identical to mid_a, so even the cold pass serves
    // it from the cache.
    EXPECT_EQ(Cold.Inferred, D.numModules() - 1);
    EXPECT_EQ(Cold.CacheHits, 1u);
    EXPECT_EQ(Engine.cache().misses(), D.numModules() - 1);

    engineAnalyzeOrDie(Engine, D);
    const EngineStats &Warm = Engine.stats();
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
  Summaries Out = engineAnalyzeOrDie(Engine, D);

  EXPECT_EQ(Engine.keyOf(A), Engine.keyOf(B));
  EXPECT_NE(Engine.keyOf(A), Engine.keyOf(C));
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
    engineAnalyzeOrDie(Engine, D);
    std::vector<uint64_t> Before;
    for (ModuleId Id : Ids)
      Before.push_back(Engine.keyOf(Id));

    // Edit the leaf: a summary-neutral pair of inverters off a constant.
    Module &Leaf = D.module(Ids[0]);
    WireId C0 = Leaf.addWire("edit_c", WireKind::Const, 1, 0);
    WireId W = Leaf.addWire("edit_w", WireKind::Basic, 1);
    Leaf.addNet(Op::Not, {C0}, W);

    engineAnalyzeOrDie(Engine, D);
    // Everything re-keys (leaf body changed; the rest via sub-summary
    // keys), so everything re-infers even though the summaries are
    // unchanged.
    for (size_t I = 0; I != Ids.size(); ++I)
      EXPECT_NE(Engine.keyOf(Ids[I]), Before[I]) << "module " << I;
    EXPECT_EQ(Engine.stats().CacheHits, 1u); // mid_b off fresh mid_a.
    EXPECT_EQ(Engine.stats().Inferred, D.numModules() - 1);
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
  engineAnalyzeOrDie(Engine, D1);
  uint64_t KeyL = Engine.keyOf(L1), KeyW = Engine.keyOf(W1);

  engineAnalyzeOrDie(Engine, D2);
  EXPECT_EQ(Engine.keyOf(L2), KeyL);
  EXPECT_EQ(Engine.keyOf(W2), KeyW);
  // And the shared cache served both across the design boundary.
  EXPECT_GE(Engine.stats().CacheHits, 2u);
}

TEST(SummaryEngineTest, DisabledCacheNeverHits) {
  Design D;
  buildDiamond(D);
  SummaryEngine Engine(EngineConfig{0, false});
  Summaries First = engineAnalyzeOrDie(Engine, D);
  Summaries Second = engineAnalyzeOrDie(Engine, D);
  EXPECT_EQ(Engine.stats().CacheHits, 0u);
  EXPECT_EQ(Engine.stats().Inferred, D.numModules());
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
  ASSERT_FALSE(Engine.analyze(D, Out, Ascribed).hasError());
  EXPECT_EQ(Engine.stats().Ascribed, 1u);
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
    support::Status Verdict = Engine.analyze(D, Out);
    EXPECT_EQ(Verdict.describe(), Serial.describe());
    EXPECT_TRUE(Out.empty());
    EXPECT_EQ(Engine.stats().Inferred, 0u);
    EXPECT_EQ(Engine.stats().CacheHits, 0u);
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
    {
      ArmedFailpoints Armed("engine.module.throw=nth(1)");
      Verdict = Engine.analyze(D, Out);
    }
    ASSERT_EQ(Verdict.size(), 1u) << Verdict.describe();
    EXPECT_EQ(Verdict.firstError().code(),
              support::DiagCode::WS604_WORKER_PANIC);
    EXPECT_EQ(Verdict.firstError().note("module"), "cone_a");
    EXPECT_EQ(Out.count(A), 0u);
    ASSERT_EQ(Out.count(B), 1u);
    EXPECT_EQ(Out.at(B).ModuleName, "cone_b");
    EXPECT_EQ(Engine.stats().Panicked, 1u);
    EXPECT_EQ(Engine.stats().Inferred, 1u);
    EXPECT_EQ(Engine.stats().CacheHits, 0u);
  }
}

TEST(SummaryEngineTest, SidecarRoundTripWarmsAFreshEngine) {
  Design D;
  buildDiamond(D);
  std::string Path =
      ::testing::TempDir() + "/summary_engine_roundtrip.wsort";

  SummaryEngine Writer;
  Summaries Out = engineAnalyzeOrDie(Writer, D);
  ASSERT_TRUE(Writer.saveCache(Path, D, Out).empty());

  SummaryEngine Reader;
  auto Loaded = Reader.loadCache(Path, D);
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_GT(Loaded->Loaded, 0u);
  EXPECT_EQ(Loaded->Quarantined, 0u);
  EXPECT_TRUE(Loaded->Warnings.empty());

  Summaries Warm = engineAnalyzeOrDie(Reader, D);
  EXPECT_EQ(Reader.stats().Inferred, 0u);
  EXPECT_EQ(Reader.stats().CacheHits, D.numModules());
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
    Summaries Out = engineAnalyzeOrDie(Engine, D);
    ASSERT_TRUE(Engine.saveCache(Path, D, Out).empty());

    Design Edited;
    std::vector<ModuleId> Ids = buildDiamond(Edited);
    Module &Leaf = Edited.module(Ids[0]);
    WireId C0 = Leaf.addWire("edit_c", WireKind::Const, 1, 0);
    WireId W = Leaf.addWire("edit_w", WireKind::Basic, 1);
    Leaf.addNet(Op::Not, {C0}, W);

    SummaryEngine Fresh(EngineConfig{Threads, true});
    auto Loaded = Fresh.loadCache(Path, Edited);
    ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
    engineAnalyzeOrDie(Fresh, Edited);
    EXPECT_EQ(Fresh.stats().CacheHits, 1u); // Only the mid_a/mid_b share.
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
  Summaries Out = engineAnalyzeOrDie(Writer, A);
  std::string Path = ::testing::TempDir() + "/summary_engine_stale.wsort";
  ASSERT_TRUE(Writer.saveCache(Path, A, Out).empty());

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
  Summaries Out = engineAnalyzeOrDie(Writer, D);
  std::string Path = ::testing::TempDir() + "/summary_engine_v3.wsort";
  ASSERT_TRUE(Writer.saveCache(Path, D, Out).empty());
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
  Summaries Warm = engineAnalyzeOrDie(Reader, D);
  EXPECT_EQ(Reader.stats().Inferred, 0u);
  EXPECT_EQ(Reader.stats().CacheHits, D.numModules());
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
  Summaries Out = engineAnalyzeOrDie(Writer, D);
  std::ostringstream Legacy;
  Legacy << "# wiresort summary cache v2\n";
  for (const auto &[Id, S] : Out)
    Legacy << "# key " << D.module(Id).Name << ' ' << std::hex
           << Writer.keyOf(Id) << std::dec << '\n';
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
