//===- tests/property/MetamorphicTest.cpp - Naming/order invariance -------===//
//
// Part of the wiresort project. Metamorphic and determinism checks over
// generated mega-scale designs (docs/SCALE.md): applies
// semantics-preserving transformations to generated designs and
// hand-built circuits and pins down exactly which observables each one
// may not move.
//
//  * Renaming (modules, wires, instances): cache keys are content-
//    addressed and ir::structuralHash deliberately hashes no names, so a
//    wholesale rename leaves every per-module key, every port-set map,
//    and the verdict shape (hasError + diagnostic-code multiset)
//    untouched — and a cache warmed on the original design serves the
//    renamed design entirely from cache. Diagnostic *message bytes* do
//    change (they quote names); the claims here are deliberately the
//    name-free ones.
//  * Instance insertion order: a circuit's verdict and its pairwise
//    per-connection diagnostics depend on what is connected to what, not
//    on the order addInstance was called in.
//  * Connection insertion order: the verdict is order-free; the pairwise
//    diagnostic *multiset* is order-free (emission order follows
//    connection order by contract, so byte order may legitimately move).
//  * Module declaration order: cache keys are content-addressed, so the
//    key *multiset* of a library is independent of the ModuleIds its
//    modules happen to get; summaries matched by name carry identical
//    port sets either way.
//  * Thread count: a 4-thread engine's cold and warm runs reproduce the
//    serial engine's verdict NDJSON, saveCache bytes, and binary
//    summary-sidecar bytes exactly.
//  * Stage 3 checker choice: on mega circuits with and without an
//    injected ring, the literal pairwise Definition 3.1 check and the
//    production SCC check agree with each other and with the injection,
//    and classify the same connections safe-by-sort.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"
#include "analysis/SummaryIO.h"
#include "analysis/WellConnected.h"
#include "gen/Catalog.h"
#include "gen/LoopInjector.h"
#include "gen/MegaScale.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::gen;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

/// CI-sized mega-scale params; a quarter of the seeds loop-injected so
/// the invariants are also checked on designs whose verdict is WS101.
MegaScaleParams ciParams(uint32_t Seed) {
  MegaScaleParams P;
  P.Topo = Seed % 3 == 0   ? MegaScaleParams::Topology::TileGrid
           : Seed % 3 == 1 ? MegaScaleParams::Topology::NocMesh
                           : MegaScaleParams::Topology::FifoFabric;
  P.GridX = 1 + Seed % 3;
  P.GridY = 1 + (Seed / 3) % 2;
  P.TilesPerCluster = 1 + Seed % 3;
  P.PayloadPerTile = 2 + Seed % 4;
  P.TileVariants = 1 + Seed % 3;
  P.ClusterVariants = 1 + Seed % 2;
  P.Width = static_cast<uint16_t>(4 + 4 * (Seed % 3));
  P.Seed = 0x3e7a0000ull + Seed;
  P.InjectLoop = Seed % 4 == 3;
  P.LoopRingLength = 2 + Seed % 3;
  return P;
}

/// Deterministic in-place shuffle (no std::random devices — test must be
/// repeatable byte-for-byte).
void lcgShuffle(std::vector<uint32_t> &V, uint64_t Seed) {
  uint64_t S = Seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t I = V.size(); I > 1; --I) {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(V[I - 1], V[(S >> 33) % I]);
  }
}

/// Gives every module, wire, and sub-instance of \p D a fresh name the
/// original never used. Structure (kinds, widths, nets, bindings) is
/// untouched, so this is the paper-level "alpha renaming" of a design.
void renameEverything(Design &D) {
  for (ModuleId Id = 0; Id != D.numModules(); ++Id) {
    Module &M = D.module(Id);
    M.Name = "renamed_mod_" + std::to_string(Id);
    for (WireId W = 0; W != M.numWires(); ++W)
      M.renameWire(W, "rw" + std::to_string(W));
    for (size_t I = 0; I != M.Instances.size(); ++I)
      M.Instances[I].Name = "ri" + std::to_string(I);
  }
}

/// The name-free shape of a verdict: which diagnostic codes fired, how
/// often. Messages quote module names, so byte comparison is out of
/// bounds for rename trials; the code multiset is the honest invariant.
std::vector<support::DiagCode> codeMultiset(const support::Status &S) {
  std::vector<support::DiagCode> Codes;
  for (const support::Diag &Dg : S)
    Codes.push_back(Dg.code());
  std::sort(Codes.begin(), Codes.end());
  return Codes;
}

/// Sorted renderJson lines of a diag list — the multiset view for
/// order-permutation trials.
std::vector<std::string> diagMultiset(const support::DiagList &Ds) {
  std::vector<std::string> Lines;
  for (const support::Diag &Dg : Ds)
    Lines.push_back(support::renderJson(Dg));
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

void expectSamePortSets(const Summaries &Ref, const Summaries &Got,
                        const std::string &Trial) {
  ASSERT_EQ(Ref.size(), Got.size()) << Trial;
  for (const auto &[Id, S] : Ref) {
    auto It = Got.find(Id);
    ASSERT_TRUE(It != Got.end()) << Trial << " module " << Id;
    EXPECT_EQ(S.OutputPortSets, It->second.OutputPortSets)
        << Trial << " module " << Id;
    EXPECT_EQ(S.InputPortSets, It->second.InputPortSets)
        << Trial << " module " << Id;
    EXPECT_EQ(S.SubSorts, It->second.SubSorts)
        << Trial << " module " << Id;
  }
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

class RenameTrial : public ::testing::TestWithParam<uint32_t> {};
class MegaTrial : public ::testing::TestWithParam<uint32_t> {};
class OrderTrial : public ::testing::TestWithParam<uint32_t> {};

/// Feed-through clones of four catalog modules — the instance pool for
/// the permutation trials. Connecting loop_o -> loop_i in a closed ring
/// is a combinational loop; leaving the ring open is the clean control.
std::vector<ModuleId> feedthroughPool(Design &D) {
  std::vector<ModuleId> Pool;
  Pool.push_back(addFeedthrough(D, D.addModule(makeCounter(8))));
  Pool.push_back(addFeedthrough(D, D.addModule(makeLfsr(8))));
  Pool.push_back(addFeedthrough(D, D.addModule(makeParity(8))));
  Pool.push_back(addFeedthrough(D, D.addModule(makeShiftChain(8, 3))));
  return Pool;
}

} // namespace

TEST_P(RenameTrial, RenamingMovesNoKeyNoPortSetNoVerdictShape) {
  const uint32_t Seed = GetParam();
  const MegaScaleParams P = ciParams(Seed);

  Design Orig;
  buildMegaScale(Orig, P);
  Design Renamed;
  buildMegaScale(Renamed, P);
  renameEverything(Renamed);

  const EngineConfig Opts{1, true};
  SummaryEngine OrigEngine(Opts);
  Summaries OrigOut;
  AnalyzeOutcome OrigRun;
  support::Status OrigVerdict =
      OrigEngine.analyze(Orig, OrigOut, {}, {}, &OrigRun);

  SummaryEngine RenamedEngine(Opts);
  Summaries RenamedOut;
  AnalyzeOutcome RenamedRun;
  support::Status RenamedVerdict =
      RenamedEngine.analyze(Renamed, RenamedOut, {}, {}, &RenamedRun);

  ASSERT_EQ(Orig.numModules(), Renamed.numModules()) << "seed " << Seed;
  for (ModuleId Id = 0; Id != Orig.numModules(); ++Id)
    EXPECT_EQ(OrigRun.Keys.at(Id), RenamedRun.Keys.at(Id))
        << "seed " << Seed << " module " << Id;

  EXPECT_EQ(OrigVerdict.hasError(), P.InjectLoop) << "seed " << Seed;
  EXPECT_EQ(RenamedVerdict.hasError(), OrigVerdict.hasError())
      << "seed " << Seed;
  EXPECT_EQ(codeMultiset(OrigVerdict), codeMultiset(RenamedVerdict))
      << "seed " << Seed;
  expectSamePortSets(OrigOut, RenamedOut,
                     "seed " + std::to_string(Seed) + " rename");

  // The sharpest form of key-neutrality: the engine that analyzed the
  // original serves the renamed design entirely from its warm cache (the
  // rebind on lookup restores the new names, so the summaries still
  // match a fresh analysis of the renamed design exactly).
  Summaries WarmOut;
  AnalyzeOutcome WarmRun;
  support::Status WarmVerdict =
      OrigEngine.analyze(Renamed, WarmOut, {}, {}, &WarmRun);
  EXPECT_EQ(WarmRun.Stats.CacheHits, OrigOut.size())
      << "seed " << Seed;
  EXPECT_EQ(WarmRun.Stats.Inferred, 0u) << "seed " << Seed;
  EXPECT_EQ(codeMultiset(WarmVerdict), codeMultiset(RenamedVerdict))
      << "seed " << Seed;
  ASSERT_EQ(WarmOut.size(), RenamedOut.size()) << "seed " << Seed;
  for (const auto &[Id, S] : RenamedOut)
    EXPECT_TRUE(structurallyEqual(S, WarmOut.at(Id)))
        << "seed " << Seed << " module " << Id;
}

INSTANTIATE_TEST_SUITE_P(MegaScaleDesigns, RenameTrial,
                         ::testing::Range<uint32_t>(0, 24));

TEST_P(MegaTrial, ThreadedColdAndWarmRunsMatchSerialBytes) {
  const uint32_t Seed = GetParam();
  const MegaScaleParams P = ciParams(Seed);
  Design D;
  buildMegaScale(D, P);

  // Serial reference: verdict NDJSON, cache sidecar, binary summaries.
  SummaryEngine Serial(EngineConfig{1, true});
  Summaries RefOut;
  AnalyzeOutcome SerialRun;
  support::Status RefVerdict = Serial.analyze(D, RefOut, {}, {}, &SerialRun);
  EXPECT_EQ(RefVerdict.hasError(), P.InjectLoop) << "seed " << Seed;
  const std::string Path = ::testing::TempDir() + "/meta_threads_" +
                           std::to_string(Seed) + ".wscache";
  std::remove(Path.c_str());
  ASSERT_TRUE(SummaryEngine::saveCache(Path, D, RefOut, SerialRun.Keys).empty())
      << "seed " << Seed;
  const std::string RefCache = slurp(Path);
  ASSERT_FALSE(RefCache.empty()) << "seed " << Seed;
  const std::string RefBinary = writeSummariesBinary(D, RefOut);

  SummaryEngine Parallel(EngineConfig{4, true});
  AnalyzeOutcome Run;
  for (const char *Phase : {"cold", "warm"}) {
    const std::string Trial = "seed " + std::to_string(Seed) + " " + Phase;
    Summaries Out;
    support::Status Verdict = Parallel.analyze(D, Out, {}, {}, &Run);
    EXPECT_EQ(support::renderJson(Verdict), support::renderJson(RefVerdict))
        << Trial;
    if (Phase == std::string("cold")) {
      // The counters, too, are a function of the design, not the schedule.
      EXPECT_EQ(Run.Stats.Inferred, SerialRun.Stats.Inferred) << Trial;
      EXPECT_EQ(Run.Stats.CacheHits, SerialRun.Stats.CacheHits) << Trial;
      EXPECT_EQ(Run.Stats.Ascribed, SerialRun.Stats.Ascribed) << Trial;
    }
    std::remove(Path.c_str());
    ASSERT_TRUE(SummaryEngine::saveCache(Path, D, Out, Run.Keys).empty())
        << Trial;
    EXPECT_EQ(slurp(Path), RefCache) << Trial;
    EXPECT_EQ(writeSummariesBinary(D, Out), RefBinary) << Trial;
  }
  if (!RefVerdict.hasError()) {
    EXPECT_EQ(Run.Stats.CacheHits, RefOut.size())
        << "seed " << Seed << " warm";
  }
  std::remove(Path.c_str());
}

TEST_P(MegaTrial, PairwiseAndSccStage3Agree) {
  for (bool Loop : {false, true}) {
    MegaScaleParams P = ciParams(GetParam());
    P.InjectLoop = Loop;
    const std::string Trial =
        "seed " + std::to_string(GetParam()) + (Loop ? " ring" : " clean");
    Design D;
    Circuit Circ = buildMegaScaleCircuit(D, P);
    SummaryEngine Engine;
    Summaries Out;
    ASSERT_FALSE(Engine.analyze(D, Out).hasError()) << Trial;

    CircuitCheckResult Pairwise = checkCircuitPairwise(Circ, Out);
    CircuitCheckResult Scc = checkCircuit(Circ, Out);
    EXPECT_EQ(Pairwise.WellConnected, !Loop) << Trial;
    EXPECT_EQ(Scc.WellConnected, Pairwise.WellConnected) << Trial;
    EXPECT_EQ(Scc.SafeBySort, Pairwise.SafeBySort) << Trial;
    EXPECT_EQ(Scc.NeedsCheck, Pairwise.NeedsCheck) << Trial;
  }
}

INSTANTIATE_TEST_SUITE_P(MegaScaleDesigns, MegaTrial,
                         ::testing::Range<uint32_t>(0, 24));

TEST_P(OrderTrial, InstanceInsertionOrderMovesNoVerdictNoDiag) {
  const uint32_t Seed = GetParam();
  const bool Ring = Seed % 2 == 1; // closed ring <=> loop expected
  const uint32_t K = 4 + Seed % 5;

  Design D;
  std::vector<ModuleId> Pool = feedthroughPool(D);

  std::vector<uint32_t> Order(K);
  std::iota(Order.begin(), Order.end(), 0u);
  lcgShuffle(Order, 0xabcd0000ull + Seed);

  // Identity-order and permuted-order builds of the same logical
  // circuit: instance names and connections are tied to the *logical*
  // index, only the addInstance call order differs.
  Circuit Ident(D, "perm_ident");
  Circuit Perm(D, "perm_shuffled");
  std::vector<InstId> IdentInst(K), PermInst(K);
  for (uint32_t I = 0; I != K; ++I)
    IdentInst[I] =
        Ident.addInstance(Pool[I % Pool.size()], "n" + std::to_string(I));
  for (uint32_t J = 0; J != K; ++J) {
    const uint32_t I = Order[J];
    PermInst[I] =
        Perm.addInstance(Pool[I % Pool.size()], "n" + std::to_string(I));
  }
  const uint32_t Edges = Ring ? K : K - 1;
  for (uint32_t I = 0; I != Edges; ++I) {
    Ident.connect(IdentInst[I], "loop_o", IdentInst[(I + 1) % K],
                  "loop_i");
    Perm.connect(PermInst[I], "loop_o", PermInst[(I + 1) % K], "loop_i");
  }

  SummaryEngine Engine;
  Summaries Out;
  ASSERT_FALSE(Engine.analyze(D, Out).hasError()) << "seed " << Seed;

  CircuitCheckResult IdentScc = checkCircuit(Ident, Out);
  CircuitCheckResult PermScc = checkCircuit(Perm, Out);
  EXPECT_EQ(IdentScc.WellConnected, !Ring) << "seed " << Seed;
  EXPECT_EQ(PermScc.WellConnected, IdentScc.WellConnected)
      << "seed " << Seed;

  CircuitCheckResult IdentPw = checkCircuitPairwise(Ident, Out);
  CircuitCheckResult PermPw = checkCircuitPairwise(Perm, Out);
  EXPECT_EQ(PermPw.WellConnected, IdentPw.WellConnected)
      << "seed " << Seed;
  EXPECT_EQ(diagMultiset(PermPw.Diags), diagMultiset(IdentPw.Diags))
      << "seed " << Seed;
  EXPECT_EQ(PermPw.SafeBySort, IdentPw.SafeBySort) << "seed " << Seed;
  EXPECT_EQ(PermPw.NeedsCheck, IdentPw.NeedsCheck) << "seed " << Seed;
}

TEST_P(OrderTrial, ConnectionInsertionOrderMovesNoVerdictNoDiagMultiset) {
  const uint32_t Seed = GetParam();
  const bool Ring = Seed % 2 == 0;
  const uint32_t K = 4 + Seed % 5;

  Design D;
  std::vector<ModuleId> Pool = feedthroughPool(D);

  Circuit Ident(D, "conn_ident");
  Circuit Perm(D, "conn_shuffled");
  std::vector<InstId> IdentInst(K), PermInst(K);
  for (uint32_t I = 0; I != K; ++I) {
    IdentInst[I] =
        Ident.addInstance(Pool[I % Pool.size()], "n" + std::to_string(I));
    PermInst[I] =
        Perm.addInstance(Pool[I % Pool.size()], "n" + std::to_string(I));
  }
  const uint32_t Edges = Ring ? K : K - 1;
  std::vector<uint32_t> Order(Edges);
  std::iota(Order.begin(), Order.end(), 0u);
  lcgShuffle(Order, 0xc033c0de00ull + Seed);
  for (uint32_t I = 0; I != Edges; ++I)
    Ident.connect(IdentInst[I], "loop_o", IdentInst[(I + 1) % K],
                  "loop_i");
  for (uint32_t J = 0; J != Edges; ++J) {
    const uint32_t I = Order[J];
    Perm.connect(PermInst[I], "loop_o", PermInst[(I + 1) % K], "loop_i");
  }

  SummaryEngine Engine;
  Summaries Out;
  ASSERT_FALSE(Engine.analyze(D, Out).hasError()) << "seed " << Seed;

  CircuitCheckResult IdentScc = checkCircuit(Ident, Out);
  CircuitCheckResult PermScc = checkCircuit(Perm, Out);
  EXPECT_EQ(IdentScc.WellConnected, !Ring) << "seed " << Seed;
  EXPECT_EQ(PermScc.WellConnected, IdentScc.WellConnected)
      << "seed " << Seed;

  CircuitCheckResult IdentPw = checkCircuitPairwise(Ident, Out);
  CircuitCheckResult PermPw = checkCircuitPairwise(Perm, Out);
  EXPECT_EQ(PermPw.WellConnected, IdentPw.WellConnected)
      << "seed " << Seed;
  EXPECT_EQ(diagMultiset(PermPw.Diags), diagMultiset(IdentPw.Diags))
      << "seed " << Seed;
  EXPECT_EQ(PermPw.SafeBySort, IdentPw.SafeBySort) << "seed " << Seed;
  EXPECT_EQ(PermPw.NeedsCheck, IdentPw.NeedsCheck) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(HandBuiltCircuits, OrderTrial,
                         ::testing::Range<uint32_t>(0, 16));

// Declaring the same module library in a different order hands out
// different ModuleIds, but the content-addressed key *multiset* and the
// per-name port sets cannot move.
TEST(MetamorphicDeclarationOrder, KeyMultisetAndPortSetsInvariant) {
  auto makeLibrary = [] {
    std::vector<Module> Lib;
    Lib.push_back(makeCounter(8));
    Lib.push_back(makeLfsr(16));
    Lib.push_back(makeParity(8));
    Lib.push_back(makeMuxReg(8, 4));
    Lib.push_back(makeTwoFifo(8));
    Lib.push_back(makeGrayCoder(8, false));
    return Lib;
  };

  Design Fwd, Rev;
  {
    std::vector<Module> Lib = makeLibrary();
    for (auto &M : Lib)
      Fwd.addModule(std::move(M));
  }
  {
    std::vector<Module> Lib = makeLibrary();
    for (auto It = Lib.rbegin(); It != Lib.rend(); ++It)
      Rev.addModule(std::move(*It));
  }

  SummaryEngine FwdEngine, RevEngine;
  Summaries FwdOut, RevOut;
  ASSERT_FALSE(FwdEngine.analyze(Fwd, FwdOut).hasError());
  ASSERT_FALSE(RevEngine.analyze(Rev, RevOut).hasError());

  std::vector<uint64_t> FwdKeys = SummaryEngine::computeKeys(Fwd);
  std::vector<uint64_t> RevKeys = SummaryEngine::computeKeys(Rev);
  std::sort(FwdKeys.begin(), FwdKeys.end());
  std::sort(RevKeys.begin(), RevKeys.end());
  EXPECT_EQ(FwdKeys, RevKeys);

  std::map<std::string, const ModuleSummary *> ByName;
  for (const auto &[Id, S] : FwdOut)
    ByName[S.ModuleName] = &S;
  ASSERT_EQ(ByName.size(), FwdOut.size());
  for (const auto &[Id, S] : RevOut) {
    auto It = ByName.find(S.ModuleName);
    ASSERT_TRUE(It != ByName.end()) << S.ModuleName;
    EXPECT_EQ(S.OutputPortSets, It->second->OutputPortSets)
        << S.ModuleName;
    EXPECT_EQ(S.InputPortSets, It->second->InputPortSets) << S.ModuleName;
    EXPECT_EQ(S.SubSorts, It->second->SubSorts) << S.ModuleName;
  }
}
