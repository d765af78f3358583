//===- tests/property/DifferentialTest.cpp - Engine vs flat oracle --------===//
//
// Part of the wiresort project. The SummaryEngine's two contracts, each
// checked over 200 seeded random designs:
//
//  * Differential — the engine's loop verdict on a sealed circuit equals
//    flat synthesis (synth::lower) followed by netlist cycle detection,
//    on naturally-looping random circuits and on LoopInjector-mutated
//    rings (always looped) and open chains (never looped).
//  * Determinism — parallel inference is structurally identical to
//    serial, and cache hits (warm re-runs, disabled cache, cross-run
//    sharing) never change a summary or a verdict.
//
// A failing trial re-runs itself on shrunken copies of the circuit
// (instances dropped from the tail) and reports the smallest
// still-failing instance count in the assertion message, so a 200-seed
// soak failure arrives pre-reduced.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "analysis/Reachability.h"
#include "analysis/SortInference.h"
#include "gen/LoopInjector.h"
#include "gen/Random.h"
#include "ir/Builder.h"
#include "support/Diag.h"
#include "synth/CycleDetect.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

#include <random>

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

/// Materializes seed -> design deterministically so a shrink can rebuild
/// the same circuit with fewer instances.
Circuit buildTrial(Design &D, uint32_t Seed, uint16_t InstanceCap) {
  std::mt19937 Rng(Seed);
  RandomCircuitParams P = paramsFor(Seed);
  if (InstanceCap < P.NInstances)
    P.NInstances = InstanceCap;
  return randomCircuit(Rng, D, P, "trial");
}

/// One verdict comparison: engine (at \p Threads) on the hierarchical
/// design vs flatten + netlist cycle detection. \returns true when the
/// verdicts agree.
bool verdictsAgree(uint32_t Seed, uint16_t InstanceCap, unsigned Threads) {
  Design D;
  Circuit Circ = buildTrial(D, Seed, InstanceCap);
  ModuleId Top = Circ.seal();

  SummaryEngine Engine(EngineConfig{Threads, true});
  Summaries Out;
  bool EngineLoop = Engine.analyze(D, Out).hasError();
  bool OracleLoop = synth::detectCycles(synth::lower(D, Top)).HasLoop;
  return EngineLoop == OracleLoop;
}

/// Shrinks a failing seed by capping the instance count from below;
/// \returns the smallest cap that still fails.
uint16_t shrinkInstanceCap(uint32_t Seed, unsigned Threads) {
  uint16_t Cap = paramsFor(Seed).NInstances;
  for (uint16_t Try = 1; Try < Cap; ++Try)
    if (!verdictsAgree(Seed, Try, Threads))
      return Try;
  return Cap;
}

class DifferentialTrial : public ::testing::TestWithParam<uint32_t> {};
class MutationTrial : public ::testing::TestWithParam<uint32_t> {};
class DeterminismTrial : public ::testing::TestWithParam<uint32_t> {};
class KernelOracleTrial : public ::testing::TestWithParam<uint32_t> {};

} // namespace

TEST_P(DifferentialTrial, EngineVerdictEqualsFlattenedCycleDetect) {
  const uint32_t Seed = GetParam();
  for (unsigned Threads : {1u, 4u}) {
    if (verdictsAgree(Seed, /*InstanceCap=*/0xffff, Threads))
      continue;
    uint16_t MinCap = shrinkInstanceCap(Seed, Threads);
    FAIL() << "engine and netlist verdicts diverge: seed " << Seed
           << ", threads " << Threads
           << "; shrunk reproducer: buildTrial(D, " << Seed << ", "
           << MinCap << ")";
  }
}

// 200 seeds, as the acceptance bar demands. The suite carries the ctest
// label "slow"; tests/CMakeLists.txt keeps it out of quick iterations
// via `ctest -LE slow`.
INSTANTIATE_TEST_SUITE_P(RandomDesigns, DifferentialTrial,
                         ::testing::Range<uint32_t>(0, 200));

TEST_P(MutationTrial, InjectedRingsLoopAndOpenChainsDoNot) {
  // LoopInjector mutation of random module libraries: a feed-through
  // ring must be reported combinationally looped by both the engine and
  // the flat oracle; the broken ring must be clean in both.
  const uint32_t Seed = 5000 + GetParam();
  std::mt19937 Rng(Seed);
  RandomModuleParams P = paramsFor(GetParam()).ModuleShape;

  for (bool Looped : {true, false}) {
    Design D;
    std::vector<ModuleId> Defs;
    for (uint16_t I = 0; I != 3; ++I)
      Defs.push_back(D.addModule(
          randomModule(Rng, P, "m" + std::to_string(I))));
    Circuit Circ = Looped ? buildLoopedRing(D, Defs, "ring")
                          : buildOpenChain(D, Defs, "chain");
    ModuleId Top = Circ.seal();

    SummaryEngine Engine;
    Summaries Out;
    bool EngineLoop = Engine.analyze(D, Out).hasError();
    bool OracleLoop = synth::detectCycles(synth::lower(D, Top)).HasLoop;
    EXPECT_EQ(EngineLoop, OracleLoop) << "seed " << Seed;
    EXPECT_EQ(EngineLoop, Looped) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(MutatedLibraries, MutationTrial,
                         ::testing::Range<uint32_t>(0, 40));

TEST_P(DeterminismTrial, ParallelAndCachedRunsAreStructurallyIdentical) {
  const uint32_t Seed = GetParam();
  Design D;
  Circuit Circ = buildTrial(D, Seed, 0xffff);
  Circ.seal();

  // Baseline: serial engine, cache off — pure repeated inference.
  SummaryEngine Serial(EngineConfig{1, false});
  Summaries Reference;
  auto SerialVerdict = Serial.analyze(D, Reference);

  // The serial engine must in turn match the original analyzeDesign.
  // (On loops the maps legitimately differ — analyzeDesign stops at the
  // first loop while the engine finishes every loop-independent module —
  // so only the diagnostics are compared there.)
  {
    Summaries Legacy;
    wiresort::support::Status LegacyVerdict = analyzeDesign(D, Legacy);
    ASSERT_EQ(SerialVerdict.hasError(), LegacyVerdict.hasError())
        << "seed " << Seed;
    if (SerialVerdict.hasError()) {
      EXPECT_EQ(SerialVerdict.describe(), LegacyVerdict.describe());
    } else {
      ASSERT_EQ(Reference.size(), Legacy.size()) << "seed " << Seed;
      for (const auto &[Id, S] : Legacy)
        EXPECT_TRUE(structurallyEqual(S, Reference.at(Id)))
            << "seed " << Seed << " module " << Id;
    }
  }

  // Parallel cold, then warm (all cache hits), then a fresh engine warmed
  // through a shared cache run: all must be structurally identical to the
  // serial reference, verdict included.
  SummaryEngine Parallel(EngineConfig{4, true});
  AnalyzeOutcome Outcome;
  for (const char *Phase : {"parallel cold", "parallel warm"}) {
    Summaries Out;
    support::Status Verdict = Parallel.analyze(D, Out, {}, {}, &Outcome);
    ASSERT_EQ(Verdict.hasError(), SerialVerdict.hasError())
        << "seed " << Seed << " " << Phase;
    EXPECT_EQ(Verdict, SerialVerdict)
        << "seed " << Seed << " " << Phase << "\nparallel:\n"
        << Verdict.describe() << "\nserial:\n" << SerialVerdict.describe();
    // Structural equality is necessary; the CLI contract needs more —
    // the rendered NDJSON must be byte-identical across schedules.
    EXPECT_EQ(support::renderJson(Verdict),
              support::renderJson(SerialVerdict))
        << "seed " << Seed << " " << Phase;
    ASSERT_EQ(Out.size(), Reference.size())
        << "seed " << Seed << " " << Phase;
    for (const auto &[Id, S] : Reference)
      EXPECT_TRUE(structurallyEqual(S, Out.at(Id)))
          << "seed " << Seed << " " << Phase << " module " << Id;
  }
  if (!SerialVerdict.hasError()) {
    EXPECT_EQ(Outcome.Stats.CacheHits, Reference.size())
        << "warm re-run must be all hits (seed " << Seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDesigns, DeterminismTrial,
                         ::testing::Range<uint32_t>(0, 60));

TEST(DeterminismTest, EveryLoopedModuleReportedOnceSortedByModuleId) {
  // The engine's diagnostic contract (docs/ENGINE.md): all module-level
  // loop diags are collected — not just the first — ordered by module
  // id, and serial, parallel, and cache-warm runs render byte-identical
  // NDJSON. Three independent modules, two with internal self-loops.
  Design D;
  std::vector<ModuleId> Ids;
  for (int I = 0; I != 3; ++I) {
    Builder B("m" + std::to_string(I));
    V A = B.input("a", 1);
    B.output("y", B.notv(A));
    Ids.push_back(D.addModule(B.finish()));
    if (I != 1) {
      Module &M = D.module(Ids.back());
      WireId W = M.addWire("self", WireKind::Basic, 1);
      M.addNet(Op::Not, {W}, W);
    }
  }

  SummaryEngine Serial(EngineConfig{1, true});
  Summaries SerialOut;
  support::Status Reference = Serial.analyze(D, SerialOut);

  ASSERT_EQ(Reference.size(), 2u) << Reference.describe();
  EXPECT_EQ(Reference[0].code(), support::DiagCode::WS101_COMB_LOOP);
  EXPECT_NE(Reference[0].describe().find("m0"), std::string::npos)
      << Reference.describe();
  EXPECT_NE(Reference[1].describe().find("m2"), std::string::npos)
      << Reference.describe();
  // The loop-free module still got its summary.
  EXPECT_TRUE(SerialOut.count(Ids[1]));

  SummaryEngine Parallel(EngineConfig{4, true});
  for (const char *Phase : {"parallel cold", "parallel warm"}) {
    Summaries Out;
    support::Status Verdict = Parallel.analyze(D, Out);
    EXPECT_EQ(Verdict, Reference) << Phase;
    EXPECT_EQ(support::renderJson(Verdict), support::renderJson(Reference))
        << Phase;
  }
}

TEST_P(KernelOracleTrial, BatchedClosureMatchesPerSourceBfs) {
  // Stage-1 inference now routes output-port-sets through the
  // bit-parallel CSR kernel (docs/KERNEL.md); the per-source BFS
  // CombGraph::reachableOutputPorts stays in the tree exactly so this
  // trial can demand bit-identical summaries on every seed.
  const uint32_t Seed = GetParam();
  Design D;
  Circuit Circ = buildTrial(D, Seed, 0xffff);
  Circ.seal();

  Summaries Out;
  if (analyzeDesign(D, Out).hasError())
    return; // Looped design: inference stops at the diagnostic.

  for (const auto &[Id, Summary] : Out) {
    CombGraph CG = CombGraph::build(D.module(Id), Out);
    for (WireId In : D.module(Id).Inputs)
      EXPECT_EQ(Summary.OutputPortSets.at(In), CG.reachableOutputPorts(In))
          << "seed " << Seed << " module " << Id << " input " << In;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDesigns, KernelOracleTrial,
                         ::testing::Range<uint32_t>(0, 200));
