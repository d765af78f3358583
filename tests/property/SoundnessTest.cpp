//===- tests/property/SoundnessTest.cpp - Empirical soundness -------------===//
//
// Part of the wiresort project. The paper's central theorem, executed:
// on arbitrary circuits, the modular wire-sort checker (which never looks
// inside a module after Stage 1) must agree exactly with flat gate-level
// cycle detection. Also cross-checks the SCC-based checker against the
// literal Definition 3.1 pairwise checker, and the incremental checker
// against both.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"
#include "analysis/SortInference.h"
#include "analysis/WellConnected.h"
#include "gen/Random.h"
#include "sim/Simulator.h"
#include "support/RefGraph.h"
#include "synth/CycleDetect.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

#include <random>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::gen;
using namespace wiresort::ir;

namespace {

struct TrialShape {
  uint32_t Seed;
  RandomCircuitParams Params;
};

class SoundnessTrial : public ::testing::TestWithParam<uint32_t> {};

} // namespace

TEST_P(SoundnessTrial, ModularCheckerAgreesWithNetlistBaseline) {
  std::mt19937 Rng(GetParam());
  RandomCircuitParams P;
  P.NModuleDefs = 2 + GetParam() % 4;
  P.NInstances = 3 + GetParam() % 8;
  P.ModuleShape.NInputs = 2 + GetParam() % 4;
  P.ModuleShape.NOutputs = 2 + GetParam() % 3;
  P.ModuleShape.NGates = 8 + GetParam() % 24;
  P.ModuleShape.PReg = 0.15 + 0.5 * ((GetParam() % 7) / 7.0);

  Design D;
  Circuit Circ = randomCircuit(Rng, D, P, "rand");
  ASSERT_FALSE(D.validate().has_value());

  std::map<ModuleId, ModuleSummary> Summaries;
  wiresort::support::Status InternalLoop = analyzeDesign(D, Summaries);
  ASSERT_FALSE(InternalLoop.hasError())
      << "random modules are DAGs by construction";

  // Modular verdicts (SCC and pairwise must agree with each other).
  CircuitCheckResult Scc = checkCircuit(Circ, Summaries);
  CircuitCheckResult Pairwise = checkCircuitPairwise(Circ, Summaries);
  EXPECT_EQ(Scc.WellConnected, Pairwise.WellConnected);

  // Incremental replay: the first loop must surface on some connection,
  // and only if the circuit is actually looped.
  {
    Circuit Replay(D, "replay");
    for (const auto &Inst : Circ.instances())
      Replay.addInstance(Inst.Def, Inst.Name);
    IncrementalChecker Checker(Replay, Summaries);
    bool SawLoop = false;
    for (const Connection &C : Circ.connections()) {
      Replay.connectPorts(C.From, C.To);
      auto Step = Checker.addConnection(C);
      if (Step.Diags.hasError()) {
        SawLoop = true;
        break;
      }
    }
    EXPECT_EQ(SawLoop, !Scc.WellConnected);
  }

  // Gate-level ground truth on the sealed, lowered circuit.
  ModuleId Top = Circ.seal();
  Module Gates = synth::lower(D, Top);
  bool NetlistLoop = synth::detectCycles(Gates).HasLoop;
  EXPECT_EQ(!Scc.WellConnected, NetlistLoop)
      << "modular and netlist verdicts diverge (seed " << GetParam()
      << ")";

  // And the simulator levelizer is a third witness.
  bool Simulable = sim::Simulator::create(Gates).hasValue();
  EXPECT_EQ(Simulable, !NetlistLoop);
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, SoundnessTrial,
                         ::testing::Range<uint32_t>(0, 120));

namespace {

class ModuleLevelTrial : public ::testing::TestWithParam<uint32_t> {};

} // namespace

TEST_P(ModuleLevelTrial, SummaryMatchesExhaustiveGateReachability) {
  // Stage-1 soundness and precision: an input is in an output's
  // input-port-set iff some gate-level path connects them.
  std::mt19937 Rng(1000 + GetParam());
  RandomModuleParams P;
  P.NInputs = 3 + GetParam() % 4;
  P.NOutputs = 2 + GetParam() % 4;
  P.NGates = 10 + GetParam() % 30;
  P.PReg = 0.1 + 0.6 * ((GetParam() % 5) / 5.0);

  Design D;
  ModuleId Id = D.addModule(
      randomModule(Rng, P, "m" + std::to_string(GetParam())));
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(D, Out).hasError());
  const ModuleSummary &S = Out.at(Id);
  const Module &M = D.module(Id);

  // Ground truth: reachability over the lowered gate netlist.
  Module Gates = synth::lower(D, Id);
  test::RefGraph G(Gates.numWires());
  for (const Net &N : Gates.Nets)
    for (WireId In : Gates.netInputs(N))
      G.addEdge(In, N.Output);
  auto bitOf = [&](const std::string &Name) {
    return Gates.findWire(Name + "[0]");
  };

  for (WireId In : M.Inputs) {
    std::vector<bool> Reach = G.reachableFrom(bitOf(M.wire(In).Name));
    for (WireId O : M.Outputs) {
      bool GateLevel = Reach[bitOf(M.wire(O).Name)];
      const auto &Set = S.outputPortSet(In);
      bool Summarized = std::binary_search(Set.begin(), Set.end(), O);
      EXPECT_EQ(GateLevel, Summarized)
          << M.wire(In).Name << " -> " << M.wire(O).Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModules, ModuleLevelTrial,
                         ::testing::Range<uint32_t>(0, 60));

TEST(SoundnessTest, SyncSortedPortsNeverOnALoop) {
  // Property 1 as a property test: delete every connection touching a
  // to-port input or from-port output; the rest can never form a loop.
  std::mt19937 Rng(99);
  for (int Trial = 0; Trial != 40; ++Trial) {
    Design D;
    RandomCircuitParams P;
    P.NInstances = 6;
    P.PConnect = 0.9;
    Circuit Full = randomCircuit(Rng, D, P, "full");
    std::map<ModuleId, ModuleSummary> Summaries;
    ASSERT_FALSE(analyzeDesign(D, Summaries).hasError());

    Circuit SyncOnly(D, "sync_only");
    for (const auto &Inst : Full.instances())
      SyncOnly.addInstance(Inst.Def, Inst.Name);
    for (const Connection &C : Full.connections())
      if (classifyConnection(Full, Summaries, C) ==
          ConnectionSafety::SafeBySort)
        SyncOnly.connectPorts(C.From, C.To);

    EXPECT_TRUE(checkCircuit(SyncOnly, Summaries).WellConnected);
  }
}

#include "parse/Blif.h"
#include "synth/Optimize.h"

TEST(SoundnessTest, OptimizerPreservesRandomModuleBehavior) {
  // The optimizer must be a semantic no-op on loop-free netlists.
  std::mt19937 Rng(4242);
  for (int Trial = 0; Trial != 20; ++Trial) {
    Design D;
    RandomModuleParams P;
    P.NInputs = 4;
    P.NOutputs = 4;
    P.NGates = 30 + Trial;
    P.PReg = 0.25;
    ModuleId Id = D.addModule(
        randomModule(Rng, P, "opt" + std::to_string(Trial)));
    Module Reference = synth::lower(D, Id);
    Module Optimized = Reference;
    synth::optimize(Optimized);
    ASSERT_FALSE(Optimized.validate().has_value());

    auto S1 = sim::Simulator::create(Reference);
    ASSERT_TRUE(S1.hasValue()) << S1.describe();
    auto S2 = sim::Simulator::create(Optimized);
    ASSERT_TRUE(S2.hasValue()) << S2.describe();
    for (int Cycle = 0; Cycle != 50; ++Cycle) {
      for (WireId In : Reference.Inputs) {
        uint64_t Bit = Rng() & 1;
        S1->setInput(Reference.wire(In).Name, Bit);
        S2->setInput(Reference.wire(In).Name, Bit);
      }
      S1->step();
      S2->step();
      for (WireId Out : Reference.Outputs)
        ASSERT_EQ(S1->value(Reference.wire(Out).Name),
                  S2->value(Reference.wire(Out).Name))
            << "trial " << Trial << " cycle " << Cycle;
    }
  }
}

TEST(SoundnessTest, BlifRoundTripPreservesSortsOnRandomModules) {
  // Lower a random module, write BLIF, reparse: the reimported module's
  // bit-level sorts must match those of the lowered original.
  std::mt19937 Rng(777);
  for (int Trial = 0; Trial != 15; ++Trial) {
    Design D;
    RandomModuleParams P;
    P.NInputs = 3 + Trial % 3;
    P.NOutputs = 3;
    P.NGates = 20 + Trial;
    P.PReg = 0.3;
    ModuleId Id = D.addModule(
        randomModule(Rng, P, "blif" + std::to_string(Trial)));
    Design Flat;
    ModuleId FlatId = Flat.addModule(synth::lower(D, Id));
    std::map<ModuleId, ModuleSummary> Before;
    ASSERT_FALSE(analyzeDesign(Flat, Before).hasError());

    std::string Text = parse::writeBlif(Flat, FlatId);
    auto File = parse::parseBlif(Text);
    ASSERT_TRUE(File.hasValue()) << File.describe();
    std::map<ModuleId, ModuleSummary> After;
    ASSERT_FALSE(analyzeDesign(File->Design, After).hasError());

    const Module &FM = Flat.module(FlatId);
    const Module &RM = File->Design.module(File->Top);
    for (WireId In : FM.Inputs) {
      WireId RIn = RM.findPort(std::string(FM.wire(In).Name));
      ASSERT_NE(RIn, InvalidId);
      EXPECT_EQ(Before.at(FlatId).sortOf(In),
                After.at(File->Top).sortOf(RIn))
          << FM.wire(In).Name;
    }
    for (WireId Out : FM.Outputs) {
      WireId ROut = RM.findPort(std::string(FM.wire(Out).Name));
      ASSERT_NE(ROut, InvalidId);
      EXPECT_EQ(Before.at(FlatId).sortOf(Out),
                After.at(File->Top).sortOf(ROut))
          << FM.wire(Out).Name;
    }
  }
}

TEST(SoundnessTest, IncrementalVerdictIndependentOfWiringOrder) {
  // Shuffle the order in which a looped circuit's connections are made:
  // some connection must always surface the loop.
  std::mt19937 Rng(31337);
  for (int Trial = 0; Trial != 30; ++Trial) {
    Design D;
    RandomCircuitParams P;
    P.NInstances = 6;
    P.PConnect = 0.7;
    Circuit Circ = randomCircuit(Rng, D, P, "shuffle");
    std::map<ModuleId, ModuleSummary> Summaries;
    ASSERT_FALSE(analyzeDesign(D, Summaries).hasError());
    bool Looped = !checkCircuit(Circ, Summaries).WellConnected;

    std::vector<Connection> Conns = Circ.connections();
    for (int Perm = 0; Perm != 4; ++Perm) {
      std::shuffle(Conns.begin(), Conns.end(), Rng);
      Circuit Replay(D, "replay");
      for (const auto &Inst : Circ.instances())
        Replay.addInstance(Inst.Def, Inst.Name);
      IncrementalChecker Checker(Replay, Summaries);
      bool SawLoop = false;
      for (const Connection &C : Conns) {
        Replay.connectPorts(C.From, C.To);
        if (Checker.addConnection(C).Diags.hasError()) {
          SawLoop = true;
          break;
        }
      }
      EXPECT_EQ(SawLoop, Looped) << "trial " << Trial << " perm " << Perm;
    }
  }
}

TEST(SoundnessTest, SummaryReuseAcrossInstantiationsIsSound) {
  // One definition instantiated many times must behave identically to
  // many copies of the same definition analyzed separately.
  std::mt19937 Rng(9090);
  for (int Trial = 0; Trial != 10; ++Trial) {
    RandomModuleParams P;
    P.NInputs = 3;
    P.NOutputs = 3;
    P.NGates = 25;
    P.PReg = 0.2;
    std::mt19937 Clone = Rng; // Same stream for both builds.
    Design DShared;
    ModuleId Shared = DShared.addModule(
        randomModule(Clone, P, "shared" + std::to_string(Trial)));
    Design DCopies;
    std::vector<ModuleId> Copies;
    for (int I = 0; I != 4; ++I) {
      std::mt19937 Again = Rng;
      Copies.push_back(DCopies.addModule(randomModule(
          Again, P, "copy" + std::to_string(Trial))));
    }
    Rng = Clone; // Advance the outer stream once.

    // Same ring topology over shared-def instances vs per-copy defs.
    auto buildRing = [&](Design &D, const std::vector<ModuleId> &Defs) {
      Circuit Circ(D, "ring");
      std::vector<InstId> Insts;
      for (int I = 0; I != 4; ++I)
        Insts.push_back(Circ.addInstance(Defs[I % Defs.size()],
                                         "u" + std::to_string(I)));
      for (int I = 0; I != 4; ++I) {
        const Module &Def = Circ.defOf(Insts[I]);
        Circ.connectPorts(PortRef{Insts[size_t(I)], Def.Outputs[0]},
                          PortRef{Insts[(I + 1) % 4], Def.Inputs[0]});
      }
      return Circ;
    };
    Circuit RingShared = buildRing(DShared, {Shared});
    Circuit RingCopies = buildRing(DCopies, Copies);

    std::map<ModuleId, ModuleSummary> SShared, SCopies;
    ASSERT_FALSE(analyzeDesign(DShared, SShared).hasError());
    ASSERT_FALSE(analyzeDesign(DCopies, SCopies).hasError());
    EXPECT_EQ(checkCircuit(RingShared, SShared).WellConnected,
              checkCircuit(RingCopies, SCopies).WellConnected)
        << "trial " << Trial;
  }
}
