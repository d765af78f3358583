//===- tests/analysis/DepthTest.cpp - Timing extension tests --------------===//
//
// Part of the wiresort project. The future-work extension (combinational
// depth through module summaries) validated against exhaustive longest
// paths on the lowered netlist.
//
//===----------------------------------------------------------------------===//

#include "analysis/Depth.h"

#include "analysis/SortInference.h"
#include "gen/Catalog.h"
#include "gen/Fifo.h"
#include "gen/Random.h"
#include "ir/Builder.h"
#include "support/RefGraph.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

#include <random>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

struct Analyzed {
  std::map<ModuleId, ModuleSummary> Summaries;
  std::map<ModuleId, DepthSummary> Depths;
};

Analyzed analyzeOrDie(const Design &D) {
  Analyzed A;
  EXPECT_FALSE(analyzeDesign(D, A.Summaries).hasError());
  auto Depths = inferAllDepths(D, A.Summaries);
  EXPECT_TRUE(Depths.has_value());
  A.Depths = std::move(*Depths);
  return A;
}

/// Exhaustive longest path over the lowered 1-bit netlist (unit weight
/// per non-Buf gate), from bit 0 of \p FromName to bit 0 of \p ToName.
int64_t gateLevelDepth(const Design &D, ModuleId Id,
                       const std::string &FromName,
                       const std::string &ToName) {
  Module Gates = synth::lower(D, Id);
  test::RefGraph G(Gates.numWires());
  std::vector<uint32_t> Weight;
  std::vector<std::pair<WireId, WireId>> Edges;
  for (const Net &N : Gates.Nets)
    for (WireId In : Gates.netInputs(N)) {
      G.addEdge(In, N.Output);
      Edges.emplace_back(In, N.Output);
      Weight.push_back(N.Operation == Op::Buf ? 0 : 1);
    }
  auto Topo = G.topoSort();
  EXPECT_TRUE(Topo.has_value());
  std::vector<int64_t> Dist(Gates.numWires(), -1);
  WireId From = Gates.findWire(FromName + "[0]");
  WireId To = Gates.findWire(ToName + "[0]");
  EXPECT_NE(From, InvalidId);
  EXPECT_NE(To, InvalidId);
  Dist[From] = 0;
  std::vector<std::vector<std::pair<WireId, uint32_t>>> BySource(
      Gates.numWires());
  for (size_t I = 0; I != Edges.size(); ++I)
    BySource[Edges[I].first].emplace_back(Edges[I].second, Weight[I]);
  for (WireId W : *Topo) {
    if (Dist[W] < 0)
      continue;
    for (const auto &[Next, Wt] : BySource[W])
      Dist[Next] = std::max(Dist[Next], Dist[W] + Wt);
  }
  return Dist[To];
}

} // namespace

TEST(DepthTest, PureWiringIsDepthZero) {
  Design D;
  ModuleId Id = D.addModule(gen::makePassthrough(8));
  Analyzed A = analyzeOrDie(D);
  const Module &M = D.module(Id);
  EXPECT_EQ(A.Depths.at(Id).pairDepth(M.findPort("data_i"),
                                      M.findPort("data_o")),
            0u);
}

TEST(DepthTest, SingleGateIsDepthOne) {
  Design D;
  ModuleId Id = D.addModule(gen::makeCombAnd(4));
  Analyzed A = analyzeOrDie(D);
  const Module &M = D.module(Id);
  EXPECT_EQ(A.Depths.at(Id).pairDepth(M.findPort("a_i"),
                                      M.findPort("data_o")),
            1u);
}

TEST(DepthTest, ChainsAccumulate) {
  Builder B("chain");
  V A = B.input("a", 1);
  V Acc = A;
  for (int I = 0; I != 7; ++I)
    Acc = B.notv(Acc);
  B.output("y", Acc);
  Design D;
  ModuleId Id = D.addModule(B.finish());
  Analyzed An = analyzeOrDie(D);
  const Module &M = D.module(Id);
  EXPECT_EQ(An.Depths.at(Id).pairDepth(M.findPort("a"), M.findPort("y")),
            7u);
}

TEST(DepthTest, RegistersResetTheClock) {
  Builder B("regsplit");
  V A = B.input("a", 1);
  V Pre = B.notv(B.notv(A));       // 2 levels into the register.
  V Q = B.reg(Pre, "q");
  V Post = B.notv(Q);              // 1 level out of it.
  B.output("y", Post);
  Design D;
  ModuleId Id = D.addModule(B.finish());
  Analyzed An = analyzeOrDie(D);
  const Module &M = D.module(Id);
  const DepthSummary &S = An.Depths.at(Id);
  EXPECT_EQ(S.ToStateDepth.at(M.findPort("a")), 2u);
  EXPECT_EQ(S.FromStateDepth.at(M.findPort("y")), 1u);
  EXPECT_TRUE(S.PairDepth.empty()); // No comb in-to-out path at all.
}

TEST(DepthTest, InternalDepthSeesRegToRegPaths) {
  Builder B("internal");
  V A = B.input("a", 1);
  V Q1 = B.reg(A, "q1");
  V Deep = Q1;
  for (int I = 0; I != 5; ++I)
    Deep = B.notv(Deep);
  V Q2 = B.reg(Deep, "q2");
  B.output("y", Q2);
  Design D;
  ModuleId Id = D.addModule(B.finish());
  Analyzed An = analyzeOrDie(D);
  EXPECT_EQ(An.Depths.at(Id).InternalDepth, 5u);
}

TEST(DepthTest, HierarchyComposesDepths) {
  Design D;
  Builder Leaf("leaf3");
  {
    V A = Leaf.input("a", 1);
    V Acc = A;
    for (int I = 0; I != 3; ++I)
      Acc = Leaf.notv(Acc);
    Leaf.output("y", Acc);
  }
  ModuleId LeafId = D.addModule(Leaf.finish());

  Builder Top("top3");
  V X = Top.input("x", 1);
  auto O1 = Top.instantiate(D, LeafId, "u0", {{"a", X}});
  auto O2 = Top.instantiate(D, LeafId, "u1", {{"a", O1.at("y")}});
  Top.output("y", O2.at("y"));
  ModuleId TopId = D.addModule(Top.finish());

  Analyzed An = analyzeOrDie(D);
  const Module &M = D.module(TopId);
  EXPECT_EQ(An.Depths.at(TopId).pairDepth(M.findPort("x"),
                                          M.findPort("y")),
            6u);
}

TEST(DepthTest, MatchesGateLevelOnOneBitRandomModules) {
  // On 1-bit random modules every RTL op weighs exactly 1, so the
  // modular depth must equal the exhaustive gate-level longest path.
  std::mt19937 Rng(555);
  for (int Trial = 0; Trial != 25; ++Trial) {
    Design D;
    gen::RandomModuleParams P;
    P.NInputs = 3;
    P.NOutputs = 3;
    P.NGates = 20 + Trial;
    P.PReg = 0.2;
    ModuleId Id = D.addModule(
        gen::randomModule(Rng, P, "d" + std::to_string(Trial)));
    Analyzed An = analyzeOrDie(D);
    const Module &M = D.module(Id);
    const ModuleSummary &Summary = An.Summaries.at(Id);
    for (WireId In : M.Inputs)
      for (WireId Out : Summary.outputPortSet(In)) {
        int64_t Gate = gateLevelDepth(D, Id, M.wire(In).Name,
                                      M.wire(Out).Name);
        EXPECT_EQ(int64_t(An.Depths.at(Id).pairDepth(In, Out)), Gate)
            << "trial " << Trial << ": " << M.wire(In).Name << " -> "
            << M.wire(Out).Name;
      }
  }
}

TEST(DepthTest, CircuitCriticalDepthCrossesBoundaries) {
  // Three combinational 2-level modules between registers: the critical
  // path is endDepth + sum of pair depths + startDepth.
  Design D;
  ModuleId TwoLevel = [&] {
    Builder B("two_level");
    V A = B.input("a", 1);
    B.output("y", B.notv(B.notv(A)));
    return D.addModule(B.finish());
  }();
  ModuleId Source = [&] {
    Builder B("source");
    V A = B.input("a", 1);
    B.output("y", B.notv(B.reg(A, "q"))); // 1 level from state.
    return D.addModule(B.finish());
  }();
  ModuleId Sink = [&] {
    Builder B("sink");
    V A = B.input("a", 1);
    B.output("y", B.reg(B.notv(B.notv(B.notv(A))), "q")); // 3 into state.
    return D.addModule(B.finish());
  }();

  Circuit Circ(D, "path");
  InstId S = Circ.addInstance(Source, "src");
  InstId M1 = Circ.addInstance(TwoLevel, "m1");
  InstId M2 = Circ.addInstance(TwoLevel, "m2");
  InstId K = Circ.addInstance(Sink, "sink");
  Circ.connect(S, "y", M1, "a");
  Circ.connect(M1, "y", M2, "a");
  Circ.connect(M2, "y", K, "a");

  Analyzed An = analyzeOrDie(D);
  // 1 (from state) + 2 + 2 (two modules) + 3 (into state) = 8.
  EXPECT_EQ(circuitCriticalDepth(Circ, An.Summaries, An.Depths), 8u);
}

TEST(DepthTest, CircuitCriticalDepthFollowsEveryFanOutBranch) {
  // src.y drives a shallow branch (listed first) and a deep one: the
  // critical path takes the deep branch, 1 + 5 + 3 = 9, not 1 + 2 + 3.
  Design D;
  auto chainOf = [&](const std::string &Name, int Levels) {
    Builder B(Name);
    V Acc = B.input("a", 1);
    for (int I = 0; I != Levels; ++I)
      Acc = B.notv(Acc);
    B.output("y", Acc);
    return D.addModule(B.finish());
  };
  ModuleId Shallow = chainOf("shallow", 2);
  ModuleId Deep = chainOf("deep", 5);
  ModuleId Source = [&] {
    Builder B("source");
    V A = B.input("a", 1);
    B.output("y", B.notv(B.reg(A, "q"))); // 1 level from state.
    return D.addModule(B.finish());
  }();
  ModuleId Sink = [&] {
    Builder B("sink");
    V A = B.input("a", 1);
    B.output("y", B.reg(B.notv(B.notv(B.notv(A))), "q")); // 3 into state.
    return D.addModule(B.finish());
  }();

  Circuit Circ(D, "fan");
  InstId S = Circ.addInstance(Source, "src");
  InstId A = Circ.addInstance(Shallow, "shallow");
  InstId B = Circ.addInstance(Deep, "deep");
  InstId KA = Circ.addInstance(Sink, "sink_a");
  InstId KB = Circ.addInstance(Sink, "sink_b");
  Circ.connect(S, "y", A, "a");
  Circ.connect(S, "y", B, "a");
  Circ.connect(A, "y", KA, "a");
  Circ.connect(B, "y", KB, "a");

  Analyzed An = analyzeOrDie(D);
  EXPECT_EQ(circuitCriticalDepth(Circ, An.Summaries, An.Depths), 9u);
}

TEST(DepthTest, AdderDepthScalesWithWidth) {
  Design D;
  ModuleId Narrow = [&] {
    Builder B("add8");
    B.output("y", B.add(B.input("a", 8), B.input("b", 8)));
    return D.addModule(B.finish());
  }();
  ModuleId Wide = [&] {
    Builder B("add32");
    B.output("y", B.add(B.input("a", 32), B.input("b", 32)));
    return D.addModule(B.finish());
  }();
  Analyzed An = analyzeOrDie(D);
  const Module &NM = D.module(Narrow);
  const Module &WM = D.module(Wide);
  uint32_t DN = An.Depths.at(Narrow).pairDepth(NM.findPort("a"),
                                               NM.findPort("y"));
  uint32_t DW = An.Depths.at(Wide).pairDepth(WM.findPort("a"),
                                             WM.findPort("y"));
  EXPECT_GT(DW, 3 * DN); // Ripple carry: ~2W levels.
}

TEST(DepthTest, FifoDepthsAreFinite) {
  Design D;
  ModuleId Id = D.addModule(gen::makeFifo({8, 3, true}));
  Analyzed An = analyzeOrDie(D);
  const Module &M = D.module(Id);
  const DepthSummary &S = An.Depths.at(Id);
  // The forwarding path v_i -> v_o exists and has nonzero depth.
  EXPECT_GT(S.pairDepth(M.findPort("v_i"), M.findPort("v_o")), 0u);
  EXPECT_GT(S.InternalDepth, 0u);
}
