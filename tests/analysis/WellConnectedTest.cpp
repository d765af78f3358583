//===- tests/analysis/WellConnectedTest.cpp - Circuit check tests ---------===//
//
// Part of the wiresort project. Exercises the paper's figures: the
// Figure 3 three-module loop, the always-safe connections of Figure 5,
// and the it-depends connections of Figure 6.
//
//===----------------------------------------------------------------------===//

#include "analysis/WellConnected.h"

#include "analysis/SortInference.h"
#include "gen/Catalog.h"
#include "gen/Fifo.h"
#include "ir/Builder.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

Summaries analyzeOrDie(const Design &D) {
  Summaries Out;
  wiresort::support::Status Loop = analyzeDesign(D, Out);
  EXPECT_FALSE(Loop.hasError()) << Loop.describe();
  return Out;
}

/// Builds the Figure 3 circuit: a normal FIFO, a forwarding FIFO, and a
/// combinational module X closing the triangle on the valid wires.
/// fifo.v_o? No — the paper routes: normal FIFO's readyout path is not
/// involved; the loop is: fwd.v_o -> normal.v_i -> (X taps normal's
/// v_i-derived signal) ... our rendering: normal FIFO exposes v_i; module
/// X computes a function of a signal combinationally derived from
/// normal's v_i. Since our normal FIFO is fully sync, we add a tiny
/// "monitor" module that forwards v combinationally (standing in for the
/// paper's "some combinational function of its valid_i" inside the
/// normal FIFO).
struct Figure3 {
  Design D;
  Circuit Circ{D, "fig3"};
  InstId Normal = 0, Fwd = 0, X = 0, Monitor = 0;

  Figure3() {
    ModuleId NormalId = D.addModule(gen::makeFifo({8, 2, false}));
    ModuleId FwdId = D.addModule(gen::makeFifo({8, 2, true}));
    ModuleId XId = D.addModule(gen::makePassthrough(1));
    // The monitor taps the wire driving normal.v_i combinationally —
    // exactly the role the normal FIFO's internal combinational fanout
    // of valid_i plays in the paper's Figure 3.
    ModuleId MonId = D.addModule(gen::makePassthrough(1));

    Normal = Circ.addInstance(NormalId, "fifo_normal");
    Fwd = Circ.addInstance(FwdId, "fifo_fwd");
    X = Circ.addInstance(XId, "module_x");
    Monitor = Circ.addInstance(MonId, "monitor");

    // fwd.v_o -> normal.v_i (the direct connection)...
    Circ.connect(Fwd, "v_o", Normal, "v_i");
    // ...and in parallel into the monitor...
    Circ.connect(Fwd, "v_o", Monitor, "data_i");
    // ...whose combinational output goes through module X...
    Circ.connect(Monitor, "data_o", X, "data_i");
    // ...and back into the forwarding FIFO's v_i: the loop.
    Circ.connect(X, "data_o", Fwd, "v_i");
  }
};

/// checkCircuit under a trace session; \p PortGraphs receives the number
/// of analysis.port_graph spans it recorded.
CircuitCheckResult checkCountingPortGraphs(const Circuit &Circ,
                                           const Summaries &S,
                                           size_t &PortGraphs) {
  trace::Session Session;
  CircuitCheckResult R = checkCircuit(Circ, S);
  Session.finish();
  PortGraphs = 0;
  for (const trace::SpanRecord &Span : Session.spans())
    PortGraphs += Span.Name == "analysis.port_graph";
  return R;
}

} // namespace

TEST(WellConnectedTest, Figure3LoopDetected) {
  Figure3 F;
  Summaries S = analyzeOrDie(F.D);
  CircuitCheckResult R = checkCircuit(F.Circ, S);
  EXPECT_FALSE(R.WellConnected);
  ASSERT_TRUE(R.Diags.hasError());
  std::string Desc = R.Diags.describe();
  EXPECT_NE(Desc.find("fifo_fwd"), std::string::npos) << Desc;
  EXPECT_NE(Desc.find("module_x"), std::string::npos) << Desc;
}

TEST(WellConnectedTest, Figure3PairwiseAgrees) {
  Figure3 F;
  Summaries S = analyzeOrDie(F.D);
  CircuitCheckResult R = checkCircuitPairwise(F.Circ, S);
  EXPECT_FALSE(R.WellConnected);
}

TEST(WellConnectedTest, Figure3WithNormalFifoIsFine) {
  // "If the forwarding FIFO were instead a normal FIFO ... then this
  // would be fine."
  Design D;
  ModuleId NormalId = D.addModule(gen::makeFifo({8, 2, false}));
  ModuleId XId = D.addModule(gen::makePassthrough(1));
  ModuleId MonId = D.addModule(gen::makePassthrough(1));

  Circuit Circ(D, "fig3_fixed");
  InstId N1 = Circ.addInstance(NormalId, "fifo1");
  InstId N2 = Circ.addInstance(NormalId, "fifo2");
  InstId X = Circ.addInstance(XId, "module_x");
  InstId Mon = Circ.addInstance(MonId, "monitor");
  Circ.connect(N2, "v_o", N1, "v_i");
  Circ.connect(N2, "v_o", Mon, "data_i");
  Circ.connect(Mon, "data_o", X, "data_i");
  Circ.connect(X, "data_o", N2, "v_i");

  Summaries S = analyzeOrDie(D);
  EXPECT_TRUE(checkCircuit(Circ, S).WellConnected);
  EXPECT_TRUE(checkCircuitPairwise(Circ, S).WellConnected);
}

TEST(WellConnectedTest, Figure5SyncConnectionsAlwaysSafe) {
  // from-sync -> to-port, from-port -> to-sync, from-sync -> to-sync:
  // all classified safe by sorts alone (Property 1).
  Design D;
  ModuleId Fwd = D.addModule(gen::makeFifo({8, 2, true}));
  ModuleId Normal = D.addModule(gen::makeFifo({8, 2, false}));

  Circuit Circ(D, "fig5");
  InstId A = Circ.addInstance(Fwd, "a");
  InstId B = Circ.addInstance(Normal, "b");
  // a.ready_o (from-sync) -> b.v_i (to-sync): doubly safe.
  Circ.connect(A, "ready_o", B, "v_i");
  // b.v_o (from-sync) -> a.v_i (to-port): safe by Property 1.
  Circ.connect(B, "v_o", A, "v_i");

  Summaries S = analyzeOrDie(D);
  CircuitCheckResult R = checkCircuit(Circ, S);
  EXPECT_TRUE(R.WellConnected);
  EXPECT_EQ(R.SafeBySort, 2u);
  EXPECT_EQ(R.NeedsCheck, 0u);
}

TEST(WellConnectedTest, Figure6PortPortSafeWhenNoCycleCloses) {
  // Figure 6a: from-port -> to-port with the downstream module's
  // affected outputs dangling — well-connected.
  Design D;
  ModuleId Fwd = D.addModule(gen::makeFifo({8, 2, true}));
  Circuit Circ(D, "fig6a");
  InstId A = Circ.addInstance(Fwd, "a");
  InstId B = Circ.addInstance(Fwd, "b");
  Circ.connect(A, "v_o", B, "v_i"); // from-port -> to-port.
  Summaries S = analyzeOrDie(D);
  CircuitCheckResult R = checkCircuit(Circ, S);
  EXPECT_TRUE(R.WellConnected);
  EXPECT_EQ(R.NeedsCheck, 1u);

  PortGraph PG = PortGraph::build(Circ, S);
  EXPECT_TRUE(isWellConnectedPair(PG, Circ, S, Circ.connections()[0]));
}

TEST(WellConnectedTest, Figure6PortPortLoopWhenCycleCloses) {
  // Figure 6b: close the cycle back through the second module.
  Design D;
  ModuleId Fwd = D.addModule(gen::makeFifo({8, 2, true}));
  ModuleId X = D.addModule(gen::makePassthrough(1));
  Circuit Circ(D, "fig6b");
  InstId A = Circ.addInstance(Fwd, "a");
  InstId B = Circ.addInstance(Fwd, "b");
  InstId Glue = Circ.addInstance(X, "glue");
  Circ.connect(A, "v_o", B, "v_i");
  Circ.connect(B, "v_o", Glue, "data_i");
  Circ.connect(Glue, "data_o", A, "v_i");
  Summaries S = analyzeOrDie(D);
  CircuitCheckResult R = checkCircuit(Circ, S);
  EXPECT_FALSE(R.WellConnected);
  ASSERT_TRUE(R.Diags.hasError());

  PortGraph PG = PortGraph::build(Circ, S);
  EXPECT_FALSE(isWellConnectedPair(PG, Circ, S, Circ.connections()[0]));
}

TEST(WellConnectedTest, SelfLoopThroughOneModule) {
  // A module whose own output feeds its own to-port input.
  Design D;
  ModuleId AndId = D.addModule(gen::makeCombAnd(1));
  Circuit Circ(D, "selfconn");
  InstId U = Circ.addInstance(AndId, "u");
  Circ.connect(U, "data_o", U, "a_i");
  Summaries S = analyzeOrDie(D);
  EXPECT_FALSE(checkCircuit(Circ, S).WellConnected);
  EXPECT_FALSE(checkCircuitPairwise(Circ, S).WellConnected);
}

TEST(WellConnectedTest, LongChainOfForwardingFifosIsSafe) {
  // Forwarding FIFOs in a pipeline (no back edge): fine, even though
  // every connection is from-port -> to-port.
  Design D;
  ModuleId Fwd = D.addModule(gen::makeFifo({8, 2, true}));
  Circuit Circ(D, "chain");
  std::vector<InstId> Insts;
  for (int I = 0; I != 10; ++I)
    Insts.push_back(Circ.addInstance(Fwd, "q" + std::to_string(I)));
  for (int I = 0; I + 1 != 10; ++I) {
    Circ.connect(Insts[I], "v_o", Insts[I + 1], "v_i");
    Circ.connect(Insts[I], "data_o", Insts[I + 1], "data_i");
  }
  Summaries S = analyzeOrDie(D);
  CircuitCheckResult R = checkCircuit(Circ, S);
  EXPECT_TRUE(R.WellConnected);
  EXPECT_EQ(R.NeedsCheck, 18u);
}

TEST(WellConnectedTest, RingOfForwardingFifosLoops) {
  Design D;
  ModuleId Fwd = D.addModule(gen::makeFifo({8, 2, true}));
  Circuit Circ(D, "ring");
  std::vector<InstId> Insts;
  for (int I = 0; I != 4; ++I)
    Insts.push_back(Circ.addInstance(Fwd, "q" + std::to_string(I)));
  for (int I = 0; I != 4; ++I)
    Circ.connect(Insts[I], "v_o", Insts[(I + 1) % 4], "v_i");
  Summaries S = analyzeOrDie(D);
  EXPECT_FALSE(checkCircuit(Circ, S).WellConnected);
}

TEST(WellConnectedTest, RingOfNormalFifosIsSafe) {
  Design D;
  ModuleId Normal = D.addModule(gen::makeFifo({8, 2, false}));
  Circuit Circ(D, "ring_ok");
  std::vector<InstId> Insts;
  for (int I = 0; I != 4; ++I)
    Insts.push_back(Circ.addInstance(Normal, "q" + std::to_string(I)));
  for (int I = 0; I != 4; ++I) {
    Circ.connect(Insts[I], "v_o", Insts[(I + 1) % 4], "v_i");
    Circ.connect(Insts[I], "data_o", Insts[(I + 1) % 4], "data_i");
    Circ.connect(Insts[I], "ready_o", Insts[(I + 1) % 4], "yumi_i");
  }
  Summaries S = analyzeOrDie(D);
  size_t PortGraphs = 0;
  CircuitCheckResult R = checkCountingPortGraphs(Circ, S, PortGraphs);
  EXPECT_TRUE(R.WellConnected);
  // Everything safe by sorts: the universal interface. Stage 3 has
  // nothing left to look at, so it builds no graph.
  EXPECT_EQ(R.NeedsCheck, 0u);
  EXPECT_EQ(R.SafeBySort, 12u);
  EXPECT_EQ(PortGraphs, 0u);
}

TEST(WellConnectedTest, TransitivelyAffectsMatchesDefinition) {
  Figure3 F;
  Summaries S = analyzeOrDie(F.D);
  PortGraph PG = PortGraph::build(F.Circ, S);
  const Module &FwdDef = F.Circ.defOf(F.Fwd);
  // fwd.v_i ~> fwd.v_o via the summary edge.
  EXPECT_TRUE(PG.transitivelyAffects(
      PortRef{F.Fwd, FwdDef.findPort("v_i")},
      PortRef{F.Fwd, FwdDef.findPort("v_o")}));
  // fwd.yumi_i affects nothing combinationally.
  EXPECT_FALSE(PG.transitivelyAffects(
      PortRef{F.Fwd, FwdDef.findPort("yumi_i")},
      PortRef{F.Fwd, FwdDef.findPort("v_o")}));
}

TEST(WellConnectedTest, LoopAmongSafeTapsKeepsTheWholeGraphWitness) {
  // Figure 3 plus taps that are safe by sort. Stage 3 drops the taps,
  // still finds the loop, and only then builds the whole port graph to
  // walk the witness.
  Figure3 F;
  const ModuleId NormalId = F.Circ.instances()[F.Normal].Def;
  InstId Tap = F.Circ.addInstance(NormalId, "tap");
  F.Circ.connect(F.Normal, "v_o", Tap, "v_i");
  F.Circ.connect(F.Fwd, "ready_o", Tap, "yumi_i");
  F.Circ.connect(Tap, "data_o", F.Fwd, "data_i");
  F.Circ.connect(Tap, "ready_o", F.Normal, "yumi_i");
  Summaries S = analyzeOrDie(F.D);
  size_t PortGraphs = 0;
  CircuitCheckResult R = checkCountingPortGraphs(F.Circ, S, PortGraphs);
  EXPECT_FALSE(R.WellConnected);
  EXPECT_EQ(R.WellConnected, checkCircuitPairwise(F.Circ, S).WellConnected);
  EXPECT_EQ(R.NeedsCheck, 3u);
  EXPECT_EQ(R.SafeBySort, 5u);
  EXPECT_EQ(PortGraphs, 1u);
  ASSERT_EQ(R.Diags.size(), 1u);
  EXPECT_EQ(R.Diags[0].code(), support::DiagCode::WS101_COMB_LOOP);
  EXPECT_EQ(R.Diags[0].witnessLabels(),
            (std::vector<std::string>{"fifo_fwd.v_i", "fifo_fwd.v_o",
                                      "monitor.data_i", "monitor.data_o",
                                      "module_x.data_i", "module_x.data_o"}));
}

TEST(WellConnectedTest, NeedsCheckChainCutByToSyncInputBuildsNoPortGraph) {
  // q0 -> q1 -> q2 forward valid combinationally (from-port -> to-port),
  // and the ring closes through a normal FIFO whose v_i is to-sync: the
  // needs-check connections form no cycle on their own.
  Design D;
  ModuleId Fwd = D.addModule(gen::makeFifo({8, 2, true}));
  ModuleId Normal = D.addModule(gen::makeFifo({8, 2, false}));
  Circuit Circ(D, "cut");
  InstId Q0 = Circ.addInstance(Fwd, "q0");
  InstId Q1 = Circ.addInstance(Fwd, "q1");
  InstId Q2 = Circ.addInstance(Fwd, "q2");
  InstId N = Circ.addInstance(Normal, "n");
  Circ.connect(Q0, "v_o", Q1, "v_i");
  Circ.connect(Q1, "v_o", Q2, "v_i");
  Circ.connect(Q2, "v_o", N, "v_i");
  Circ.connect(N, "v_o", Q0, "v_i");
  Summaries S = analyzeOrDie(D);
  size_t PortGraphs = 0;
  CircuitCheckResult R = checkCountingPortGraphs(Circ, S, PortGraphs);
  EXPECT_TRUE(R.WellConnected);
  EXPECT_TRUE(checkCircuitPairwise(Circ, S).WellConnected);
  EXPECT_EQ(R.NeedsCheck, 2u);
  EXPECT_EQ(R.SafeBySort, 2u);
  EXPECT_EQ(PortGraphs, 0u);
}
