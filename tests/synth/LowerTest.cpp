//===- tests/synth/LowerTest.cpp - Lowering correctness tests -------------===//
//
// Part of the wiresort project. The lowered netlist must compute exactly
// what the RTL computes; these tests co-simulate both forms.
//
//===----------------------------------------------------------------------===//

#include "synth/Lower.h"

#include "gen/Fifo.h"
#include "ir/Builder.h"
#include "sim/Simulator.h"
#include "analysis/SortInference.h"
#include "gen/LoopInjector.h"
#include "synth/Flatten.h"

#include <gtest/gtest.h>

#include <random>

using namespace wiresort;
using namespace wiresort::ir;

namespace {

/// Simulates \p M (RTL) and its lowering side by side on random inputs
/// for several evaluation rounds and cycles, comparing every output.
void coSimulate(Design &D, ModuleId Id, unsigned Cycles, uint32_t Seed) {
  Module Rtl = synth::inlineInstances(D, Id);
  Module Gates = synth::lower(D, Id);
  ASSERT_FALSE(Gates.validate().has_value());

  auto RtlSim = sim::Simulator::create(Rtl);
  ASSERT_TRUE(RtlSim.hasValue()) << RtlSim.describe();
  auto GateSim = sim::Simulator::create(Gates);
  ASSERT_TRUE(GateSim.hasValue()) << GateSim.describe();

  std::mt19937 Rng(Seed);
  for (unsigned Cycle = 0; Cycle != Cycles; ++Cycle) {
    for (WireId In : Rtl.Inputs) {
      const WireView W = Rtl.wire(In);
      uint64_t Mask = W.Width >= 64 ? ~0ull : ((1ull << W.Width) - 1);
      uint64_t Value = Rng() & Mask;
      RtlSim->setInput(W.Name, Value);
      for (uint16_t Bit = 0; Bit != W.Width; ++Bit)
        GateSim->setInput(W.Name + "[" + std::to_string(Bit) + "]",
                          (Value >> Bit) & 1);
    }
    RtlSim->evaluate();
    GateSim->evaluate();
    for (WireId Out : Rtl.Outputs) {
      const WireView W = Rtl.wire(Out);
      uint64_t Bits = 0;
      for (uint16_t Bit = 0; Bit != W.Width; ++Bit)
        Bits |= GateSim->value(W.Name + "[" + std::to_string(Bit) + "]")
                << Bit;
      EXPECT_EQ(RtlSim->value(W.Name), Bits)
          << "output " << W.Name << " at cycle " << Cycle;
    }
    RtlSim->step();
    GateSim->step();
  }
}

ModuleId addBuilt(Design &D, Module M) { return D.addModule(std::move(M)); }

} // namespace

TEST(LowerTest, ArithmeticDatapathEquivalence) {
  Design D;
  Builder B("datapath");
  V A = B.input("a", 16);
  V Bv = B.input("b", 16);
  V Sel = B.input("sel", 1);
  V Sum = B.add(A, Bv);
  V Diff = B.sub(A, Bv);
  B.output("y", B.mux(Sel, Sum, Diff));
  B.output("flags", B.concat({B.eq(A, Bv), B.lt(A, Bv), B.xorr(A)}));
  ModuleId Id = addBuilt(D, B.finish());
  coSimulate(D, Id, 50, 1);
}

TEST(LowerTest, RegisterPipelineEquivalence) {
  Design D;
  Builder B("pipe");
  V A = B.input("a", 8);
  V R1 = B.reg(A, "r1");
  V R2 = B.reg(B.inc(R1), "r2");
  B.output("y", R2);
  ModuleId Id = addBuilt(D, B.finish());
  coSimulate(D, Id, 30, 2);
}

TEST(LowerTest, AsyncMemoryEquivalence) {
  Design D;
  Builder B("ram");
  V RAddr = B.input("raddr", 3);
  V WAddr = B.input("waddr", 3);
  V WData = B.input("wdata", 8);
  V Wen = B.input("wen", 1);
  B.output("y", B.memory("m", /*SyncRead=*/false, RAddr, WAddr, WData,
                         Wen));
  ModuleId Id = addBuilt(D, B.finish());
  coSimulate(D, Id, 100, 3);
}

TEST(LowerTest, SyncMemoryEquivalence) {
  Design D;
  Builder B("sram");
  V RAddr = B.input("raddr", 3);
  V WAddr = B.input("waddr", 3);
  V WData = B.input("wdata", 8);
  V Wen = B.input("wen", 1);
  B.output("y", B.memory("m", /*SyncRead=*/true, RAddr, WAddr, WData,
                         Wen));
  ModuleId Id = addBuilt(D, B.finish());
  coSimulate(D, Id, 100, 4);
}

TEST(LowerTest, FifoEquivalence) {
  Design D;
  ModuleId Id = D.addModule(gen::makeFifo({8, 2, /*Forwarding=*/true}));
  coSimulate(D, Id, 200, 5);
}

TEST(LowerTest, HierarchyInlined) {
  Design D;
  Builder Sub("sub");
  V A = Sub.input("a", 4);
  Sub.output("y", Sub.notv(A));
  ModuleId SubId = D.addModule(Sub.finish());

  Builder Top("top");
  V X = Top.input("x", 4);
  auto O1 = Top.instantiate(D, SubId, "u0", {{"a", X}});
  auto O2 = Top.instantiate(D, SubId, "u1", {{"a", O1.at("y")}});
  Top.output("y", O2.at("y"));
  ModuleId TopId = D.addModule(Top.finish());

  Module Gates = synth::lower(D, TopId);
  EXPECT_TRUE(Gates.Instances.empty());
  coSimulate(D, TopId, 20, 6);
}

TEST(LowerTest, OnlyPrimitiveOpsSurvive) {
  Design D;
  ModuleId Id = D.addModule(gen::makeFifo({16, 3, false}));
  Module Gates = synth::lower(D, Id);
  for (const Net &N : Gates.Nets)
    EXPECT_TRUE(isPrimitiveOp(N.Operation)) << opName(N.Operation);
  for (const Wire &W : Gates.Wires)
    EXPECT_EQ(W.Width, 1);
  EXPECT_TRUE(Gates.Memories.empty());
}

TEST(LowerTest, GateCountGrowsWithWidth) {
  // The Table 3 premise: netlists blow up relative to RTL.
  Design D;
  gen::FifoParams Small{8, 2, false};
  gen::FifoParams Big{32, 4, false};
  ModuleId SmallId = D.addModule(gen::makeFifo(Small));
  ModuleId BigId = D.addModule(gen::makeFifo(Big));
  size_t SmallGates = synth::primitiveGateCount(D, SmallId);
  size_t BigGates = synth::primitiveGateCount(D, BigId);
  EXPECT_GT(BigGates, 4 * SmallGates);
  // And dwarfs the RTL net count.
  EXPECT_GT(SmallGates, D.module(SmallId).Nets.size() * 4);
}

TEST(LowerTest, HierarchicalGateCountCountsUniqueDefsOnce) {
  Design D;
  Builder Sub("leaf");
  V A = Sub.input("a", 8);
  Sub.output("y", Sub.add(A, Sub.lit(1, 8)));
  ModuleId SubId = D.addModule(Sub.finish());

  Builder Top("top2");
  V X = Top.input("x", 8);
  auto O1 = Top.instantiate(D, SubId, "u0", {{"a", X}});
  auto O2 = Top.instantiate(D, SubId, "u1", {{"a", O1.at("y")}});
  Top.output("y", O2.at("y"));
  ModuleId TopId = D.addModule(Top.finish());

  size_t Flat = synth::primitiveGateCount(D, TopId);
  size_t Hier = synth::hierarchicalGateCount(D, TopId);
  // Flat counts the adder twice; hierarchical once.
  EXPECT_GT(Flat, Hier);
}

TEST(LowerTest, HierarchicalLoweringPreservesBehavior) {
  // lowerHierarchical + inline must equal flat lowering behaviorally.
  Design D;
  Builder Leaf("leafh");
  V A = Leaf.input("a", 8);
  V Bv = Leaf.input("b", 8);
  Leaf.output("y", Leaf.add(A, Bv));
  ModuleId LeafId = D.addModule(Leaf.finish());

  Builder Top("toph");
  V X = Top.input("x", 8);
  auto O1 = Top.instantiate(D, LeafId, "u0", {{"a", X}, {"b", Top.lit(3, 8)}});
  auto O2 = Top.instantiate(D, LeafId, "u1",
                            {{"a", O1.at("y")}, {"b", X}});
  Top.output("y", Top.reg(O2.at("y"), "r"));
  ModuleId TopId = D.addModule(Top.finish());

  synth::HierLowered Hier = synth::lowerHierarchical(D, TopId);
  ASSERT_FALSE(Hier.Design.validate().has_value());
  // Hierarchy preserved: two instances of one lowered definition.
  EXPECT_EQ(Hier.Design.module(Hier.Top).Instances.size(), 2u);

  Module HierFlat = synth::inlineInstances(Hier.Design, Hier.Top);
  Module Flat = synth::lower(D, TopId);

  auto S1 = sim::Simulator::create(HierFlat);
  ASSERT_TRUE(S1.hasValue()) << S1.describe();
  auto S2 = sim::Simulator::create(Flat);
  ASSERT_TRUE(S2.hasValue()) << S2.describe();
  for (int Cycle = 0; Cycle != 32; ++Cycle) {
    for (int Bit = 0; Bit != 8; ++Bit) {
      uint64_t Value = (Cycle * 37 >> Bit) & 1;
      S1->setInput("x[" + std::to_string(Bit) + "]", Value);
      S2->setInput("x[" + std::to_string(Bit) + "]", Value);
    }
    S1->step();
    S2->step();
    for (int Bit = 0; Bit != 8; ++Bit)
      EXPECT_EQ(S1->value("y[" + std::to_string(Bit) + "]"),
                S2->value("y[" + std::to_string(Bit) + "]"))
          << "bit " << Bit << " cycle " << Cycle;
  }
}

TEST(LowerTest, HierarchicalLoweringAnalyzable) {
  // Summaries over the hierarchically lowered design find injected
  // loops exactly like the flat baseline (the Table 3 equivalence).
  Design D;
  ModuleId F1 = D.addModule(gen::makeFifo({8, 2, false}));
  ModuleId F2 = D.addModule(gen::makeFifo({8, 2, true}));

  // Loop-free composition first.
  {
    Design DChain = D;
    ir::Circuit Chain =
        gen::buildOpenChain(DChain, {F1, F2}, "chainh");
    ModuleId Top = Chain.seal();
    synth::HierLowered Hier = synth::lowerHierarchical(DChain, Top);
    std::map<ModuleId, analysis::ModuleSummary> Out;
    EXPECT_FALSE(analysis::analyzeDesign(Hier.Design, Out).hasError());
  }
  // Looped composition must be rejected during summary computation.
  {
    Design DRing = D;
    ir::Circuit Ring = gen::buildLoopedRing(DRing, {F1, F2}, "ringh");
    ModuleId Top = Ring.seal();
    synth::HierLowered Hier = synth::lowerHierarchical(DRing, Top);
    std::map<ModuleId, analysis::ModuleSummary> Out;
    support::Status Loop = analysis::analyzeDesign(Hier.Design, Out);
    EXPECT_TRUE(Loop.hasError());
  }
}

TEST(LowerTest, InstanceCounting) {
  Design D;
  ModuleId Leaf = [&] {
    Builder B("leafc");
    V A = B.input("a", 1);
    B.output("y", B.notv(A));
    return D.addModule(B.finish());
  }();
  ModuleId Mid = [&] {
    Builder B("midc");
    V A = B.input("a", 1);
    auto O1 = B.instantiate(D, Leaf, "l0", {{"a", A}});
    auto O2 = B.instantiate(D, Leaf, "l1", {{"a", O1.at("y")}});
    B.output("y", O2.at("y"));
    return D.addModule(B.finish());
  }();
  ModuleId Top = [&] {
    Builder B("topc");
    V A = B.input("a", 1);
    auto O1 = B.instantiate(D, Mid, "m0", {{"a", A}});
    auto O2 = B.instantiate(D, Mid, "m1", {{"a", O1.at("y")}});
    B.output("y", O2.at("y"));
    return D.addModule(B.finish());
  }();
  // 2 mids + 2*2 leaves = 6 total instances; 2 unique defs below top.
  EXPECT_EQ(synth::totalInstanceCount(D, Top), 6u);
  EXPECT_EQ(synth::uniqueModuleCount(D, Top), 2u);
}
