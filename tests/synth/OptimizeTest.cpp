//===- tests/synth/OptimizeTest.cpp - Netlist optimization tests ----------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "synth/Optimize.h"

#include "gen/Fifo.h"
#include "gen/LoopInjector.h"
#include "ir/Builder.h"
#include "parse/Blif.h"
#include "sim/Simulator.h"
#include "synth/CycleDetect.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

#include <random>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::synth;

TEST(OptimizeTest, ConstantsFoldThroughGates) {
  Builder B("constfold");
  V A = B.input("a", 1);
  // y = (a & 0) | 1 == 1 regardless of a.
  B.output("y", B.orv(B.andv(A, B.lit(0, 1)), B.lit(1, 1)));
  Module M = B.finish();
  Module Gates = [&] {
    Design D;
    ModuleId Id = D.addModule(std::move(M));
    return lower(D, Id);
  }();

  OptimizeStats Stats = optimize(Gates);
  EXPECT_GT(Stats.GatesFolded, 0u);
  ASSERT_FALSE(Gates.validate().has_value());

  auto S = sim::Simulator::create(Gates);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("a[0]", 0);
  S->evaluate();
  EXPECT_EQ(S->value("y[0]"), 1u);
  S->setInput("a[0]", 1);
  S->evaluate();
  EXPECT_EQ(S->value("y[0]"), 1u);
}

TEST(OptimizeTest, OffSetCoverFoldsToOneWhereNoRowMatches) {
  // c is a cover with no rows, the constant 0; "11 0" lists the OFF-set
  // of a NAND, so y = nand(c, c) folds to 1.
  auto File = parse::parseBlif(".model m\n.outputs y\n.names c\n"
                               ".names c c y\n11 0\n.end\n",
                               "m.blif");
  ASSERT_TRUE(File.hasValue()) << File.describe();
  Module M = File->Design.module(File->Top);
  OptimizeOptions Opts;
  Opts.RemoveDeadGates = false;
  EXPECT_EQ(optimize(M, Opts).GatesFolded, 2u);
  ASSERT_FALSE(M.validate().has_value());

  // Both nets are buffers of constants now, so this reads the folds.
  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->evaluate();
  EXPECT_EQ(S->value("c"), 0u);
  EXPECT_EQ(S->value("y"), 1u);
}

TEST(OptimizeTest, DeadGatesRemoved) {
  Builder B("dead");
  V A = B.input("a", 8);
  V Unused = B.add(A, B.lit(5, 8)); // Feeds nothing.
  (void)Unused;
  B.output("y", B.notv(A));
  Module M = B.finish();
  Module Gates = [&] {
    Design D;
    ModuleId Id = D.addModule(std::move(M));
    return lower(D, Id);
  }();

  size_t Before = Gates.Nets.size();
  OptimizeStats Stats = optimize(Gates);
  EXPECT_GT(Stats.GatesRemoved, 0u);
  EXPECT_LT(Gates.Nets.size(), Before);
  ASSERT_FALSE(Gates.validate().has_value());
}

TEST(OptimizeTest, OptimizationPreservesBehavior) {
  Design D;
  ModuleId Id = D.addModule(gen::makeFifo({8, 2, true}));
  Module Reference = lower(D, Id);
  Module Optimized = Reference;
  optimize(Optimized);
  ASSERT_FALSE(Optimized.validate().has_value());

  auto RefSim = sim::Simulator::create(Reference);
  ASSERT_TRUE(RefSim.hasValue()) << RefSim.describe();
  auto OptSim = sim::Simulator::create(Optimized);
  ASSERT_TRUE(OptSim.hasValue()) << OptSim.describe();

  std::mt19937 Rng(42);
  for (int Cycle = 0; Cycle != 100; ++Cycle) {
    for (WireId In : Reference.Inputs) {
      uint64_t Bit = Rng() & 1;
      RefSim->setInput(Reference.wire(In).Name, Bit);
      OptSim->setInput(Reference.wire(In).Name, Bit);
    }
    RefSim->step();
    OptSim->step();
    for (WireId Out : Reference.Outputs)
      EXPECT_EQ(RefSim->value(Reference.wire(Out).Name),
                OptSim->value(Reference.wire(Out).Name))
          << Reference.wire(Out).Name << " cycle " << Cycle;
  }
}

TEST(OptimizeTest, BreakLoopsSilentlyHidesTheBug) {
  // The Section 2 hazard reproduced: a looped design "successfully"
  // optimizes into a clean netlist, and post-optimization cycle
  // detection reports nothing.
  Design D;
  ModuleId F = D.addModule(gen::makeFifo({8, 2, true}));
  Circuit Circ = gen::buildLoopedRing(D, {F, F}, "ring");
  ModuleId Top = Circ.seal();
  Module Gates = lower(D, Top);
  ASSERT_TRUE(detectCycles(Gates).HasLoop);

  OptimizeOptions Opts;
  Opts.BreakLoops = true;
  OptimizeStats Stats = optimize(Gates, Opts);
  EXPECT_GT(Stats.LoopsBroken, 0u);
  EXPECT_FALSE(detectCycles(Gates).HasLoop); // The bug is now invisible.
  ASSERT_FALSE(Gates.validate().has_value());
}

TEST(OptimizeTest, MuxWithKnownSelectFolds) {
  Builder B("muxfold");
  V A = B.input("a", 1);
  V Bv = B.input("b", 1);
  B.output("y", B.mux(B.lit(1, 1), A, Bv)); // Always a.
  Module Gates = [&] {
    Design D;
    ModuleId Id = D.addModule(B.finish());
    return lower(D, Id);
  }();
  // Mux with constant select does not fold to a constant, but behavior
  // must be preserved regardless.
  optimize(Gates);
  auto S = sim::Simulator::create(Gates);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("a[0]", 1);
  S->setInput("b[0]", 0);
  S->evaluate();
  EXPECT_EQ(S->value("y[0]"), 1u);
}
