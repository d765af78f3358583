//===- tests/sim/SimulatorTest.cpp - Simulator substrate tests ------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "ir/Builder.h"
#include "parse/Blif.h"

#include <gtest/gtest.h>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::sim;

TEST(SimulatorTest, RejectsCombinationalLoop) {
  Module M("loopy");
  WireId A = M.addWire("a", WireKind::Basic, 1);
  WireId In = M.addInput("x", 1);
  WireId Out = M.addOutput("y", 1);
  M.addNet(Op::And, {A, In}, A);
  M.addNet(Op::Buf, {A}, Out);
  auto S = Simulator::create(M);
  EXPECT_FALSE(S.hasValue());
  EXPECT_EQ(S.diags().firstError().code(),
            support::DiagCode::WS302_SIM_COMB_LOOP);
  EXPECT_NE(S.describe().find("combinational loop"), std::string::npos);
}

TEST(SimulatorTest, RejectsHierarchy) {
  Module M("withinst");
  SubInstance Inst;
  Inst.Def = 0;
  M.addInstance(std::move(Inst));
  auto S = Simulator::create(M);
  EXPECT_FALSE(S.hasValue());
  EXPECT_EQ(S.diags().firstError().code(),
            support::DiagCode::WS301_SIM_BUILD);
  EXPECT_NE(S.describe().find("flatten"), std::string::npos);
}

TEST(SimulatorTest, MemoryReadBeforeWriteSemantics) {
  Builder B("rmw");
  V Addr = B.input("addr", 2);
  V WData = B.input("wdata", 8);
  V Wen = B.input("wen", 1);
  B.output("y", B.memory("m", /*SyncRead=*/false, Addr, Addr, WData, Wen));
  Module M = B.finish();
  auto S = Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();

  S->setInput("addr", 1);
  S->setInput("wdata", 42);
  S->setInput("wen", 1);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 0u); // Write has not landed yet.
  S->step();
  S->setInput("wen", 0);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 42u); // Next cycle it has.
}

TEST(SimulatorTest, SyncReadLatchesPreWriteContents) {
  Builder B("sync");
  V RAddr = B.input("raddr", 2);
  V WAddr = B.input("waddr", 2);
  V WData = B.input("wdata", 8);
  V Wen = B.input("wen", 1);
  B.output("y",
           B.memory("m", /*SyncRead=*/true, RAddr, WAddr, WData, Wen));
  Module M = B.finish();
  auto S = Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();

  // Write 7 to address 2 while reading address 2: the synchronous read
  // must return the old contents (0) on the next cycle.
  S->setInput("raddr", 2);
  S->setInput("waddr", 2);
  S->setInput("wdata", 7);
  S->setInput("wen", 1);
  S->step();
  S->setInput("wen", 0);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 0u);
  // One more cycle: now the write is visible.
  S->step();
  S->evaluate();
  EXPECT_EQ(S->value("y"), 7u);
}

TEST(SimulatorTest, LoadMemoryPreloadsWords) {
  Builder B("rom");
  V Addr = B.input("addr", 3);
  B.output("y", B.memory("m", /*SyncRead=*/false, Addr, B.lit(0, 3),
                         B.lit(0, 16), B.lit(0, 1)));
  Module M = B.finish();
  auto S = Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->loadMemory(0, {10, 20, 30});
  for (uint64_t A = 0; A != 3; ++A) {
    S->setInput("addr", A);
    S->evaluate();
    EXPECT_EQ(S->value("y"), (A + 1) * 10);
  }
  EXPECT_EQ(S->memoryWord(0, 1), 20u);
}

TEST(SimulatorTest, WideArithmeticMasks) {
  Builder B("mask");
  V A = B.input("a", 64);
  B.output("y", B.add(A, B.lit(1, 64)));
  Module M = B.finish();
  auto S = Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("a", ~0ull);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 0u);
}

TEST(SimulatorTest, CycleCounterAdvances) {
  Builder B("cnt");
  V Q = B.regLoop("q", 8);
  B.drive(Q, B.inc(Q));
  B.output("y", Q);
  Module M = B.finish();
  auto S = Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  EXPECT_EQ(S->cycles(), 0u);
  for (int I = 0; I != 3; ++I)
    S->step();
  EXPECT_EQ(S->cycles(), 3u);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 3u);
}

TEST(SimulatorTest, OffSetCoverIsOneWhereNoRowMatches) {
  // A cover whose rows give output 0 lists the OFF-set: "11 0" is a NAND.
  auto File = parse::parseBlif(
      ".model nand\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
      "nand.blif");
  ASSERT_TRUE(File.hasValue()) << File.describe();
  auto S = Simulator::create(File->Design.module(File->Top));
  ASSERT_TRUE(S.hasValue()) << S.describe();
  for (uint64_t A : {0, 1})
    for (uint64_t B : {0, 1}) {
      S->setInput("a", A);
      S->setInput("b", B);
      S->evaluate();
      EXPECT_EQ(S->value("y"), A & B ? 0u : 1u) << "a=" << A << " b=" << B;
    }
}
