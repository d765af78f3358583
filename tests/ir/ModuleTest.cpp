//===- tests/ir/ModuleTest.cpp - Module/Design invariant tests ------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/Design.h"
#include "ir/Module.h"

#include <gtest/gtest.h>

using namespace wiresort;
using namespace wiresort::ir;

namespace {

/// in -> not -> out.
Module inverter() {
  Module M("inv");
  WireId In = M.addInput("a", 1);
  WireId Out = M.addOutput("y", 1);
  M.addNet(Op::Not, {In}, Out);
  return M;
}

} // namespace

TEST(ModuleTest, ValidModulePasses) {
  Module M = inverter();
  EXPECT_FALSE(M.validate().has_value());
}

TEST(ModuleTest, UndrivenOutputCaughtByDesignValidate) {
  Module M("bad");
  M.addInput("a", 1);
  M.addOutput("y", 1);
  Design D;
  D.addModule(std::move(M));
  auto Err = D.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("no driver"), std::string::npos);
}

TEST(ModuleTest, DoubleDriverRejected) {
  Module M("bad");
  WireId A = M.addInput("a", 1);
  WireId Y = M.addOutput("y", 1);
  M.addNet(Op::Buf, {A}, Y);
  M.addNet(Op::Not, {A}, Y);
  auto Err = M.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("multiple drivers"), std::string::npos);
}

TEST(ModuleTest, DrivenInputRejected) {
  Module M("bad");
  WireId A = M.addInput("a", 1);
  WireId B = M.addInput("b", 1);
  M.addNet(Op::Buf, {A}, B);
  EXPECT_TRUE(M.validate().has_value());
}

TEST(ModuleTest, WidthMismatchRejected) {
  Module M("bad");
  WireId A = M.addInput("a", 2);
  WireId B = M.addInput("b", 3);
  WireId Y = M.addOutput("y", 3);
  M.addNet(Op::And, {A, B}, Y);
  auto Err = M.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("ill-typed"), std::string::npos);
}

TEST(ModuleTest, ResultWidthRules) {
  EXPECT_EQ(Module::resultWidth(Op::And, {8, 8}, 0, 8), 8);
  EXPECT_EQ(Module::resultWidth(Op::And, {8, 4}, 0, 8), std::nullopt);
  EXPECT_EQ(Module::resultWidth(Op::Eq, {16, 16}, 0, 1), 1);
  EXPECT_EQ(Module::resultWidth(Op::Concat, {8, 8, 4}, 0, 20), 20);
  EXPECT_EQ(Module::resultWidth(Op::Mux, {1, 8, 8}, 0, 8), 8);
  EXPECT_EQ(Module::resultWidth(Op::Mux, {2, 8, 8}, 0, 8), std::nullopt);
  // Select of bits [5:2] out of 8.
  EXPECT_EQ(Module::resultWidth(Op::Select, {8}, 2, 4), 4);
  EXPECT_EQ(Module::resultWidth(Op::Select, {8}, 6, 4), std::nullopt);
}

TEST(ModuleTest, FindPortResolvesNames) {
  Module M = inverter();
  EXPECT_NE(M.findPort("a"), InvalidId);
  EXPECT_NE(M.findPort("y"), InvalidId);
  EXPECT_EQ(M.findPort("nope"), InvalidId);
  EXPECT_EQ(M.numPorts(), 2u);
}

TEST(ModuleTest, PortIndexBindsWhatFindPortBinds) {
  // Inputs before outputs, whatever the wire order, and the first port
  // with a name wins; an internal wire is not a port.
  Module M("dup");
  M.addOutput("x");
  const WireId X = M.addInput("x");
  const WireId A = M.addInput("a");
  M.addInput("a");
  const WireId Y = M.addOutput("y");
  M.addOutput("y");
  M.addWire("w", WireKind::Basic);
  const PortIndex Ports(M);
  for (const char *Name : {"x", "a", "y", "w", "nope", ""})
    EXPECT_EQ(Ports.find(M, Name), M.findPort(Name)) << Name;
  EXPECT_EQ(Ports.find(M, "x"), X);
  EXPECT_EQ(Ports.find(M, "a"), A);
  EXPECT_EQ(Ports.find(M, "y"), Y);
  EXPECT_EQ(Ports.find(M, "w"), InvalidId);

  // A module without ports, and an index built from nothing.
  const Module Empty("empty");
  EXPECT_EQ(PortIndex(Empty).find(Empty, "a"), InvalidId);
  EXPECT_EQ(PortIndex().find(M, "a"), InvalidId);
}

TEST(ModuleTest, PortIndexFindsEveryPortOfAWideModule) {
  Module M("wide");
  std::vector<std::pair<std::string, WireId>> Want;
  for (int I = 0; I != 2500; ++I)
    Want.emplace_back("i" + std::to_string(I),
                      M.addInput("i" + std::to_string(I)));
  for (int I = 0; I != 2500; ++I)
    Want.emplace_back("o" + std::to_string(I),
                      M.addOutput("o" + std::to_string(I)));
  const PortIndex Ports(M);
  // Reallocating the wire vector moves every short name (std::string
  // keeps them inline); the index holds no views of them.
  for (int I = 0; I != 10000; ++I)
    M.addWire("n" + std::to_string(I), WireKind::Basic);
  for (const auto &[Name, Id] : Want)
    ASSERT_EQ(Ports.find(M, Name), Id) << Name;
  EXPECT_EQ(Ports.find(M, "n0"), InvalidId);
  EXPECT_EQ(Ports.find(M, "i2500"), InvalidId);
}

TEST(DesignTest, InstanceBindingValidation) {
  Design D;
  ModuleId Inv = D.addModule(inverter());

  Module Top("top");
  WireId In = Top.addInput("x", 1);
  WireId Out = Top.addOutput("z", 1);
  SubInstance Inst;
  Inst.Def = Inv;
  Inst.Name = "u0";
  Inst.Bindings.emplace_back(D.module(Inv).findPort("a"), In);
  Inst.Bindings.emplace_back(D.module(Inv).findPort("y"), Out);
  Top.addInstance(std::move(Inst));
  D.addModule(std::move(Top));

  EXPECT_FALSE(D.validate().has_value());
}

TEST(DesignTest, UnboundInstanceInputRejected) {
  Design D;
  ModuleId Inv = D.addModule(inverter());

  Module Top("top");
  WireId Out = Top.addOutput("z", 1);
  SubInstance Inst;
  Inst.Def = Inv;
  Inst.Name = "u0";
  Inst.Bindings.emplace_back(D.module(Inv).findPort("y"), Out);
  Top.addInstance(std::move(Inst));
  D.addModule(std::move(Top));

  auto Err = D.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("unbound"), std::string::npos);
}

TEST(DesignTest, CyclicInstantiationRejected) {
  Design D;
  // Module 0 instantiates module 1 and vice versa.
  Module A("a");
  Module B("b");
  SubInstance IA;
  IA.Def = 1;
  IA.Name = "ub";
  A.addInstance(std::move(IA));
  SubInstance IB;
  IB.Def = 0;
  IB.Name = "ua";
  B.addInstance(std::move(IB));
  D.addModule(std::move(A));
  D.addModule(std::move(B));
  auto Err = D.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("cyclic"), std::string::npos);
}

TEST(DesignTest, TopologicalModuleOrderRespectsInstantiation) {
  Design D;
  ModuleId Inv = D.addModule(inverter());
  Module Top("top");
  WireId In = Top.addInput("x", 1);
  WireId Out = Top.addOutput("z", 1);
  SubInstance Inst;
  Inst.Def = Inv;
  Inst.Name = "u0";
  Inst.Bindings.emplace_back(D.module(Inv).findPort("a"), In);
  Inst.Bindings.emplace_back(D.module(Inv).findPort("y"), Out);
  Top.addInstance(std::move(Inst));
  ModuleId TopId = D.addModule(std::move(Top));

  auto Order = D.topologicalModuleOrder();
  ASSERT_TRUE(Order.has_value());
  size_t InvPos = 0, TopPos = 0;
  for (size_t I = 0; I != Order->size(); ++I) {
    if ((*Order)[I] == Inv)
      InvPos = I;
    if ((*Order)[I] == TopId)
      TopPos = I;
  }
  EXPECT_LT(InvPos, TopPos);
}
