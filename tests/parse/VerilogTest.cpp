//===- tests/parse/VerilogTest.cpp - Verilog export tests -----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "parse/Verilog.h"

#include "gen/Fifo.h"
#include "ir/Builder.h"
#include "parse/Blif.h"
#include "parse/VerilogReader.h"
#include "sim/Simulator.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::parse;

namespace {

/// Counts occurrences of \p Needle in \p Haystack.
size_t countOf(const std::string &Haystack, const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

} // namespace

TEST(VerilogTest, EmitsCombinationalAssigns) {
  Builder B("gates");
  V A = B.input("a", 1);
  V Bv = B.input("b", 1);
  B.output("y_and", B.andv(A, Bv));
  B.output("y_not", B.notv(A));
  B.output("y_mux", B.mux(A, Bv, B.lit(0, 1)));
  Design D;
  ModuleId Id = D.addModule(B.finish());
  Design Flat;
  ModuleId FlatId = Flat.addModule(synth::lower(D, Id));
  std::string V = writeVerilog(Flat, FlatId);

  EXPECT_NE(V.find("module"), std::string::npos);
  EXPECT_NE(V.find("endmodule"), std::string::npos);
  EXPECT_NE(V.find("input wire clk"), std::string::npos);
  EXPECT_GT(countOf(V, "assign"), 3u);
  EXPECT_NE(V.find("? "), std::string::npos); // The mux.
  // Escaped identifiers for bracketed bit names.
  EXPECT_NE(V.find("\\a[0] "), std::string::npos);
}

TEST(VerilogTest, EmitsRegistersWithInitials) {
  Builder B("seq");
  V A = B.input("a", 1);
  V Q = B.regLoop("q", 1, 1); // Init 1.
  B.drive(Q, B.xorv(Q, A));
  B.output("y", Q);
  Design D;
  ModuleId Id = D.addModule(B.finish());
  Design Flat;
  ModuleId FlatId = Flat.addModule(synth::lower(D, Id));
  std::string V = writeVerilog(Flat, FlatId);

  EXPECT_NE(V.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(V.find("<= "), std::string::npos);
  EXPECT_NE(V.find("= 1'b1;"), std::string::npos); // The init.
}

TEST(VerilogTest, HierarchicalExportInstantiates) {
  Design D;
  Builder Leaf("leafv");
  {
    V A = Leaf.input("a", 2);
    Leaf.output("y", Leaf.notv(A));
  }
  ModuleId LeafId = D.addModule(Leaf.finish());
  Builder Top("topv");
  {
    V X = Top.input("x", 2);
    auto O1 = Top.instantiate(D, LeafId, "u0", {{"a", X}});
    auto O2 = Top.instantiate(D, LeafId, "u1", {{"a", O1.at("y")}});
    Top.output("y", O2.at("y"));
  }
  ModuleId TopId = D.addModule(Top.finish());

  synth::HierLowered Hier = synth::lowerHierarchical(D, TopId);
  std::string V = writeVerilog(Hier.Design, Hier.Top);
  EXPECT_EQ(countOf(V, "module "), 2u); // Two definitions, shared leaf.
  EXPECT_EQ(countOf(V, "endmodule"), 2u);
  EXPECT_EQ(countOf(V, ".clk(clk)"), 2u); // Two instantiations.
}

TEST(VerilogTest, FifoExportsCompletely) {
  Design D;
  ModuleId Id = D.addModule(gen::makeFifo({8, 2, true}));
  Design Flat;
  ModuleId FlatId = Flat.addModule(synth::lower(D, Id));
  std::string V = writeVerilog(Flat, FlatId);
  const Module &M = Flat.module(FlatId);
  // Every port appears in the header.
  for (WireId In : M.Inputs)
    EXPECT_NE(V.find(M.wire(In).Name), std::string::npos)
        << M.wire(In).Name;
  // One assign per net plus one per constant wire.
  size_t Consts = 0;
  for (const Wire &W : M.Wires)
    Consts += W.Kind == WireKind::Const;
  EXPECT_EQ(countOf(V, "assign"), M.Nets.size() + Consts);
  // One nonblocking assignment per register.
  EXPECT_EQ(countOf(V, "<= "), M.Registers.size());
}

TEST(VerilogTest, LutCoversBecomeSumOfProducts) {
  Module M("lutty");
  WireId A = M.addInput("a", 1);
  WireId B = M.addInput("b", 1);
  WireId Y = M.addOutput("y", 1);
  M.addNet(Op::Lut, {A, B}, Y, 0, "101011"); // a~b | ~ab.
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  std::string V = writeVerilog(D, Id);
  EXPECT_NE(V.find("(a & ~b) | (~a & b)"), std::string::npos) << V;
}

TEST(VerilogTest, OffSetCoverIsWrittenAsItsComplement) {
  // "11 0" lists the OFF-set of a NAND. Written, read back and simulated,
  // it must still be one.
  auto Blif = parseBlif(
      ".model nand\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
      "nand.blif");
  ASSERT_TRUE(Blif.hasValue()) << Blif.describe();
  const std::string Text = writeVerilog(Blif->Design, Blif->Top);
  EXPECT_NE(Text.find("~((a & b))"), std::string::npos) << Text;

  auto File = parseVerilog(Text, "nand.v");
  ASSERT_TRUE(File.hasValue()) << File.describe() << '\n' << Text;
  auto S = sim::Simulator::create(File->Design.module(File->Top));
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("clk", 0);
  for (uint64_t A : {0, 1})
    for (uint64_t B : {0, 1}) {
      S->setInput("a", A);
      S->setInput("b", B);
      S->evaluate();
      EXPECT_EQ(S->value("y"), A & B ? 0u : 1u) << "a=" << A << " b=" << B;
    }
}
