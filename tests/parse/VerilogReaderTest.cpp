//===- tests/parse/VerilogReaderTest.cpp - Verilog import tests -----------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "parse/VerilogReader.h"

#include "analysis/SortInference.h"
#include "gen/Fifo.h"
#include "ir/Builder.h"
#include "parse/DumpDesign.h"
#include "parse/Verilog.h"
#include "sim/Simulator.h"
#include "support/Wire.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;
using namespace wiresort::parse;

namespace {

VerilogFile parseOrDie(const std::string &Text) {
  auto File = parseVerilog(Text);
  EXPECT_TRUE(File.hasValue()) << File.describe();
  return File ? std::move(*File) : VerilogFile{};
}

/// Expects \p Text to be refused with one WS212 whose message contains
/// \p Needle, located at \p Line:\p Col of "t.v".
void expectRefusedAt(const std::string &Text, const std::string &Needle,
                     unsigned Line, unsigned Col) {
  auto File = parseVerilog(Text, "t.v");
  ASSERT_FALSE(File.hasValue()) << Text;
  ASSERT_EQ(File.diags().size(), 1u) << File.describe();
  const support::Diag &D = File.diags()[0];
  EXPECT_EQ(D.code(), support::DiagCode::WS212_VERILOG_SYNTAX);
  EXPECT_NE(D.message().find(Needle), std::string::npos) << D.message();
  ASSERT_TRUE(D.loc().has_value()) << D.message();
  EXPECT_EQ(D.loc()->File, "t.v");
  EXPECT_EQ(D.loc()->Line, Line) << D.message();
  EXPECT_EQ(D.loc()->Col, Col) << D.message();
}

std::vector<std::string> portNames(const Module &M,
                                   const std::vector<WireId> &Ports) {
  std::vector<std::string> Names;
  for (WireId W : Ports)
    Names.push_back(M.wire(W).Name);
  return Names;
}

/// A module with 4-bit inputs a, x and y whose output o, 4 bits wide or
/// 1 bit wide, is assigned \p Expr.
std::string assignSource(bool WideOut, const std::string &Expr) {
  return std::string("module m(input wire [3:0] a, input wire [3:0] x,\n"
                     "         input wire [3:0] y, output wire ") +
         (WideOut ? "[3:0] " : "") + "o);\n  assign o = " + Expr +
         ";\nendmodule\n";
}

/// What ParsedCorpusIsPinned feeds the reader: every ordered pair of
/// binary operators, the other expression forms, declarations,
/// registers and instances, a hierarchical netlist from the writer, and
/// every source the cases here and in ParseDiagTest refuse.
std::vector<std::string> readerCorpus() {
  std::vector<std::string> Corpus;
  const std::string Ops[] = {"||", "&&", "|",  "^",  "&",  "==", "!=", "<",
                             ">",  "<=", ">=", "<<", ">>", "+",  "-"};
  auto shiftOrElse = [](const std::string &Op, const std::string &Operand) {
    return Op == "<<" || Op == ">>" ? std::string("1") : Operand;
  };
  // a OP1 x OP2 y, with x an identifier or an unsized literal; a
  // shift's right operand is always 1.
  for (const std::string &Op1 : Ops)
    for (const std::string &Op2 : Ops)
      for (bool WideOut : {true, false})
        for (const char *Mid : {"x", "5"})
          Corpus.push_back(assignSource(
              WideOut, "a " + Op1 + ' ' + shiftOrElse(Op1, Mid) + ' ' + Op2 +
                           ' ' + shiftOrElse(Op2, "y")));

  const char *const Exprs[] = {
      // Ternaries.
      "a[0] ? x : y", "a ? x : y", "a == x ? 3 : y", "a[1] ? 1 : 2",
      "a[0] ? x : a[1] ? y : 7", "a[0] ? x[1:0] : y", "(a[0] ? x : y) + 1",
      "a[0] ? 20 : y", "a[0] ? x : 4'd2", "a ? : y",
      // Unary prefixes.
      "~a", "!a", "&a", "|a", "^a", "~a[2]", "!a[1:0]", "~~x", "!!x", "&~a",
      "~&a", "~5", "-a", "!5", "^5",
      // Concatenations.
      "{a[1:0], x[3:2]}", "{a, x}", "{2, a}", "{a[0], x[0], y[0], a[3]}",
      "{a, x, y, a, x, y, a, x, y, a, x, y, a, x, y, a, x}", "{a[0]}",
      "{a[1:0], 2'b01}", "{a[1:0] x}",
      // Selects.
      "a[2]", "a[3:1]", "a[4]", "a[1:2]", "a[x]", "a[3:x]", "x[0:0]",
      "a[2:0] + x[2:0]", "a[3:0",
      // Shifts.
      "a << 0", "a >> 0", "a << 4", "a >> 9", "a << x", "5 << 1",
      "a << 1 << 2", "(a + x) >> 2", "a >> 1 + 1",
      // Grouping, literals and associativity.
      "a + x - y", "a - (x - y)", "(a)", "((a & x) | y)", "4'b1010", "4'hF",
      "8'd3", "a + 16", "a + 15", "a - 1 - 1", "a == 1 == 1", "a < x < y",
      "(a", "a +", "", "ghost", "a & x | y ^ a", "a | x & y", "a || 0",
      "1 && a", "a != 0 != 0"};
  for (const char *Expr : Exprs)
    for (bool WideOut : {true, false})
      Corpus.push_back(assignSource(WideOut, Expr));

  const char *const Modules[] = {
      // Registers: a latched output reg keeps its port wire, an inner
      // reg is retyped, and an ANSI continuation inherits the reg flag.
      "module m(input wire clk, input wire [3:0] d,\n"
      "         output reg [3:0] q = 4'd3, r);\n"
      "  reg [3:0] s = 2;\n"
      "  always @(posedge clk) begin\n"
      "    q <= d + 1;\n"
      "    r <= s;\n"
      "    s <= s + d;\n"
      "  end\n"
      "endmodule\n",
      "module m(clk, d, q);\n"
      "  input clk;\n"
      "  input [3:0] d;\n"
      "  output [3:0] q;\n"
      "  reg [3:0] q = 4'd9;\n"
      "  always @(posedge clk) q <= d;\n"
      "endmodule\n",
      "module m(input wire clk, input wire a, output wire y);\n"
      "  reg r = a;\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module m(input wire clk, input wire a, output wire y);\n"
      "  wire w = 1;\n"
      "  reg q;\n"
      "  always @(posedge clk) q <= w & a;\n"
      "  assign y = q;\n"
      "endmodule\n",
      "module m(input wire clk, input wire a, output wire y);\n"
      "  always @(posedge clk) ghost <= a;\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module m(input wire clk, input wire a, output wire y);\n"
      "  reg q;\n"
      "  always @(posedge clock) q <= a;\n"
      "  assign y = q;\n"
      "endmodule\n",
      "module m(input wire clk, input wire a, output wire y);\n"
      "  reg q;\n"
      "  always @(posedge clk) begin q <= a;\n"
      "endmodule\n",
      "module m(input wire clk, input wire a, output wire y);\n"
      "  reg [1:0] q;\n"
      "  always @(posedge clk) q <= 7;\n"
      "  assign y = q[0];\n"
      "endmodule\n",
      "module m(input wire clk, output reg [1:0] q);\n"
      "  always @(posedge clk) q <= 3;\n"
      "  always @(posedge clk) q <= 2;\n"
      "endmodule\n",
      // Declarations and headers.
      "module m(input wire a, output wire y);\n"
      "  assign y[0] = a;\n"
      "endmodule\n",
      "module m(input wire a, output wire y);\n"
      "  assign y = a\n"
      "endmodule\n",
      "module m(input wire a, output wire y);\n"
      "  123;\n"
      "endmodule\n",
      "module m(input wire a, output wire y);\n"
      "  assign y = a;\n"
      "  assign y = ~a;\n"
      "endmodule\n",
      "module m(input wire a, output wire y);\n"
      "endmodule\n",
      "module m(input wire [3:1] a, output wire y);\n"
      "endmodule\n",
      "module m(input wire [64:0] a, output wire y);\n"
      "endmodule\n",
      "module m(input wire [63:0] a, output wire [63:0] y);\n"
      "  assign y = a + 18446744073709551615;\n"
      "endmodule\n",
      "module m(input wire [a:0] a, output wire y);\n"
      "endmodule\n",
      "module m(input wire a, b, output wire [1:0] y, z);\n"
      "  assign y = {a, b};\n"
      "  assign z = {b, a};\n"
      "endmodule\n",
      "module m(wire a);\n"
      "endmodule\n",
      "module m(input wire a b, output wire y);\n"
      "endmodule\n",
      "module m(input wire a, , output wire y);\n"
      "endmodule\n",
      "module m(input wire a, output wire y, );\n"
      "endmodule\n",
      "module m(input wire a, wire b, output wire y);\n"
      "endmodule\n",
      "module m(input a, input b, output y);\n"
      "  assign y = a | b;\n"
      "endmodule\n",
      "module m(output reg [1:0] q, input wire clk, d);\n"
      "  always @(posedge clk) q <= {d, d};\n"
      "endmodule\n",
      "module m(input wire [1:0] a, b, c, output wire [1:0] y);\n"
      "  assign y = a ^ b ^ c;\n"
      "endmodule\n",
      "module m(input wire clk, output wire [3:0] y);\n"
      "  reg [3:0] r1 = 1, r2 = 2;\n"
      "  always @(posedge clk) begin r1 <= r2; r2 <= r1; end\n"
      "  assign y = r1;\n"
      "endmodule\n",
      "module m();\n"
      "  input a;\n"
      "endmodule\n",
      "module m;\n"
      "  wire w;\n"
      "  assign w = 1;\n"
      "endmodule\n",
      "module m(a, b, y);\n"
      "  input a, b;\n"
      "  output y;\n"
      "  wire t;\n"
      "  assign t = a ^ b;\n"
      "  assign y = t;\n"
      "endmodule\n",
      "module m(a, y);\n"
      "  input a;\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module m(a, y);\n"
      "  input a;\n"
      "  wire y;\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module m(a, y);\n"
      "  input a;\n"
      "  output y;\n"
      "  input a;\n"
      "endmodule\n",
      "module m(a, y);\n"
      "  input a;\n"
      "  output y;\n"
      "  wire a;\n"
      "endmodule\n",
      "module m(a, 1);\n"
      "endmodule\n",
      "module m(a, y)\n"
      "endmodule\n",
      "module m(input wire a, output wire y);\n"
      "  assign y = a;\n",
      "module 1;\nendmodule\n",
      "module m(input wire a, output wire y);\n"
      "  initial begin end\n"
      "endmodule\n",
      // Instances: classic and ANSI definitions, forward references,
      // unbound outputs and inputs, and every binding refusal.
      "module top(input wire [3:0] x, output wire [3:0] y, output wire z);\n"
      "  wire [3:0] mid;\n"
      "  leaf u0 (.a(x), .y(mid));\n"
      "  leaf u1 (.y(y), .a(mid + 1));\n"
      "  pair u2 (.b(x[0]), .a(1), .o(z));\n"
      "  pair u3 (.a(x[1]), .b(x[2]));\n"
      "endmodule\n"
      "module leaf(y, a);\n"
      "  input [3:0] a;\n"
      "  output [3:0] y;\n"
      "  wire [3:0] n;\n"
      "  assign n = ~a;\n"
      "  assign y = n;\n"
      "endmodule\n"
      "module pair(input wire a, input wire b, output wire o, output wire p);\n"
      "  assign o = a & b;\n"
      "  assign p = a | b;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [3:0] y);\n"
      "  leaf u0 (.a(x), .n(y));\n"
      "endmodule\n"
      "module leaf(y, a);\n"
      "  input [3:0] a;\n"
      "  output [3:0] y;\n"
      "  wire [3:0] n;\n"
      "  assign n = ~a;\n"
      "  assign y = n;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [3:0] y);\n"
      "  leaf u0 (.a(x), .a(x), .y(y));\n"
      "endmodule\n"
      "module leaf(input wire [3:0] a, output wire [3:0] y);\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [3:0] y);\n"
      "  leaf u0 (.a(x), .y(ghost));\n"
      "endmodule\n"
      "module leaf(input wire [3:0] a, output wire [3:0] y);\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [1:0] y);\n"
      "  leaf u0 (.a(x), .y(y));\n"
      "endmodule\n"
      "module leaf(input wire [3:0] a, output wire [3:0] y);\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [3:0] y);\n"
      "  leaf u0 (.a(x[1:0]), .y(y));\n"
      "endmodule\n"
      "module leaf(input wire [3:0] a, output wire [3:0] y);\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [3:0] y);\n"
      "  leaf u0 (.a(x), .y(y & x));\n"
      "endmodule\n"
      "module leaf(input wire [3:0] a, output wire [3:0] y);\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [3:0] y);\n"
      "  leaf u0 (.y(y));\n"
      "endmodule\n"
      "module leaf(input wire [3:0] a, output wire [3:0] y);\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [3:0] y);\n"
      "  leaf u0 (a(x), .y(y));\n"
      "endmodule\n"
      "module leaf(input wire [3:0] a, output wire [3:0] y);\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module top(input wire [3:0] x, output wire [3:0] y);\n"
      "  top u0 (.x(x), .y(y));\n"
      "endmodule\n",
  };
  for (const char *Module : Modules)
    Corpus.push_back(Module);

  // The writer's netlist of a hierarchically lowered forwarding FIFO:
  // two instances of one definition, chained.
  {
    Design D;
    ModuleId Fifo = D.addModule(gen::makeFifo({4, 1, true}));
    Builder Top("fifo_pair");
    V Valid = Top.input("v_i", 1);
    V Data = Top.input("data_i", 4);
    V Yumi0 = Top.input("yumi0_i", 1);
    V Yumi1 = Top.input("yumi1_i", 1);
    auto First = Top.instantiate(
        D, Fifo, "u0", {{"v_i", Valid}, {"data_i", Data}, {"yumi_i", Yumi0}});
    auto Second =
        Top.instantiate(D, Fifo, "u1",
                        {{"v_i", First.at("v_o")},
                         {"data_i", First.at("data_o")},
                         {"yumi_i", Yumi1}});
    Top.output("v_o", Second.at("v_o"));
    Top.output("data_o", Second.at("data_o"));
    Top.output("ready_o", First.at("ready_o"));
    ModuleId TopId = D.addModule(Top.finish());
    synth::HierLowered Low = synth::lowerHierarchical(D, TopId);
    Corpus.push_back(writeVerilog(Low.Design, Low.Top));
  }

  // Every source the cases above and ParseDiagTest's Verilog cases
  // refuse, verbatim.
  const char *const Refused[] = {
      "module m(b, a);\n  input a;\n  input b;\n  output y;\n"
      "  assign y = a & b;\nendmodule\n",
      "module m(b, a, c);\n  input a;\n  input b;\n  wire y;\n"
      "  assign y = a & b;\nendmodule\n",
      "module m(a, a);\n  input a;\nendmodule\n",
      "module m(input wire a, output wire y);\n  input b;\n"
      "  assign y = a & b;\nendmodule\n",
      "module m;\n  input a;\nendmodule\n",
      "module sub(input wire clk, input reg q,\n"
      "           output wire y);\n"
      "  always @(posedge clk) q <= ~q;\n"
      "  assign y = q;\n"
      "endmodule\n",
      "module m(input wire clk, input wire a, output wire y);\n"
      "  wire w;\n"
      "  always @(posedge clk) w <= a;\n"
      "  assign y = w;\n"
      "endmodule\n",
      "module a(input wire x, output wire y);\n"
      "  assign y = x;\n"
      "endmodule\n"
      "module a(input wire x, output wire y);\n"
      "  assign y = ~x;\n"
      "endmodule\n",
      "",
      "module m(input wire a); assign b = a; endmodule",
      "module m(input wire a, output wire y);\n"
      "  assign y = a + 2'b11;\nendmodule",
      "module m(input wire a, output wire y);\n"
      "  initial y = 0;\nendmodule",
      "module m(input wire a, output wire y);\n"
      "  assign y = q;\nendmodule",
      "module top(input wire x, output wire y);\n"
      "  inv u0 (.a(x), .n(y));\nendmodule\n"
      "module inv(input wire a, output wire y);\n"
      "  wire n;\n  assign n = ~a;\n  assign y = n;\nendmodule",
      "garbage\n",
      "module m(input wire a, output wire y);\n"
      "  wire a;\n"
      "  assign y = a;\n"
      "endmodule\n",
      "module m(input wire a, b, a, output wire y);\n"
      "  assign y = a & b;\n"
      "endmodule\n",
      "module m(output wire y);\n"
      "  assign y = ghost;\n"
      "endmodule\n",
      "module m(input wire [7:0] a, input wire [3:0] b,\n"
      "         output wire [7:0] y);\n"
      "  assign y = a + b;\n"
      "endmodule\n",
      "module m(input wire [4:1] a, output wire y);\n"
      "  assign y = a[1];\n"
      "endmodule\n",
      "module m(input wire a, output wire y);\n"
      "  mystery u0(.x(a), .y(y));\n"
      "endmodule\n",
      "module m(output wire y);\n"
      "  assign y = ghost1;\n"
      "  assign z = ghost2;\n"
      "endmodule\n",
  };
  for (const char *Source : Refused)
    Corpus.push_back(Source);
  return Corpus;
}
} // namespace

TEST(VerilogReaderTest, AnsiPortsAndAssigns) {
  VerilogFile File = parseOrDie(R"(
// A little ALU slice.
module alu_slice(input wire [7:0] a, input wire [7:0] b,
                 input wire sel, output wire [7:0] y,
                 output wire eq);
  wire [7:0] sum;
  wire [7:0] diff;
  assign sum = a + b;
  assign diff = a - b;
  assign y = sel ? sum : diff;
  assign eq = a == b;
endmodule
)");
  const Module &M = File.Design.module(File.Top);
  EXPECT_EQ(M.Inputs.size(), 3u);
  EXPECT_EQ(M.Outputs.size(), 2u);

  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("a", 20);
  S->setInput("b", 22);
  S->setInput("sel", 1);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 42u);
  EXPECT_EQ(S->value("eq"), 0u);
  S->setInput("sel", 0);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 254u); // 20 - 22 mod 256.
}

TEST(VerilogReaderTest, ClassicPortsAndRegs) {
  VerilogFile File = parseOrDie(R"(
module counter(clk, en, count);
  input clk;
  input en;
  output [3:0] count;
  reg [3:0] count_q = 4'd0;
  always @(posedge clk) begin
    count_q <= en ? count_q + 4'd1 : count_q;
  end
  assign count = count_q;
endmodule
)");
  const Module &M = File.Design.module(File.Top);
  EXPECT_EQ(M.Registers.size(), 1u);

  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("en", 1);
  S->setInput("clk", 0); // The explicit clk port is ignored by sim.
  for (int I = 0; I != 5; ++I)
    S->step();
  S->evaluate();
  EXPECT_EQ(S->value("count"), 5u);
}

TEST(VerilogReaderTest, ClassicHeaderSetsThePortOrder) {
  VerilogFile File = parseOrDie("module m(y, b, a);\n"
                                "  input a;\n"
                                "  input b;\n"
                                "  output y;\n"
                                "  assign y = a & b;\n"
                                "endmodule\n");
  const Module &M = File.Design.module(File.Top);
  EXPECT_EQ(portNames(M, M.Inputs), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(portNames(M, M.Outputs), (std::vector<std::string>{"y"}));
}

TEST(VerilogReaderTest, ClassicHeaderAndDeclarationsMustAgree) {
  // Declared but not listed: refused at the declaration.
  expectRefusedAt("module m(b, a);\n"
                  "  input a;\n"
                  "  input b;\n"
                  "  output y;\n"
                  "  assign y = a & b;\n"
                  "endmodule\n",
                  "port 'y' is not in the port list of module 'm'", 4, 10);
  // Listed but never declared input or output: refused at the listing.
  expectRefusedAt("module m(b, a, c);\n"
                  "  input a;\n"
                  "  input b;\n"
                  "  wire y;\n"
                  "  assign y = a & b;\n"
                  "endmodule\n",
                  "port 'c' has no input or output declaration", 1, 16);
  expectRefusedAt("module m(a, a);\n"
                  "  input a;\n"
                  "endmodule\n",
                  "port 'a' listed twice", 1, 13);
  // An ANSI or empty header lists every port already.
  expectRefusedAt("module m(input wire a, output wire y);\n"
                  "  input b;\n"
                  "  assign y = a & b;\n"
                  "endmodule\n",
                  "port 'b' is not in the port list of module 'm'", 2, 9);
  expectRefusedAt("module m;\n"
                  "  input a;\n"
                  "endmodule\n",
                  "port 'a' is not in the port list of module 'm'", 2, 9);
}

TEST(VerilogReaderTest, NonblockingAssignmentIsRefusedAtItsTarget) {
  expectRefusedAt("module sub(input wire clk, input reg q,\n"
                  "           output wire y);\n"
                  "  always @(posedge clk) q <= ~q;\n"
                  "  assign y = q;\n"
                  "endmodule\n",
                  "nonblocking assignment to input 'q'", 3, 25);
  expectRefusedAt("module m(input wire clk, input wire a, output wire y);\n"
                  "  wire w;\n"
                  "  always @(posedge clk) w <= a;\n"
                  "  assign y = w;\n"
                  "endmodule\n",
                  "nonblocking assignment target 'w' is not a reg", 3, 25);
}

TEST(VerilogReaderTest, DuplicateModuleIsRefusedAtItsSecondName) {
  expectRefusedAt("module a(input wire x, output wire y);\n"
                  "  assign y = x;\n"
                  "endmodule\n"
                  "module a(input wire x, output wire y);\n"
                  "  assign y = ~x;\n"
                  "endmodule\n",
                  "duplicate module 'a'", 4, 8);
}

TEST(VerilogReaderTest, OperatorsAndSelects) {
  VerilogFile File = parseOrDie(R"(
module ops(input wire [7:0] a, input wire [7:0] b,
           output wire [7:0] o_logic, output wire o_red,
           output wire [7:0] o_shift, output wire o_rel,
           output wire [7:0] o_cat);
  assign o_logic = (a & b) | (a ^ ~b);
  assign o_red = &a | ^b | !a;
  assign o_shift = (a << 2) | (b >> 3);
  assign o_rel = (a < b) && (a != b) || (a >= b);
  assign o_cat = {a[3:0], b[7:4]};
endmodule
)");
  const Module &M = File.Design.module(File.Top);
  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  auto check = [&](uint64_t A, uint64_t B) {
    S->setInput("a", A);
    S->setInput("b", B);
    S->evaluate();
    uint64_t Logic = ((A & B) | (A ^ (~B & 0xFF))) & 0xFF;
    EXPECT_EQ(S->value("o_logic"), Logic);
    uint64_t Red = (A == 0xFF) | (__builtin_popcountll(B) & 1) |
                   (A == 0);
    EXPECT_EQ(S->value("o_red"), Red & 1);
    EXPECT_EQ(S->value("o_shift"), ((A << 2) | (B >> 3)) & 0xFF);
    uint64_t Rel = ((A < B) && (A != B)) || (A >= B);
    EXPECT_EQ(S->value("o_rel"), Rel);
    EXPECT_EQ(S->value("o_cat"), ((A & 0xF) << 4) | ((B >> 4) & 0xF));
  };
  check(0x0F, 0xF0);
  check(0xFF, 0x01);
  check(0x00, 0x00);
  check(0xAA, 0xAA);
}

TEST(VerilogReaderTest, HierarchyWithForwardReference) {
  VerilogFile File = parseOrDie(R"(
module top(input wire [3:0] x, output wire [3:0] y);
  wire [3:0] mid;
  inv u0 (.a(x), .y(mid));
  inv u1 (.a(mid), .y(y));
endmodule

module inv(input wire [3:0] a, output wire [3:0] y);
  assign y = ~a;
endmodule
)");
  EXPECT_EQ(File.Design.numModules(), 2u);
  const Module &Top = File.Design.module(File.Top);
  EXPECT_EQ(Top.Instances.size(), 2u);

  Module Flat = synth::lower(File.Design, File.Top);
  auto S = sim::Simulator::create(Flat);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  for (int Bit = 0; Bit != 4; ++Bit)
    S->setInput("x[" + std::to_string(Bit) + "]", (5 >> Bit) & 1);
  S->evaluate();
  uint64_t Y = 0;
  for (int Bit = 0; Bit != 4; ++Bit)
    Y |= S->value("y[" + std::to_string(Bit) + "]") << Bit;
  EXPECT_EQ(Y, 5u); // Double inversion.
}

TEST(VerilogReaderTest, ForwardingFifoSortsFromVerilogSource) {
  // The paper's Figure 2 module written directly in Verilog: the reader
  // feeds the analysis and the sorts come out right.
  VerilogFile File = parseOrDie(R"(
module fwd_fifo(input wire clk, input wire v_i,
                input wire [7:0] data_i, input wire yumi_i,
                output wire v_o, output wire [7:0] data_o,
                output wire ready_o);
  reg [2:0] count = 3'd0;
  reg [7:0] store = 8'd0;
  wire empty;
  wire enq;
  wire deq;
  assign empty = count == 3'd0;
  assign ready_o = count < 3'd4;
  assign v_o = (count != 3'd0) | (v_i & ready_o);
  assign data_o = (empty & v_i) ? data_i : store;
  assign enq = v_i & ready_o;
  assign deq = yumi_i & (count != 3'd0);
  always @(posedge clk) begin
    count <= count + {2'b00, enq} - {2'b00, deq};
    store <= enq ? data_i : store;
  end
endmodule
)");
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(File.Design, Out).hasError());
  const Module &M = File.Design.module(File.Top);
  const ModuleSummary &S = Out.at(File.Top);
  EXPECT_EQ(S.sortOf(M.findPort("v_i")), Sort::ToPort);
  EXPECT_EQ(S.sortOf(M.findPort("data_i")), Sort::ToPort);
  EXPECT_EQ(S.sortOf(M.findPort("yumi_i")), Sort::ToSync);
  EXPECT_EQ(S.sortOf(M.findPort("v_o")), Sort::FromPort);
  EXPECT_EQ(S.sortOf(M.findPort("data_o")), Sort::FromPort);
  EXPECT_EQ(S.sortOf(M.findPort("ready_o")), Sort::FromSync);
}

TEST(VerilogReaderTest, WriterOutputRoundTrips) {
  // Full circle: generate, lower, write Verilog, reparse, co-simulate.
  Design D;
  ModuleId Id = D.addModule(gen::makeFifo({4, 2, true}));
  Design Flat;
  ModuleId FlatId = Flat.addModule(synth::lower(D, Id));
  std::string Text = writeVerilog(Flat, FlatId);

  VerilogFile File = parseOrDie(Text);
  const Module &Reparsed = File.Design.module(File.Top);
  const Module &Original = Flat.module(FlatId);
  EXPECT_EQ(Reparsed.Registers.size(), Original.Registers.size());

  auto S1 = sim::Simulator::create(Original);
  ASSERT_TRUE(S1.hasValue()) << S1.describe();
  auto S2 = sim::Simulator::create(Reparsed);
  ASSERT_TRUE(S2.hasValue()) << S2.describe();
  for (int Cycle = 0; Cycle != 60; ++Cycle) {
    uint64_t Push = (Cycle % 3) != 0;
    uint64_t Pop = (Cycle % 2) != 0;
    for (auto *S : {&*S1, &*S2}) {
      S->setInput("v_i[0]", Push);
      S->setInput("yumi_i[0]", Pop);
      for (int Bit = 0; Bit != 4; ++Bit)
        S->setInput("data_i[" + std::to_string(Bit) + "]",
                    (Cycle >> Bit) & 1);
    }
    // The reparsed module gained an explicit clk input.
    S2->setInput("clk", 0);
    S1->step();
    S2->step();
    for (WireId Out : Original.Outputs)
      EXPECT_EQ(S1->value(Original.wire(Out).Name),
                S2->value(Original.wire(Out).Name))
          << Original.wire(Out).Name << " cycle " << Cycle;
  }
}

TEST(VerilogReaderTest, ErrorsAreSpecific) {
  auto expectError = [](const std::string &Text, const char *Needle) {
    auto File = parseVerilog(Text);
    ASSERT_FALSE(File.hasValue()) << Text;
    EXPECT_NE(File.describe().find(Needle), std::string::npos)
        << File.describe();
  };
  expectError("", "no modules");
  expectError("module m(input wire a); assign b = a; endmodule",
              "undeclared");
  expectError("module m(input wire a, output wire y);\n"
              "  assign y = a + 2'b11;\nendmodule",
              "width mismatch");
  expectError("module m(input wire a, output wire y);\n"
              "  initial y = 0;\nendmodule",
              "initial");
  expectError("module m(input wire a, output wire y);\n"
              "  assign y = q;\nendmodule",
              "undeclared");
  // `n` is a net of inv, not a port.
  expectError("module top(input wire x, output wire y);\n"
              "  inv u0 (.a(x), .n(y));\nendmodule\n"
              "module inv(input wire a, output wire y);\n"
              "  wire n;\n  assign n = ~a;\n  assign y = n;\nendmodule",
              "module 'inv' has no port 'n'");
}

TEST(VerilogReaderTest, WideInstanceBindsEveryPortInAnyOrder) {
  // A top instantiating a 4,000-port module once, named connections in
  // reverse order: each binds its own port.
  const size_t Half = 2000;
  std::string Top = "module top(", Wide = "module wide(", Inst = "  wide u (";
  for (size_t I = 0; I != Half; ++I) {
    Top += "input wire a" + std::to_string(I) + ", ";
    Wide += "input wire i" + std::to_string(I) + ", ";
  }
  for (size_t I = 0; I != Half; ++I) {
    const char *Sep = I + 1 == Half ? ");\n" : ", ";
    Top += "output wire b" + std::to_string(I) + Sep;
    Wide += "output wire o" + std::to_string(I) + Sep;
  }
  for (size_t I = Half; I-- != 0;)
    Inst += ".o" + std::to_string(I) + "(b" + std::to_string(I) + "), ";
  for (size_t I = Half; I-- != 0;)
    Inst += ".i" + std::to_string(I) + "(a" + std::to_string(I) + ")" +
            (I ? ", " : ");\n");
  for (size_t I = 0; I != Half; ++I)
    Wide += "  assign o" + std::to_string(I) + " = i" + std::to_string(I) +
            ";\n";
  VerilogFile File =
      parseOrDie(Top + Inst + "endmodule\n" + Wide + "endmodule\n");

  const Module &M = File.Design.module(File.Top);
  ASSERT_EQ(M.Instances.size(), 1u);
  const SubInstance &U = M.Instances[0];
  const Module &Def = File.Design.module(U.Def);
  ASSERT_EQ(U.Bindings.size(), 2 * Half);
  for (const auto &[Port, Local] : U.Bindings) {
    // iK binds aK and oK binds bK.
    const std::string &Formal = Def.wire(Port).Name;
    const std::string &Actual = M.wire(Local).Name;
    EXPECT_EQ(Actual, (Formal[0] == 'i' ? "a" : "b") + Formal.substr(1));
  }
}

TEST(VerilogReaderTest, CombinationalLoopInSourceIsCaught) {
  VerilogFile File = parseOrDie(R"(
module loopy(input wire a, output wire y);
  wire p;
  wire q;
  assign p = q & a;
  assign q = p;
  assign y = p;
endmodule
)");
  std::map<ModuleId, ModuleSummary> Out;
  wiresort::support::Status Loop = analyzeDesign(File.Design, Out);
  ASSERT_TRUE(Loop.hasError());
  EXPECT_NE(Loop.describe().find("loopy"), std::string::npos);
}

TEST(VerilogReaderTest, UnsizedLiteralsAdaptToContext) {
  VerilogFile File = parseOrDie(R"(
module lits(input wire [15:0] a, output wire [15:0] y,
            output wire z);
  assign y = a + 1;
  assign z = a == 1234;
endmodule
)");
  const Module &M = File.Design.module(File.Top);
  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("a", 1234);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 1235u);
  EXPECT_EQ(S->value("z"), 1u);
}

// The refusals only the elaborated design shows point at the name of
// the module they charge, or of the instance their message names.

TEST(VerilogReaderTest, UndrivenWireIsRefusedAtItsModule) {
  expectRefusedAt("module top(input wire a, output wire y);\n"
                  "  assign y = a;\n"
                  "endmodule\n"
                  "module m(input wire a, output wire y);\n"
                  "endmodule\n",
                  "module 'm': wire 'y' has no driver", 4, 8);
}

TEST(VerilogReaderTest, MultiplyDrivenWireIsRefusedAtItsModule) {
  expectRefusedAt("module top(input wire a, output wire y);\n"
                  "  assign y = a;\n"
                  "endmodule\n"
                  "module m(input wire a, output wire y);\n"
                  "  assign y = a;\n"
                  "  assign y = ~a;\n"
                  "endmodule\n",
                  "module 'm': wire 'y' has multiple drivers", 4, 8);
}

TEST(VerilogReaderTest, UnboundInstanceInputIsRefusedAtTheInstance) {
  expectRefusedAt("module top(input wire a, output wire y);\n"
                  "  inv u0 (.y(y));\n"
                  "endmodule\n"
                  "module inv(input wire a, output wire y);\n"
                  "  assign y = ~a;\n"
                  "endmodule\n",
                  "instance 'u0' leaves input 'a' unbound", 2, 7);
}

TEST(VerilogReaderTest, CyclicInstantiationIsRefusedAtItsFirstModule) {
  // q instantiates p, which instantiates q; top is not on the cycle.
  expectRefusedAt("module top(input wire a, output wire y);\n"
                  "  assign y = a;\n"
                  "endmodule\n"
                  "module p(input wire a, output wire y);\n"
                  "  q u0 (.a(a), .y(y));\n"
                  "endmodule\n"
                  "module q(input wire a, output wire y);\n"
                  "  p u1 (.a(a), .y(y));\n"
                  "endmodule\n",
                  "module instantiation is cyclic", 4, 8);
}

TEST(VerilogReaderTest, LiteralsAtTheirSizeLimitStillParse) {
  // The largest value a 4-bit and a 64-bit literal hold, and the
  // largest unsized one.
  VerilogFile File = parseOrDie(R"(
module lits(input wire [3:0] a, input wire [63:0] b,
            output wire [3:0] x, output wire [63:0] y, output wire z);
  assign x = a ^ 4'hF;
  assign y = b ^ 64'hFFFF_FFFF_FFFF_FFFF;
  assign z = b == 18446744073709551615;
endmodule
)");
  const Module &M = File.Design.module(File.Top);
  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("a", 5);
  S->setInput("b", 0);
  S->evaluate();
  EXPECT_EQ(S->value("x"), 10u);
  EXPECT_EQ(S->value("y"), UINT64_MAX);
  EXPECT_EQ(S->value("z"), 0u);
  S->setInput("b", UINT64_MAX);
  S->evaluate();
  EXPECT_EQ(S->value("y"), 0u);
  EXPECT_EQ(S->value("z"), 1u);
}

TEST(VerilogReaderTest, ParsedCorpusIsPinned) {
  // Everything the reader decides on each corpus source: a parsed
  // design fact by fact (wire ids, names and constants, nets, registers,
  // instance bindings, port order), or a refusal's diagnostics with
  // their codes and positions. Any change to either moves the digest.
  // It was computed before the reader kept one name table per module
  // and parsed binary operators in one precedence loop, and moved only
  // when the six refusals of the elaborated design (undriven and
  // multiply driven wires, an unbound instance input, cyclic
  // instantiation) moved from line 0, column 0 to their module's or
  // instance's name.
  const std::vector<std::string> Corpus = readerCorpus();
  ASSERT_EQ(Corpus.size(), 1117u);
  std::string Dump;
  size_t Parsed = 0;
  for (const std::string &Source : Corpus) {
    auto File = parseVerilog(Source, "c.v");
    if (File) {
      ++Parsed;
      Dump += "top " + std::to_string(File->Top) + '\n' +
              test::dumpDesign(File->Design);
    } else {
      Dump += "refused\n" + test::dumpDiags(File.diags());
    }
  }
  EXPECT_EQ(Parsed, 332u);
  EXPECT_EQ(support::wire::fnv1a(Dump), 0xb71a310b779ebb41ull);
}
