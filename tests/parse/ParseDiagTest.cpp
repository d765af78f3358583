//===- tests/parse/ParseDiagTest.cpp - Parser diagnostic coverage ---------===//
//
// Part of the wiresort project. Every parser rejection must carry a
// structured diag with the right WSxxx code and a 1-based line:col into
// the named file — that is the promise docs/DIAGNOSTICS.md makes for
// the parse layer. One test per syntax-error class, for BLIF and for
// the Verilog subset.
//
//===----------------------------------------------------------------------===//

#include "parse/Blif.h"
#include "parse/VerilogReader.h"

#include <gtest/gtest.h>

using namespace wiresort;
using namespace wiresort::parse;
using namespace wiresort::support;

namespace {

/// Parses \p Text expecting rejection; returns the first error diag
/// after asserting it carries \p Code, mentions \p Needle, and points at
/// \p Line (in file "t.blif" / "t.v").
template <typename ParseFn>
Diag expectDiag(ParseFn Parse, const std::string &Text,
                const std::string &File, DiagCode Code,
                const std::string &Needle, size_t Line) {
  auto Result = Parse(Text, File);
  EXPECT_FALSE(Result.hasValue()) << "accepted:\n" << Text;
  if (Result.hasValue())
    return Diag(DiagCode::WS501_IO_ERROR, "accepted");
  const Diag &D = Result.diags().firstError();
  EXPECT_EQ(D.code(), Code) << D.describe();
  EXPECT_NE(D.message().find(Needle), std::string::npos) << D.describe();
  EXPECT_TRUE(D.loc().has_value()) << D.describe();
  if (D.loc()) {
    EXPECT_EQ(D.loc()->File, File);
    EXPECT_EQ(D.loc()->Line, Line) << D.describe();
  }
  return D;
}

Diag expectBlifDiag(const std::string &Text, DiagCode Code,
                    const std::string &Needle, size_t Line) {
  return expectDiag(
      [](const std::string &T, const std::string &F) {
        return parseBlif(T, F);
      },
      Text, "t.blif", Code, Needle, Line);
}

Diag expectVerilogDiag(const std::string &Text, DiagCode Code,
                       const std::string &Needle, size_t Line) {
  return expectDiag(
      [](const std::string &T, const std::string &F) {
        return parseVerilog(T, F);
      },
      Text, "t.v", Code, Needle, Line);
}

} // namespace

// --- BLIF -------------------------------------------------------------------

TEST(ParseDiagTest, BlifModelWithoutName) {
  Diag D = expectBlifDiag(".model\n", DiagCode::WS201_BLIF_SYNTAX,
                          ".model expects a name", 1);
  EXPECT_EQ(D.loc()->Col, 1u);
}

TEST(ParseDiagTest, BlifDirectiveBeforeModel) {
  expectBlifDiag(".inputs a b\n", DiagCode::WS201_BLIF_SYNTAX,
                 "directive before .model", 1);
}

TEST(ParseDiagTest, BlifDuplicateSignalPointsAtTheSecondToken) {
  Diag D = expectBlifDiag(".model m\n.inputs a a\n.end\n",
                          DiagCode::WS201_BLIF_SYNTAX,
                          "duplicate signal 'a'", 2);
  // Column of the *second* `a`, not of the directive.
  EXPECT_EQ(D.loc()->Col, 11u);
}

TEST(ParseDiagTest, BlifNamesWithoutOutput) {
  expectBlifDiag(".model m\n.names\n.end\n", DiagCode::WS201_BLIF_SYNTAX,
                 ".names expects at least an output", 2);
}

TEST(ParseDiagTest, BlifLatchMissingOperands) {
  expectBlifDiag(".model m\n.latch x\n.end\n",
                 DiagCode::WS201_BLIF_SYNTAX,
                 ".latch expects input and output", 2);
}

TEST(ParseDiagTest, BlifCoverRowOutsideNames) {
  expectBlifDiag(".model m\n1 1\n.end\n", DiagCode::WS201_BLIF_SYNTAX,
                 "cover row outside .names", 2);
}

TEST(ParseDiagTest, BlifCoverRowThirdFieldOfAConstant) {
  // Read as the constant 1 before: two fields fill a zero-input row.
  Diag D = expectBlifDiag(".model m\n.outputs y\n.names y\n1 1 1\n.end\n",
                          DiagCode::WS201_BLIF_SYNTAX,
                          "extra cover row field '1'", 4);
  EXPECT_EQ(D.loc()->Col, 5u);
}

TEST(ParseDiagTest, BlifCoverRowThirdFieldIsLocatedAtTheField) {
  Diag D = expectBlifDiag(".model m\n.inputs a\n.outputs y\n"
                          ".names a y\n1 1 junk\n.end\n",
                          DiagCode::WS201_BLIF_SYNTAX,
                          "extra cover row field 'junk'", 5);
  EXPECT_EQ(D.loc()->Col, 5u);
}

TEST(ParseDiagTest, BlifCoverMixingOutputsIsLocatedAtTheFirstOtherOutput) {
  // A cover lists its ON-set or its OFF-set, never both.
  Diag D = expectBlifDiag(".model m\n.inputs a b\n.outputs y\n"
                          ".names a b y\n11 1\n0- 1\n-0 0\n.end\n",
                          DiagCode::WS201_BLIF_SYNTAX,
                          "cover mixes output 0 and 1 rows", 7);
  EXPECT_EQ(D.loc()->Col, 4u);
}

TEST(ParseDiagTest, BlifUnsupportedDirective) {
  Diag D = expectBlifDiag(".model m\n  .exdc\n.end\n",
                          DiagCode::WS201_BLIF_SYNTAX,
                          "unsupported directive '.exdc'", 2);
  EXPECT_EQ(D.loc()->Col, 3u); // Past the indentation.
}

TEST(ParseDiagTest, BlifEmptyInputIsAStructureError) {
  auto Result = parseBlif("# only a comment\n", "t.blif");
  ASSERT_FALSE(Result.hasValue());
  const Diag &D = Result.diags().firstError();
  EXPECT_EQ(D.code(), DiagCode::WS202_BLIF_STRUCTURE);
  EXPECT_NE(D.message().find("no .model found"), std::string::npos);
}

// The refusals only the linked design shows point at the .model line of
// the model they charge, or at the .subckt line of the instance their
// message names.

TEST(ParseDiagTest, BlifUndrivenOutputIsLocatedAtItsModel) {
  Diag D = expectBlifDiag(".model top\n.inputs a\n.outputs y\n"
                          ".names a y\n1 1\n.end\n"
                          ".model m\n.inputs a\n.outputs y\n.end\n",
                          DiagCode::WS202_BLIF_STRUCTURE,
                          "module 'm': wire 'y' has no driver", 7);
  EXPECT_EQ(D.loc()->Col, 1u);
}

TEST(ParseDiagTest, BlifUnboundSubcktInputIsLocatedAtTheSubckt) {
  Diag D = expectBlifDiag(".model top\n.inputs a\n.outputs y\n"
                          "  .subckt inv y=y\n.end\n"
                          ".model inv\n.inputs a\n.outputs y\n"
                          ".names a y\n0 1\n.end\n",
                          DiagCode::WS202_BLIF_STRUCTURE,
                          "leaves input 'a' unbound", 4);
  EXPECT_EQ(D.loc()->Col, 3u);
}

TEST(ParseDiagTest, BlifCyclicInstantiationIsLocatedAtItsFirstModel) {
  // q instantiates p, which instantiates q; top is not on the cycle.
  Diag D = expectBlifDiag(".model top\n.inputs a\n.outputs y\n"
                          ".names a y\n1 1\n.end\n"
                          ".model p\n.inputs a\n.outputs y\n"
                          ".subckt q a=a y=y\n.end\n"
                          ".model q\n.inputs a\n.outputs y\n"
                          ".subckt p a=a y=y\n.end\n",
                          DiagCode::WS202_BLIF_STRUCTURE,
                          "module instantiation is cyclic", 7);
  EXPECT_EQ(D.loc()->Col, 1u);
}

// --- Verilog ----------------------------------------------------------------

TEST(ParseDiagTest, VerilogEmptyInput) {
  auto Result = parseVerilog("", "t.v");
  ASSERT_FALSE(Result.hasValue());
  const Diag &D = Result.diags().firstError();
  EXPECT_EQ(D.code(), DiagCode::WS212_VERILOG_SYNTAX);
  EXPECT_NE(D.message().find("no modules"), std::string::npos);
  ASSERT_TRUE(D.loc().has_value());
  EXPECT_EQ(D.loc()->File, "t.v");
}

TEST(ParseDiagTest, VerilogGarbageInsteadOfModule) {
  Diag D = expectVerilogDiag("garbage\n", DiagCode::WS212_VERILOG_SYNTAX,
                             "expected 'module'", 1);
  EXPECT_EQ(D.loc()->Col, 1u);
}

TEST(ParseDiagTest, VerilogDuplicateDeclaration) {
  Diag D = expectVerilogDiag("module m(input wire a, output wire y);\n"
                             "  wire a;\n"
                             "  assign y = a;\n"
                             "endmodule\n",
                             DiagCode::WS212_VERILOG_SYNTAX,
                             "duplicate declaration of 'a'", 2);
  EXPECT_EQ(D.loc()->Col, 8u); // The name, not the ';' after it.
}

TEST(ParseDiagTest, VerilogDuplicateHeaderDeclaration) {
  // The second 'a' continues the header's first declaration.
  Diag D = expectVerilogDiag("module m(input wire a, b, a, output wire y);\n"
                             "  assign y = a & b;\n"
                             "endmodule\n",
                             DiagCode::WS212_VERILOG_SYNTAX,
                             "duplicate declaration of 'a'", 1);
  EXPECT_EQ(D.loc()->Col, 27u);
}

TEST(ParseDiagTest, VerilogUndeclaredNet) {
  Diag D = expectVerilogDiag("module m(output wire y);\n"
                             "  assign y = ghost;\n"
                             "endmodule\n",
                             DiagCode::WS212_VERILOG_SYNTAX,
                             "undeclared net 'ghost'", 2);
  EXPECT_EQ(D.loc()->Col, 14u);
}

TEST(ParseDiagTest, VerilogWidthMismatch) {
  expectVerilogDiag("module m(input wire [7:0] a, input wire [3:0] b,\n"
                    "         output wire [7:0] y);\n"
                    "  assign y = a + b;\n"
                    "endmodule\n",
                    DiagCode::WS212_VERILOG_SYNTAX, "width mismatch", 3);
}

TEST(ParseDiagTest, VerilogNonZeroBasedRangeIsUnsupported) {
  expectVerilogDiag("module m(input wire [4:1] a, output wire y);\n"
                    "  assign y = a[1];\n"
                    "endmodule\n",
                    DiagCode::WS213_VERILOG_UNSUPPORTED,
                    "only [N:0] ranges", 1);
}

TEST(ParseDiagTest, VerilogUnknownModuleInstantiation) {
  expectVerilogDiag("module m(input wire a, output wire y);\n"
                    "  mystery u0(.x(a), .y(y));\n"
                    "endmodule\n",
                    DiagCode::WS212_VERILOG_SYNTAX,
                    "unknown module 'mystery'", 2);
}

TEST(ParseDiagTest, VerilogUnsizedLiteralPast64BitsIsRefused) {
  // 2^64 + 1 would wrap to 1.
  Diag D = expectVerilogDiag(
      "module m(input wire [63:0] a, output wire [63:0] y);\n"
      "  assign y = a + 18446744073709551617;\n"
      "endmodule\n",
      DiagCode::WS211_VERILOG_LEX, "literal does not fit in 64 bits", 2);
  EXPECT_EQ(D.loc()->Col, 18u); // The literal.
}

TEST(ParseDiagTest, VerilogSizedLiteralWiderThanItsSizeIsRefused) {
  Diag D = expectVerilogDiag("module m(input wire [3:0] a,\n"
                             "         output wire [3:0] y);\n"
                             "  assign y = a + 4'd17;\n"
                             "endmodule\n",
                             DiagCode::WS211_VERILOG_LEX,
                             "literal does not fit its width 4", 3);
  EXPECT_EQ(D.loc()->Col, 18u);
  // Past 64 bits, a sized literal is refused the same way.
  expectVerilogDiag("module m(input wire [63:0] a,\n"
                    "         output wire [63:0] y);\n"
                    "  assign y = a + 64'h1_0000_0000_0000_0000;\n"
                    "endmodule\n",
                    DiagCode::WS211_VERILOG_LEX,
                    "literal does not fit its width 64", 3);
}

TEST(ParseDiagTest, VerilogOnlyTheRootCauseIsReported) {
  // Rejections after the first are fallout; the parser records exactly
  // one diagnostic so tools never drown the user in cascades.
  auto Result = parseVerilog("module m(output wire y);\n"
                             "  assign y = ghost1;\n"
                             "  assign z = ghost2;\n"
                             "endmodule\n",
                             "t.v");
  ASSERT_FALSE(Result.hasValue());
  EXPECT_EQ(Result.diags().size(), 1u);
  EXPECT_NE(Result.diags()[0].message().find("ghost1"),
            std::string::npos);
}
