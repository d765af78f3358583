//===- parse/Verilog.cpp - Structural Verilog export ----------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "parse/Verilog.h"

#include <cassert>
#include <cctype>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string_view>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::parse;

namespace {

/// True when \p Name is a plain Verilog identifier needing no escape.
bool isPlainIdent(std::string_view Name) {
  if (Name.empty() ||
      !(std::isalpha(static_cast<unsigned char>(Name[0])) ||
        Name[0] == '_'))
    return false;
  for (char C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_' &&
        C != '$')
      return false;
  return true;
}

/// Renders \p Name as a (possibly escaped) identifier. Escaped
/// identifiers carry their terminating space per the standard.
std::string ident(std::string Name) {
  if (isPlainIdent(Name))
    return Name;
  return "\\" + Name + " ";
}

void writeLutExpr(std::ostringstream &OS, const Module &M, const Net &N) {
  // The sum of the rows, each a product of (possibly complemented)
  // inputs; an OFF-set cover is its complement (see ir::CoverView).
  const CoverView Cover = M.netCover(N);
  const std::span<const WireId> Ins = M.netInputs(N);
  if (Cover.numRows() == 0) {
    OS << "1'b0";
    return;
  }
  if (Cover.isOffSet())
    OS << "~(";
  for (uint32_t R = 0; R != Cover.numRows(); ++R) {
    const std::string_view Row = Cover.row(R);
    if (R != 0)
      OS << " | ";
    if (Ins.empty()) {
      OS << "1'b1";
      continue;
    }
    bool AnyFactor = false;
    OS << '(';
    for (size_t I = 0; I != Ins.size(); ++I) {
      if (Row[I] == '-')
        continue;
      if (AnyFactor)
        OS << " & ";
      AnyFactor = true;
      if (Row[I] == '0')
        OS << '~';
      OS << ident(M.wire(Ins[I]).Name);
    }
    if (!AnyFactor)
      OS << "1'b1";
    OS << ')';
  }
  if (Cover.isOffSet())
    OS << ')';
}

void writeModule(std::ostringstream &OS, const Design &D, const Module &M) {
  assert(M.Memories.empty() &&
         "writeVerilog requires lowered modules (no memories)");
  OS << "module " << ident(M.Name) << " (\n  input wire clk";
  for (WireId In : M.Inputs)
    OS << ",\n  input wire " << ident(M.wire(In).Name);
  for (WireId Out : M.Outputs)
    OS << ",\n  output wire " << ident(M.wire(Out).Name);
  OS << "\n);\n";

  // Register initial values live on the Register records.
  std::map<WireId, uint64_t> RegInit;
  for (const Register &R : M.Registers)
    RegInit[R.Q] = R.Init;

  // Internal wire declarations (ports are declared above).
  for (WireId W = 0; W != M.numWires(); ++W) {
    const WireView Wr = M.wire(W);
    assert(Wr.Width == 1 && "writeVerilog requires bit-level modules");
    switch (Wr.Kind) {
    case WireKind::Basic:
    case WireKind::Const:
      OS << "  wire " << ident(Wr.Name) << ";\n";
      break;
    case WireKind::Reg:
      OS << "  reg " << ident(Wr.Name) << " = 1'b"
         << (RegInit.count(W) ? RegInit[W] & 1 : 0) << ";\n";
      break;
    case WireKind::Input:
    case WireKind::Output:
      break;
    }
  }
  for (WireId W = 0; W != M.numWires(); ++W)
    if (M.wire(W).Kind == WireKind::Const)
      OS << "  assign " << ident(M.wire(W).Name) << " = 1'b"
         << (M.wire(W).ConstValue & 1) << ";\n";

  auto in = [&](const Net &N, size_t I) {
    return ident(M.wire(M.netInputs(N)[I]).Name);
  };
  for (const Net &N : M.Nets) {
    OS << "  assign " << ident(M.wire(N.Output).Name) << " = ";
    switch (N.Operation) {
    case Op::And:
      OS << in(N, 0) << "& " << in(N, 1);
      break;
    case Op::Or:
      OS << in(N, 0) << "| " << in(N, 1);
      break;
    case Op::Xor:
      OS << in(N, 0) << "^ " << in(N, 1);
      break;
    case Op::Nand:
      OS << "~(" << in(N, 0) << "& " << in(N, 1) << ")";
      break;
    case Op::Nor:
      OS << "~(" << in(N, 0) << "| " << in(N, 1) << ")";
      break;
    case Op::Xnor:
      OS << "~(" << in(N, 0) << "^ " << in(N, 1) << ")";
      break;
    case Op::Not:
      OS << "~" << in(N, 0);
      break;
    case Op::Buf:
      OS << in(N, 0);
      break;
    case Op::Mux:
      OS << in(N, 0) << "? " << in(N, 1) << ": " << in(N, 2);
      break;
    case Op::Lut:
      writeLutExpr(OS, M, N);
      break;
    default:
      assert(false && "writeVerilog requires primitive operations");
    }
    OS << ";\n";
  }

  if (!M.Registers.empty()) {
    OS << "  always @(posedge clk) begin\n";
    for (const Register &R : M.Registers)
      OS << "    " << ident(M.wire(R.Q).Name) << "<= "
         << ident(M.wire(R.D).Name) << ";\n";
    OS << "  end\n";
  }

  for (size_t I = 0; I != M.Instances.size(); ++I) {
    const SubInstance &Inst = M.Instances[I];
    const Module &Def = D.module(Inst.Def);
    OS << "  " << ident(Def.Name) << " "
       << ident("u$" + std::to_string(I)) << " (\n"
       << "    .clk(clk)";
    for (const auto &[DefPort, Local] : Inst.Bindings)
      OS << ",\n    ." << ident(Def.wire(DefPort).Name) << "("
         << ident(M.wire(Local).Name) << ")";
    OS << "\n  );\n";
  }
  OS << "endmodule\n\n";
}

} // namespace

std::string parse::writeVerilog(const Design &D, ModuleId Top) {
  // Top first, then every reachable definition once.
  std::vector<ModuleId> Order{Top};
  std::set<ModuleId> Seen{Top};
  for (size_t I = 0; I != Order.size(); ++I)
    for (const SubInstance &Inst : D.module(Order[I]).Instances)
      if (Seen.insert(Inst.Def).second)
        Order.push_back(Inst.Def);

  std::ostringstream OS;
  OS << "// Generated by wiresort (structural Verilog export).\n\n";
  for (ModuleId Id : Order)
    writeModule(OS, D, D.module(Id));
  return OS.str();
}
