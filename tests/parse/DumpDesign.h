//===- tests/parse/DumpDesign.h - Text dumps of parsed designs --*- C++ -*-===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reader tests pin what a parser decides by hashing a text dump of
/// it: a parsed design fact by fact, or a refused source's diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_TESTS_PARSE_DUMPDESIGN_H
#define WIRESORT_TESTS_PARSE_DUMPDESIGN_H

#include "ir/Design.h"
#include "support/Diag.h"

#include <span>
#include <sstream>
#include <string>

namespace wiresort::test {

/// Everything a parser decides, in a fixed order: per module its wires
/// in id order (name, kind, width, and a constant's value), nets (op,
/// inputs, output, a select's low bit, cover), registers, instances
/// (def, name, bindings), inputs and outputs.
inline std::string dumpDesign(const ir::Design &D) {
  using namespace ir;
  std::ostringstream OS;
  auto ids = [&](const char *Tag, std::span<const WireId> Ws) {
    OS << Tag;
    for (WireId W : Ws)
      OS << ' ' << W;
    OS << '\n';
  };
  for (ModuleId Id = 0; Id != D.numModules(); ++Id) {
    const Module &M = D.module(Id);
    OS << "module " << M.Name << '\n';
    for (WireId I = 0; I != M.numWires(); ++I) {
      const WireView W = M.wire(I);
      OS << "w " << W.Name << ' ' << wireKindName(W.Kind) << ' ' << W.Width;
      if (W.Kind == WireKind::Const)
        OS << " = " << W.ConstValue;
      OS << '\n';
    }
    for (const Net &N : M.Nets) {
      ids(opName(N.Operation), M.netInputs(N));
      OS << "-> " << N.Output;
      if (N.Operation == Op::Select)
        OS << " @" << N.Aux;
      const CoverView Cover = M.netCover(N);
      for (uint32_t R = 0; R != Cover.numRows(); ++R)
        OS << ' ' << Cover.row(R);
      OS << '\n';
    }
    for (const Register &R : M.Registers)
      OS << "r " << R.D << ' ' << R.Q << ' ' << R.Init << '\n';
    for (const SubInstance &I : M.Instances) {
      OS << "i " << I.Def << ' ' << I.Name;
      for (const auto &[Port, Local] : I.Bindings)
        OS << ' ' << Port << '=' << Local;
      OS << '\n';
    }
    ids("in", M.Inputs);
    ids("out", M.Outputs);
  }
  return OS.str();
}

/// Each diagnostic of \p Diags on its own line: code, message, and the
/// line and column it points at.
inline std::string dumpDiags(const support::DiagList &Diags) {
  std::ostringstream OS;
  for (const support::Diag &D : Diags) {
    OS << support::diagCodeName(D.code()) << ' ' << D.message();
    if (D.loc())
      OS << " @" << D.loc()->Line << ':' << D.loc()->Col;
    OS << '\n';
  }
  return OS.str();
}

} // namespace wiresort::test

#endif // WIRESORT_TESTS_PARSE_DUMPDESIGN_H
