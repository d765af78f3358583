//===- analysis/Dot.cpp - Graphviz export ----------------------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dot.h"

#include <set>
#include <sstream>
#include <string_view>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

const char *sortColor(Sort S) {
  switch (S) {
  case Sort::ToSync:
    return "#8dd3c7"; // Teal: safe inputs.
  case Sort::FromSync:
    return "#b3de69"; // Green: safe outputs.
  case Sort::ToPort:
    return "#fdb462"; // Orange: inputs needing circuit checks.
  case Sort::FromPort:
    return "#fb8072"; // Salmon: outputs needing circuit checks.
  }
  return "white";
}

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

std::string wiresort::moduleDot(const Module &M,
                                const ModuleSummary &Summary) {
  std::ostringstream OS;
  OS << "digraph \"" << escape(M.Name) << "\" {\n"
     << "  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n";
  for (WireId In : M.Inputs)
    OS << "  \"in_" << In << "\" [label=\"" << escape(M.wire(In).Name)
       << "\\n" << sortAbbrev(Summary.sortOf(In))
       << "\" shape=cds style=filled fillcolor=\""
       << sortColor(Summary.sortOf(In)) << "\"];\n";
  for (WireId Out : M.Outputs)
    OS << "  \"out_" << Out << "\" [label=\"" << escape(M.wire(Out).Name)
       << "\\n" << sortAbbrev(Summary.sortOf(Out))
       << "\" shape=cds style=filled fillcolor=\""
       << sortColor(Summary.sortOf(Out)) << "\"];\n";
  // State as one box, with all sync ports attached to it; port-to-port
  // combinational dependencies as direct edges.
  OS << "  state [label=\"state\\n(" << M.Registers.size()
     << " regs, " << M.Memories.size()
     << " mems)\" shape=box3d style=filled fillcolor=\"#d9d9d9\"];\n";
  for (WireId In : M.Inputs) {
    if (Summary.sortOf(In) == Sort::ToSync)
      OS << "  \"in_" << In << "\" -> state;\n";
    else
      for (WireId Out : Summary.outputPortSet(In))
        OS << "  \"in_" << In << "\" -> \"out_" << Out << "\";\n";
  }
  for (WireId Out : M.Outputs)
    if (Summary.sortOf(Out) == Sort::FromSync)
      OS << "  state -> \"out_" << Out << "\";\n";
  OS << "}\n";
  return OS.str();
}

std::string
wiresort::circuitDot(const Circuit &Circ,
                     const std::map<ModuleId, ModuleSummary> &Summaries,
                     const std::vector<std::string> &LoopLabels) {
  std::set<std::string> OnLoop(LoopLabels.begin(), LoopLabels.end());
  std::ostringstream OS;
  OS << "digraph \"" << escape(Circ.name()) << "\" {\n"
     << "  rankdir=LR;\n  node [fontname=\"Helvetica\"];\n";

  auto nodeId = [](InstId Inst, WireId Port) {
    return "p" + std::to_string(Inst) + "_" + std::to_string(Port);
  };

  const auto &Insts = Circ.instances();
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const Module &Def = Circ.defOf(Inst);
    const ModuleSummary &Summary = Summaries.at(Insts[Inst].Def);
    OS << "  subgraph \"cluster_" << Inst << "\" {\n"
       << "    label=\"" << escape(Insts[Inst].Name) << " : "
       << escape(Def.Name) << "\";\n    style=rounded;\n";
    for (WireId Port : Def.Inputs) {
      bool Hot = OnLoop.count(Circ.portLabel({Inst, Port})) != 0;
      OS << "    \"" << nodeId(Inst, Port) << "\" [label=\""
         << escape(Def.wire(Port).Name) << "\" style=filled fillcolor=\""
         << (Hot ? "#e31a1c" : sortColor(Summary.sortOf(Port)))
         << "\"];\n";
    }
    for (WireId Port : Def.Outputs) {
      bool Hot = OnLoop.count(Circ.portLabel({Inst, Port})) != 0;
      OS << "    \"" << nodeId(Inst, Port) << "\" [label=\""
         << escape(Def.wire(Port).Name) << "\" style=filled fillcolor=\""
         << (Hot ? "#e31a1c" : sortColor(Summary.sortOf(Port)))
         << "\"];\n";
    }
    // Summary edges inside the cluster, dashed.
    for (const auto &[In, Outs] : Summary.OutputPortSets)
      for (WireId Out : Outs)
        OS << "    \"" << nodeId(Inst, In) << "\" -> \""
           << nodeId(Inst, Out) << "\" [style=dashed];\n";
    OS << "  }\n";
  }
  for (const Connection &C : Circ.connections())
    OS << "  \"" << nodeId(C.From.Inst, C.From.Port) << "\" -> \""
       << nodeId(C.To.Inst, C.To.Port) << "\";\n";
  OS << "}\n";
  return OS.str();
}
