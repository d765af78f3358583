//===- synth/CycleDetect.cpp - Netlist-level cycle detection --------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "synth/CycleDetect.h"

#include "support/CsrGraph.h"

#include <cassert>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::synth;

NetlistCycleResult synth::detectCycles(const Module &Flat) {
  assert(Flat.Instances.empty() && "cycle detection needs a flat netlist");
  std::vector<CsrGraph::Edge> Edges;
  for (const Net &N : Flat.Nets)
    for (WireId In : Flat.netInputs(N))
      Edges.emplace_back(In, N.Output);
  for (const Memory &Mem : Flat.Memories)
    if (!Mem.SyncRead)
      Edges.emplace_back(Mem.RAddr, Mem.RData);
  const CsrGraph G(Flat.numWires(), Edges);

  NetlistCycleResult Result;
  Result.NumWires = Flat.numWires();
  Result.NumGates = Flat.Nets.size();
  if (std::optional<std::vector<uint32_t>> Cycle = G.findCycle()) {
    Result.HasLoop = true;
    support::Diag Diag(support::DiagCode::WS401_NETLIST_CYCLE,
                       "combinational cycle in netlist '" + Flat.Name +
                           "'");
    for (uint32_t Node : *Cycle)
      Diag.addHop(Flat.Name, Flat.wire(Node).Name);
    Result.Diags.add(std::move(Diag));
  }
  return Result;
}
