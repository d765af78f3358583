//===- analysis/Depth.cpp - Combinational-depth analysis ------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Depth.h"

#include "analysis/SortInference.h"
#include "analysis/WellConnected.h"
#include "support/CsrGraph.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

constexpr int64_t NegInf = std::numeric_limits<int64_t>::min() / 4;

uint32_t log2Ceil(uint32_t N) {
  uint32_t L = 0;
  while ((1u << L) < N)
    ++L;
  return L;
}

/// Critical-path contribution of one net, in primitive-gate levels of
/// its lowered form.
uint32_t netDepth(const Module &M, const Net &N) {
  uint16_t W = M.Wires[N.Output].Width;
  uint16_t InW = N.NumInputs == 0 ? 1 : M.Wires[M.netInputs(N)[0]].Width;
  switch (N.Operation) {
  case Op::Buf:
  case Op::Concat:
  case Op::Select:
    return 0; // Pure wiring.
  case Op::And:
  case Op::Or:
  case Op::Xor:
  case Op::Nand:
  case Op::Nor:
  case Op::Xnor:
  case Op::Not:
  case Op::Mux:
  case Op::Lut:
    return 1;
  case Op::Add:
  case Op::Sub:
    return 2u * W + 1; // Ripple-carry chain.
  case Op::Eq:
    return 1 + log2Ceil(std::max<uint16_t>(InW, 1)); // Xnor + AND tree.
  case Op::Lt:
    return 2u * InW + 1; // Ripple comparator.
  case Op::AndR:
  case Op::OrR:
  case Op::XorR:
    return log2Ceil(std::max<uint16_t>(InW, 1));
  }
  return 1;
}

/// One weighted combinational edge.
struct Edge {
  WireId From;
  WireId To;
  uint32_t Weight;
};

/// The weighted intra-module graph plus bookkeeping for state pins.
struct DepthGraph {
  const Module *M = nullptr;
  /// Sorted by source, so Shape's edge i is Edges[i].
  std::vector<Edge> Edges;
  CsrGraph Shape;
  /// Wires that feed state directly (register D, memory pins).
  std::vector<WireId> StatePinFeeds;
  /// (local input wire, instance, def input port) triples.
  std::vector<std::tuple<WireId, uint32_t, WireId>> InstInputs;
  /// (local wire, instance, def output port) for instance outputs.
  std::vector<std::tuple<WireId, uint32_t, WireId>> InstOutputs;
  std::vector<WireId> Topo;
};

std::optional<DepthGraph>
buildDepthGraph(const Design &D, const Module &M,
                const std::map<ModuleId, ModuleSummary> &Summaries,
                const std::map<ModuleId, DepthSummary> &SubDepths) {
  (void)D;
  DepthGraph G;
  G.M = &M;
  auto addEdge = [&](WireId From, WireId To, uint32_t Weight) {
    G.Edges.push_back(Edge{From, To, Weight});
  };

  for (const Net &N : M.Nets) {
    uint32_t Weight = netDepth(M, N);
    for (WireId In : M.netInputs(N))
      addEdge(In, N.Output, Weight);
  }
  for (const Register &R : M.Registers)
    G.StatePinFeeds.push_back(R.D);
  for (const Memory &Mem : M.Memories) {
    if (Mem.SyncRead) {
      G.StatePinFeeds.push_back(Mem.RAddr);
    } else {
      // Asynchronous read: address decode is a mux tree of AddrWidth
      // levels.
      addEdge(Mem.RAddr, Mem.RData, Mem.AddrWidth);
    }
    G.StatePinFeeds.push_back(Mem.WAddr);
    G.StatePinFeeds.push_back(Mem.WData);
    G.StatePinFeeds.push_back(Mem.WEnable);
  }
  for (uint32_t InstIdx = 0; InstIdx != M.Instances.size(); ++InstIdx) {
    const SubInstance &Inst = M.Instances[InstIdx];
    const ModuleSummary &Sub = Summaries.at(Inst.Def);
    const DepthSummary &SubDepth = SubDepths.at(Inst.Def);
    std::map<WireId, WireId> OutLocal;
    for (const auto &[DefPort, Local] : Inst.Bindings)
      if (Sub.InputPortSets.count(DefPort)) {
        OutLocal[DefPort] = Local;
        G.InstOutputs.emplace_back(Local, InstIdx, DefPort);
      }
    for (const auto &[DefPort, Local] : Inst.Bindings) {
      auto SetIt = Sub.OutputPortSets.find(DefPort);
      if (SetIt == Sub.OutputPortSets.end())
        continue;
      G.InstInputs.emplace_back(Local, InstIdx, DefPort);
      // An output the instance leaves unbound drives no local wire.
      for (WireId DefOut : SetIt->second)
        if (auto OutIt = OutLocal.find(DefOut); OutIt != OutLocal.end())
          addEdge(Local, OutIt->second, SubDepth.pairDepth(DefPort, DefOut));
    }
  }

  // Pack the edges by source once; the stable sort keeps each source's
  // edges in insertion order, so Shape lists them in the same order.
  std::stable_sort(
      G.Edges.begin(), G.Edges.end(),
      [](const Edge &A, const Edge &B) { return A.From < B.From; });
  std::vector<CsrGraph::Edge> Pairs;
  Pairs.reserve(G.Edges.size());
  for (const Edge &E : G.Edges)
    Pairs.emplace_back(E.From, E.To);
  G.Shape = CsrGraph(M.numWires(), Pairs);
  std::optional<std::vector<uint32_t>> Topo = G.Shape.topoSort();
  if (!Topo)
    return std::nullopt;
  G.Topo = std::move(*Topo);
  return G;
}

/// Longest-path DP from the given seed distances; \returns per-wire
/// distances (NegInf where unreachable).
std::vector<int64_t> longestPaths(const DepthGraph &G,
                                  const std::map<WireId, int64_t> &Seeds) {
  std::vector<int64_t> Dist(G.M->numWires(), NegInf);
  for (const auto &[W, D] : Seeds)
    Dist[W] = std::max(Dist[W], D);
  // Relax in topological order; W's edges are a contiguous run.
  for (WireId W : G.Topo) {
    if (Dist[W] == NegInf)
      continue;
    for (uint32_t I = G.Shape.edgeBegin(W); I != G.Shape.edgeBegin(W + 1);
         ++I)
      Dist[G.Edges[I].To] =
          std::max(Dist[G.Edges[I].To], Dist[W] + G.Edges[I].Weight);
  }
  return Dist;
}

} // namespace

std::optional<DepthSummary>
analysis::inferDepths(const Design &D, ModuleId Id,
                      const std::map<ModuleId, ModuleSummary> &Summaries,
                      const std::map<ModuleId, DepthSummary> &SubDepths) {
  const Module &M = D.module(Id);
  const ModuleSummary &Summary = Summaries.at(Id);
  std::optional<DepthGraph> G =
      buildDepthGraph(D, M, Summaries, SubDepths);
  if (!G)
    return std::nullopt;

  DepthSummary Result;
  Result.Id = Id;

  // Helper: maximum depth landing on any state pin (direct feeds plus
  // to-sync instance inputs completed by the sub's to-state depth).
  auto maxIntoState = [&](const std::vector<int64_t> &Dist) {
    int64_t Best = NegInf;
    for (WireId W : G->StatePinFeeds)
      if (Dist[W] != NegInf)
        Best = std::max(Best, Dist[W]);
    for (const auto &[Local, InstIdx, DefPort] : G->InstInputs) {
      if (Dist[Local] == NegInf)
        continue;
      const SubInstance &Inst = M.Instances[InstIdx];
      const DepthSummary &Sub = SubDepths.at(Inst.Def);
      auto It = Sub.ToStateDepth.find(DefPort);
      if (It != Sub.ToStateDepth.end())
        Best = std::max(Best, Dist[Local] + int64_t(It->second));
    }
    return Best;
  };

  // Per-input DP: pair depths and to-state depths.
  for (WireId In : M.Inputs) {
    std::vector<int64_t> Dist = longestPaths(*G, {{In, 0}});
    for (WireId Out : Summary.outputPortSet(In)) {
      assert(Dist[Out] != NegInf && "sort summary and depth disagree");
      Result.PairDepth[{In, Out}] = static_cast<uint32_t>(Dist[Out]);
    }
    int64_t IntoState = maxIntoState(Dist);
    if (IntoState != NegInf)
      Result.ToStateDepth[In] = static_cast<uint32_t>(IntoState);
  }

  // State-source DP: from-state depths and the internal reg-to-reg path.
  std::map<WireId, int64_t> StateSeeds;
  for (const Register &R : M.Registers)
    StateSeeds[R.Q] = 0;
  for (const Memory &Mem : M.Memories)
    if (Mem.SyncRead)
      StateSeeds[Mem.RData] = 0;
  for (WireId W = 0; W != M.numWires(); ++W)
    if (M.Wires[W].Kind == WireKind::Const)
      StateSeeds[W] = 0;
  for (const auto &[Local, InstIdx, DefPort] : G->InstOutputs) {
    const SubInstance &Inst = M.Instances[InstIdx];
    const DepthSummary &Sub = SubDepths.at(Inst.Def);
    auto It = Sub.FromStateDepth.find(DefPort);
    if (It != Sub.FromStateDepth.end()) {
      auto &Seed = StateSeeds[Local];
      Seed = std::max(Seed, int64_t(It->second));
    }
  }
  std::vector<int64_t> FromState = longestPaths(*G, StateSeeds);
  for (WireId Out : M.Outputs)
    if (FromState[Out] != NegInf)
      Result.FromStateDepth[Out] = static_cast<uint32_t>(FromState[Out]);

  int64_t Internal = maxIntoState(FromState);
  if (Internal != NegInf)
    Result.InternalDepth = static_cast<uint32_t>(Internal);
  for (const SubInstance &Inst : M.Instances)
    Result.InternalDepth = std::max(
        Result.InternalDepth, SubDepths.at(Inst.Def).InternalDepth);
  return Result;
}

std::optional<std::map<ModuleId, DepthSummary>>
analysis::inferAllDepths(const Design &D,
                         const std::map<ModuleId, ModuleSummary>
                             &Summaries) {
  std::optional<std::vector<ModuleId>> Order =
      D.topologicalModuleOrder();
  assert(Order && "module instantiation must be acyclic");
  std::map<ModuleId, DepthSummary> Result;
  for (ModuleId Id : *Order) {
    std::optional<DepthSummary> Depth =
        inferDepths(D, Id, Summaries, Result);
    if (!Depth)
      return std::nullopt;
    Result[Id] = std::move(*Depth);
  }
  return Result;
}

uint32_t analysis::circuitCriticalDepth(
    const Circuit &Circ,
    const std::map<ModuleId, ModuleSummary> &Summaries,
    const std::map<ModuleId, DepthSummary> &Depths) {
  PortGraph PG = PortGraph::build(Circ, Summaries);
  std::optional<std::vector<uint32_t>> Topo = PG.csr().topoSort();
  assert(Topo && "circuit must be well-connected");

  const auto &Insts = Circ.instances();
  std::vector<int64_t> Dist(PG.csr().numNodes(), NegInf);
  int64_t Best = 0;

  // Seed every from-sync output with its from-state depth; instances'
  // internal paths compete directly.
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const DepthSummary &Depth = Depths.at(Insts[Inst].Def);
    Best = std::max(Best, int64_t(Depth.InternalDepth));
    const Module &Def = Circ.design().module(Insts[Inst].Def);
    for (WireId Out : Def.Outputs) {
      auto It = Depth.FromStateDepth.find(Out);
      if (It != Depth.FromStateDepth.end()) {
        uint32_t Node = PG.nodeOf(PortRef{Inst, Out});
        Dist[Node] = std::max(Dist[Node], int64_t(It->second));
      }
    }
  }

  // Relax in topological order. Edges: connections carry weight 0;
  // summary edges carry the pair depth. Paths complete into state via
  // each input's to-state depth.
  for (uint32_t Node : *Topo) {
    if (Dist[Node] == NegInf)
      continue;
    PortRef Ref = PG.refOf(Node);
    const Module &Def = Circ.design().module(Insts[Ref.Inst].Def);
    const DepthSummary &Depth = Depths.at(Insts[Ref.Inst].Def);
    if (Def.isInput(Ref.Port)) {
      auto It = Depth.ToStateDepth.find(Ref.Port);
      if (It != Depth.ToStateDepth.end())
        Best = std::max(Best, Dist[Node] + int64_t(It->second));
      const ModuleSummary &Summary = Summaries.at(Insts[Ref.Inst].Def);
      for (WireId Out : Summary.outputPortSet(Ref.Port)) {
        uint32_t Next = PG.nodeOf(PortRef{Ref.Inst, Out});
        Dist[Next] =
            std::max(Dist[Next],
                     Dist[Node] + int64_t(Depth.pairDepth(Ref.Port, Out)));
      }
    } else {
      // An output's out-edges in the port graph are exactly its
      // connections.
      for (uint32_t Next : PG.csr().successors(Node))
        Dist[Next] = std::max(Dist[Next], Dist[Node]);
    }
  }
  return static_cast<uint32_t>(std::max<int64_t>(Best, 0));
}
