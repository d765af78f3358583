//===- analysis/Reachability.cpp - Intra-module comb reachability ---------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Reachability.h"

#include "support/CsrGraph.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

CombGraph CombGraph::build(const Module &M,
                           const std::map<ModuleId, ModuleSummary>
                               &SubSummaries) {
  CombGraph CG;
  CG.M = &M;
  CG.SubSummaries = &SubSummaries;
  CG.Drivers.assign(M.numWires(), DriverRec{});

  for (WireId W = 0; W != M.numWires(); ++W) {
    switch (M.Wires[W].Kind) {
    case WireKind::Const:
      CG.Drivers[W].Kind = DriverKind::Const;
      break;
    case WireKind::Input:
      CG.Drivers[W].Kind = DriverKind::InputPort;
      break;
    default:
      break;
    }
  }

  for (NetId N = 0; N != M.Nets.size(); ++N)
    CG.Drivers[M.Nets[N].Output] = DriverRec{DriverKind::NetOut, N, InvalidId};

  for (const Register &R : M.Registers)
    CG.Drivers[R.Q].Kind = DriverKind::RegQ;

  for (const Memory &Mem : M.Memories)
    CG.Drivers[Mem.RData].Kind =
        Mem.SyncRead ? DriverKind::MemSync : DriverKind::MemAsync;

  // Instance edges are the only ones the module does not hold in an
  // array of its own; the graph packs the rest straight from the module.
  std::vector<CsrGraph::Edge> InstEdges;

  for (uint32_t InstIdx = 0; InstIdx != M.Instances.size(); ++InstIdx) {
    const SubInstance &Inst = M.Instances[InstIdx];
    auto SummaryIt = SubSummaries.find(Inst.Def);
    assert(SummaryIt != SubSummaries.end() &&
           "instance definition must be summarized first");
    const ModuleSummary &Sub = SummaryIt->second;

    // Map the definition's output ports to the local wires bound to them.
    // Definition port ids are dense, so a flat vector sized to the largest
    // bound port beats a map in this hot build loop.
    WireId MaxDefPort = 0;
    for (const auto &[DefPort, Local] : Inst.Bindings)
      MaxDefPort = std::max(MaxDefPort, DefPort);
    std::vector<WireId> OutLocal(MaxDefPort + 1, InvalidId);
    for (const auto &[DefPort, Local] : Inst.Bindings) {
      if (Sub.InputPortSets.count(DefPort)) {
        OutLocal[DefPort] = Local;
        CG.Drivers[Local] = DriverRec{DriverKind::InstOut, InstIdx, DefPort};
      }
    }
    for (const auto &[DefPort, Local] : Inst.Bindings) {
      auto It = Sub.OutputPortSets.find(DefPort);
      if (It == Sub.OutputPortSets.end())
        continue; // An output binding.
      CG.InstInputs.push_back({Local, InstIdx, DefPort});
      // An output the instance leaves unbound drives no local wire, so
      // nothing here can reach it.
      for (WireId DefOut : It->second)
        if (DefOut < OutLocal.size() && OutLocal[DefOut] != InvalidId)
          InstEdges.emplace_back(Local, OutLocal[DefOut]);
    }
  }
  std::sort(CG.InstInputs.begin(), CG.InstInputs.end(),
            [](const InstInputRec &A, const InstInputRec &B) {
              return A.Local < B.Local;
            });
  // Every row lists net edges (from the net-input array, net by net),
  // then asynchronous reads, then instance edges: the successor order
  // findCycle walks for WS101 witnesses.
  CG.G = CsrGraph(M.numWires(), [&](auto &&Emit) {
    for (const Net &Gate : M.Nets)
      for (WireId In : M.netInputs(Gate))
        Emit(In, Gate.Output);
    for (const Memory &Mem : M.Memories)
      if (!Mem.SyncRead)
        Emit(Mem.RAddr, Mem.RData);
    for (const auto &[From, To] : InstEdges)
      Emit(From, To);
  });
  return CG;
}

const CsrGraph &CombGraph::frozen() const {
  G.freeze();
  return G;
}

std::vector<WireId> CombGraph::reachableOutputPorts(WireId From) const {
  std::vector<bool> Seen = G.reachableFrom(From);
  std::vector<WireId> Result;
  for (WireId Out : M->Outputs)
    if (Seen[Out] && Out != From)
      Result.push_back(Out);
  std::sort(Result.begin(), Result.end());
  return Result;
}

std::map<WireId, std::vector<WireId>> CombGraph::allOutputPortSets() const {
  // A null deadline never cancels, so the optional is always engaged.
  return *allOutputPortSets(nullptr);
}

std::optional<std::map<WireId, std::vector<WireId>>>
CombGraph::allOutputPortSets(const support::Deadline *DL) const {
  std::map<WireId, std::vector<WireId>> Result;
  // Inputs reaching nothing still get their (empty, i.e. to-sync) set.
  for (WireId In : M->Inputs)
    Result.emplace(In, std::vector<WireId>{});
  if (M->Inputs.empty() || M->Outputs.empty())
    return Result;

  const std::vector<WireId> &Ins = M->Inputs;
  // One sweep-scratch arena per thread: SummaryEngine calls in once per
  // module, and reusing the arena across modules makes steady-state
  // inference allocation-free here on a thread that outlives one
  // analyze() call, such as its caller, which infers each round's
  // largest module; a pool's workers start empty in every call. Lane
  // width scales to the input count (up to 512 sources per sweep), so a
  // wide module pays ceil(K/512) sweeps instead of ceil(K/64).
  static thread_local ReachabilityKernel::Scratch SweepScratch;
  ReachabilityKernel Kernel(frozen(), SweepScratch,
                            ReachabilityKernel::laneWordsFor(Ins.size()));
  const uint32_t Lanes = Kernel.laneCount();
  const uint32_t LaneWords = Kernel.laneWords();
  // Decode each sweep's masks into flat per-lane vectors and move them
  // into the map once per input — a map lookup per (input, output) pair
  // would dominate small modules.
  std::vector<std::vector<WireId>> LaneSets;
  for (size_t Base = 0; Base < Ins.size(); Base += Lanes) {
    const uint32_t Count =
        static_cast<uint32_t>(std::min<size_t>(Lanes, Ins.size() - Base));
    if (!Kernel.sweep(Ins.data() + Base, Count, DL))
      return std::nullopt; // Deadline fired mid-module; abandon it.
    LaneSets.assign(Count, {});
    for (WireId Out : M->Outputs) {
      // Hoist the row pointer: one position lookup per output, not one
      // per (output, lane-word) pair.
      const uint64_t *Row = Kernel.row(Out);
      for (uint32_t Word = 0; Word != LaneWords; ++Word) {
        uint64_t Mask = Row[Word];
        const uint32_t LaneBase = Word * ReachabilityKernel::WordBits;
        while (Mask) {
          const uint32_t K =
              LaneBase + static_cast<uint32_t>(std::countr_zero(Mask));
          Mask &= Mask - 1;
          if (Ins[Base + K] != Out)
            LaneSets[K].push_back(Out);
        }
      }
    }
    for (uint32_t K = 0; K != Count; ++K) {
      std::sort(LaneSets[K].begin(), LaneSets[K].end());
      Result.find(Ins[Base + K])->second = std::move(LaneSets[K]);
    }
  }
  return Result;
}

std::optional<support::Diag> CombGraph::findCombLoop() const {
  if (frozen().isAcyclic())
    return std::nullopt;
  // A loop exists; pay for the cycle walk only on this error path.
  std::optional<std::vector<uint32_t>> Cycle = G.findCycle();
  assert(Cycle && "frozen snapshot says cyclic but no cycle found");
  support::Diag D(support::DiagCode::WS101_COMB_LOOP,
                  "combinational loop in module '" + M->Name + "'");
  for (uint32_t Node : *Cycle)
    D.addHop(M->Name, M->wire(Node).Name);
  return D;
}

bool CombGraph::feedsStateDirectly(WireId In) const {
  // Walk the Buf-closure of In: every consumer must be state, a
  // transparent Buf, or a submodule input port that is itself
  // to-sync-direct. State pins are no graph edges; every successor is a
  // net output, an asynchronous read or an instance output, told apart
  // by its driver (each wire has one: Design::validate).
  std::vector<WireId> Work{In};
  std::vector<bool> Seen(M->numWires(), false);
  Seen[In] = true;
  while (!Work.empty()) {
    WireId W = Work.back();
    Work.pop_back();
    if (M->Wires[W].Kind == WireKind::Output)
      return false; // Reaches a port: the wire is not to-sync at all.
    for (uint32_t Succ : G.successors(W)) {
      // Anything but a Buf net is logic in the way: another net, an
      // asynchronous read, or an instance input reaching an output.
      const DriverRec &D = Drivers[Succ];
      if (D.Kind != DriverKind::NetOut ||
          M->Nets[D.Index].Operation != Op::Buf)
        return false;
      if (!Seen[Succ]) {
        Seen[Succ] = true;
        Work.push_back(Succ);
      }
    }
    auto It = std::lower_bound(
        InstInputs.begin(), InstInputs.end(), W,
        [](const InstInputRec &R, WireId Local) { return R.Local < Local; });
    for (; It != InstInputs.end() && It->Local == W; ++It) {
      const ModuleSummary &Sub = SubSummaries->at(M->Instances[It->Inst].Def);
      if (Sub.sortOf(It->DefPort) != Sort::ToSync ||
          Sub.subSortOf(It->DefPort) != SubSort::Direct)
        return false;
    }
  }
  return true;
}

bool CombGraph::drivenByStateDirectly(WireId Out) const {
  // Walk backward through Buf chains to the originating driver.
  WireId W = Out;
  while (true) {
    const DriverRec &D = Drivers[W];
    switch (D.Kind) {
    case DriverKind::RegQ:
    case DriverKind::Const:
    case DriverKind::MemSync:
      return true;
    case DriverKind::InstOut: {
      const ModuleSummary &Sub =
          SubSummaries->at(M->Instances[D.Index].Def);
      return Sub.sortOf(D.DefPort) == Sort::FromSync &&
             Sub.subSortOf(D.DefPort) == SubSort::Direct;
    }
    case DriverKind::NetOut: {
      const Net &Gate = M->Nets[D.Index];
      if (Gate.Operation != Op::Buf)
        return false;
      W = M->netInputs(Gate)[0];
      continue;
    }
    case DriverKind::InputPort:
    case DriverKind::MemAsync:
    case DriverKind::None:
      return false;
    }
  }
}
