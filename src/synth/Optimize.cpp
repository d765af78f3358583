//===- synth/Optimize.cpp - Netlist cleanup passes ------------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "synth/Optimize.h"

#include "support/CsrGraph.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <span>
#include <vector>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::synth;

namespace {

/// Finds (or creates) a 1-bit constant wire with the given value.
WireId constWire(Module &M, bool Value, std::map<bool, WireId> &Pool) {
  auto It = Pool.find(Value);
  if (It != Pool.end())
    return It->second;
  WireId W = M.addWire(Value ? "opt$const1" : "opt$const0", WireKind::Const,
                       1, Value ? 1 : 0);
  Pool[Value] = W;
  return W;
}

size_t foldConstants(Module &M, std::map<bool, WireId> &Pool) {
  std::vector<std::optional<bool>> Known(M.numWires());
  for (WireId W = 0; W != M.numWires(); ++W)
    if (M.wire(W).Kind == WireKind::Const)
      Known[W] = (M.wire(W).ConstValue & 1) != 0;

  size_t Folded = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (NetId Id = 0; Id != M.Nets.size(); ++Id) {
      const Net &N = M.Nets[Id];
      if (Known[N.Output])
        continue;
      const std::span<const WireId> Ins = M.netInputs(N);
      auto known = [&](size_t I) { return Known[Ins[I]]; };
      std::optional<bool> Result;
      switch (N.Operation) {
      case Op::Buf:
        Result = known(0);
        break;
      case Op::Not:
        if (known(0))
          Result = !*known(0);
        break;
      case Op::And:
        if ((known(0) && !*known(0)) || (known(1) && !*known(1)))
          Result = false;
        else if (known(0) && known(1))
          Result = true;
        break;
      case Op::Or:
        if ((known(0) && *known(0)) || (known(1) && *known(1)))
          Result = true;
        else if (known(0) && known(1))
          Result = false;
        break;
      case Op::Nand:
        if ((known(0) && !*known(0)) || (known(1) && !*known(1)))
          Result = true;
        else if (known(0) && known(1))
          Result = false;
        break;
      case Op::Nor:
        if ((known(0) && *known(0)) || (known(1) && *known(1)))
          Result = false;
        else if (known(0) && known(1))
          Result = true;
        break;
      case Op::Xor:
        if (known(0) && known(1))
          Result = *known(0) != *known(1);
        break;
      case Op::Xnor:
        if (known(0) && known(1))
          Result = *known(0) == *known(1);
        break;
      case Op::Mux:
        if (known(0))
          Result = *known(0) ? known(1) : known(2);
        else if (known(1) && known(2) && *known(1) == *known(2))
          Result = known(1);
        break;
      case Op::Lut:
        if (std::all_of(Ins.begin(), Ins.end(),
                        [&](WireId In) { return Known[In].has_value(); }))
          Result = M.netCover(N).eval([&](size_t I) { return *known(I); });
        break;
      default:
        break; // Multi-bit ops are not expected in flat netlists.
      }
      if (!Result)
        continue;
      Known[N.Output] = *Result;
      M.replaceNet(Id, Op::Buf, {constWire(M, *Result, Pool)});
      ++Folded;
      Changed = true;
    }
  }
  return Folded;
}

size_t breakLoops(Module &M, std::map<bool, WireId> &Pool) {
  size_t Broken = 0;
  while (true) {
    std::vector<CsrGraph::Edge> Edges;
    for (const Net &N : M.Nets)
      for (WireId In : M.netInputs(N))
        Edges.emplace_back(In, N.Output);
    for (const Memory &Mem : M.Memories)
      if (!Mem.SyncRead)
        Edges.emplace_back(Mem.RAddr, Mem.RData);
    std::optional<std::vector<uint32_t>> Cycle =
        CsrGraph(M.numWires(), Edges).findCycle();
    if (!Cycle)
      return Broken;
    // Ground the driver of the first wire on the cycle.
    WireId Victim = (*Cycle)[0];
    for (NetId Id = 0; Id != M.Nets.size(); ++Id) {
      if (M.Nets[Id].Output != Victim)
        continue;
      M.replaceNet(Id, Op::Buf, {constWire(M, false, Pool)});
      break;
    }
    ++Broken;
  }
}

size_t removeDeadGates(Module &M) {
  // Backward liveness from output ports and memory pins; register D pins
  // become live only when their Q is live.
  std::vector<bool> Live(M.numWires(), false);
  std::vector<WireId> Work;
  auto markLive = [&](WireId W) {
    if (!Live[W]) {
      Live[W] = true;
      Work.push_back(W);
    }
  };
  for (WireId W : M.Outputs)
    markLive(W);
  for (const Memory &Mem : M.Memories)
    for (WireId Pin : {Mem.RAddr, Mem.RData, Mem.WAddr, Mem.WData,
                       Mem.WEnable})
      markLive(Pin);

  std::map<WireId, const Net *> DriverNet;
  for (const Net &N : M.Nets)
    DriverNet[N.Output] = &N;
  std::map<WireId, const Register *> DriverReg;
  for (const Register &R : M.Registers)
    DriverReg[R.Q] = &R;

  while (!Work.empty()) {
    WireId W = Work.back();
    Work.pop_back();
    auto NetIt = DriverNet.find(W);
    if (NetIt != DriverNet.end())
      for (WireId In : M.netInputs(*NetIt->second))
        markLive(In);
    auto RegIt = DriverReg.find(W);
    if (RegIt != DriverReg.end())
      markLive(RegIt->second->D);
  }

  // Rebuild the module without dead nets, registers, and wires.
  Module Out(M.Name);
  std::vector<WireId> Remap(M.numWires(), InvalidId);
  for (WireId W = 0; W != M.numWires(); ++W) {
    const WireView Wr = M.wire(W);
    bool Keep = Live[W] || Wr.Kind == WireKind::Input;
    if (!Keep)
      continue;
    Remap[W] =
        Out.addWire(std::string(Wr.Name), Wr.Kind, Wr.Width, Wr.ConstValue);
    if (Wr.Kind == WireKind::Input)
      Out.Inputs.push_back(Remap[W]);
    if (Wr.Kind == WireKind::Output)
      Out.Outputs.push_back(Remap[W]);
  }
  size_t Removed = 0;
  std::vector<WireId> Ins;
  for (const Net &N : M.Nets) {
    if (Remap[N.Output] == InvalidId) {
      ++Removed;
      continue;
    }
    Ins.clear();
    for (WireId In : M.netInputs(N))
      Ins.push_back(Remap[In]);
    Out.addNet(N.Operation, Ins, Remap[N.Output], N.Aux,
               M.netCover(N).bytes());
  }
  for (const Register &R : M.Registers) {
    if (Remap[R.Q] == InvalidId)
      continue;
    Out.addRegister(Remap[R.D], Remap[R.Q], R.Init);
  }
  for (const Memory &Mem : M.Memories) {
    Memory NewMem = Mem;
    NewMem.RAddr = Remap[Mem.RAddr];
    NewMem.RData = Remap[Mem.RData];
    NewMem.WAddr = Remap[Mem.WAddr];
    NewMem.WData = Remap[Mem.WData];
    NewMem.WEnable = Remap[Mem.WEnable];
    Out.addMemory(std::move(NewMem));
  }
  M = std::move(Out);
  return Removed;
}

} // namespace

OptimizeStats synth::optimize(Module &Flat, const OptimizeOptions &Opts) {
  assert(Flat.Instances.empty() && "optimize needs a flat netlist");
  OptimizeStats Stats;
  std::map<bool, WireId> Pool;
  if (Opts.BreakLoops)
    Stats.LoopsBroken = breakLoops(Flat, Pool);
  if (Opts.FoldConstants)
    Stats.GatesFolded = foldConstants(Flat, Pool);
  if (Opts.RemoveDeadGates)
    Stats.GatesRemoved = removeDeadGates(Flat);
  return Stats;
}
