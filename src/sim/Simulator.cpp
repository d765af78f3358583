//===- sim/Simulator.cpp - Cycle-accurate netlist simulation --------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "support/CsrGraph.h"
#include "support/Trace.h"

#include <cassert>
#include <map>
#include <span>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::sim;

support::Expected<Simulator> Simulator::create(const Module &Flat) {
  trace::Span CreateSpan("sim.create", "sim");
  CreateSpan.note("module", Flat.Name)
      .note("wires", static_cast<uint64_t>(Flat.numWires()));
  if (!Flat.Instances.empty()) {
    return support::Diag(
        support::DiagCode::WS301_SIM_BUILD,
        "simulator requires an instance-free module (flatten first)");
  }

  Simulator S(Flat);
  S.Values.assign(Flat.numWires(), 0);

  // Levelize: topological order over the combinational wire graph.
  std::vector<CsrGraph::Edge> Edges;
  for (const Net &N : Flat.Nets)
    for (WireId In : Flat.netInputs(N))
      Edges.emplace_back(In, N.Output);
  for (const Memory &Mem : Flat.Memories)
    if (!Mem.SyncRead)
      Edges.emplace_back(Mem.RAddr, Mem.RData);
  std::optional<std::vector<uint32_t>> WireOrder =
      CsrGraph(Flat.numWires(), Edges).topoSort();
  if (!WireOrder) {
    return support::Diag(support::DiagCode::WS302_SIM_COMB_LOOP,
                         "module '" + Flat.Name +
                             "' has a combinational loop and cannot be "
                             "levelized");
  }

  // Order net evaluations by the topological position of their outputs;
  // asynchronous reads are folded into evaluate() via a sentinel NetId.
  std::map<WireId, NetId> NetByOutput;
  for (NetId N = 0; N != Flat.Nets.size(); ++N)
    NetByOutput[Flat.Nets[N].Output] = N;
  std::map<WireId, MemId> AsyncByOutput;
  for (MemId MI = 0; MI != Flat.Memories.size(); ++MI)
    if (!Flat.Memories[MI].SyncRead)
      AsyncByOutput[Flat.Memories[MI].RData] = MI;

  for (WireId W : *WireOrder) {
    auto NetIt = NetByOutput.find(W);
    if (NetIt != NetByOutput.end()) {
      S.Order.push_back(NetIt->second);
      continue;
    }
    auto MemIt = AsyncByOutput.find(W);
    if (MemIt != AsyncByOutput.end())
      S.Order.push_back(static_cast<NetId>(Flat.Nets.size() + MemIt->second));
  }

  // Initial state.
  for (WireId W = 0; W != Flat.numWires(); ++W)
    if (Flat.wire(W).Kind == WireKind::Const)
      S.Values[W] = Flat.wire(W).ConstValue & S.mask(Flat.wire(W).Width);
  for (const Register &R : Flat.Registers)
    S.Values[R.Q] = R.Init & S.mask(Flat.wire(R.Q).Width);
  S.MemWords.resize(Flat.Memories.size());
  for (MemId MI = 0; MI != Flat.Memories.size(); ++MI)
    S.MemWords[MI].assign(size_t(1) << Flat.Memories[MI].AddrWidth, 0);
  return S;
}

void Simulator::setInput(WireId In, uint64_t Value) {
  assert(M->wire(In).Kind == WireKind::Input && "not an input port");
  Values[In] = Value & mask(M->wire(In).Width);
}

void Simulator::setInput(const std::string &Name, uint64_t Value) {
  WireId W = M->findPort(Name);
  assert(W != InvalidId && "unknown input port name");
  setInput(W, Value);
}

uint64_t Simulator::value(const std::string &Name) const {
  WireId W = M->findWire(Name);
  assert(W != InvalidId && "unknown wire name");
  return value(W);
}

void Simulator::evalNet(const Net &N) {
  const std::span<const WireId> Ins = M->netInputs(N);
  auto in = [&](size_t I) { return Values[Ins[I]]; };
  const Wire &OutWire = M->Wires[N.Output];
  uint64_t Result = 0;
  switch (N.Operation) {
  case Op::And:
    Result = in(0) & in(1);
    break;
  case Op::Or:
    Result = in(0) | in(1);
    break;
  case Op::Xor:
    Result = in(0) ^ in(1);
    break;
  case Op::Nand:
    Result = ~(in(0) & in(1));
    break;
  case Op::Nor:
    Result = ~(in(0) | in(1));
    break;
  case Op::Xnor:
    Result = ~(in(0) ^ in(1));
    break;
  case Op::Not:
    Result = ~in(0);
    break;
  case Op::Buf:
    Result = in(0);
    break;
  case Op::Mux:
    Result = in(0) ? in(1) : in(2);
    break;
  case Op::Lut:
    Result = M->netCover(N).eval([&](size_t I) { return in(I) != 0; });
    break;
  case Op::Add:
    Result = in(0) + in(1);
    break;
  case Op::Sub:
    Result = in(0) - in(1);
    break;
  case Op::Eq:
    Result = in(0) == in(1);
    break;
  case Op::Lt:
    Result = in(0) < in(1);
    break;
  case Op::Concat: {
    for (size_t I = 0; I != Ins.size(); ++I) {
      uint16_t W = M->wire(Ins[I]).Width;
      Result = (W >= 64 ? 0 : (Result << W)) | in(I);
    }
    break;
  }
  case Op::Select:
    Result = in(0) >> N.Aux;
    break;
  case Op::AndR:
    Result = in(0) == mask(M->wire(Ins[0]).Width);
    break;
  case Op::OrR:
    Result = in(0) != 0;
    break;
  case Op::XorR:
    Result = __builtin_popcountll(in(0)) & 1;
    break;
  }
  Values[N.Output] = Result & mask(OutWire.Width);
}

void Simulator::evaluate() {
  static trace::Counter &NetEvals = trace::counter("sim.net_evals");
  NetEvals.add(Order.size());
  const size_t NumNets = M->Nets.size();
  for (NetId Item : Order) {
    if (Item < NumNets) {
      evalNet(M->Nets[Item]);
      continue;
    }
    const Memory &Mem = M->Memories[Item - NumNets];
    Values[Mem.RData] =
        MemWords[Item - NumNets][Values[Mem.RAddr]] & mask(Mem.DataWidth);
  }
}

void Simulator::step() {
  static trace::Counter &Steps = trace::counter("sim.steps");
  Steps.add();
  evaluate();

  // Capture next-state values before mutating anything so every latch
  // sees pre-edge values (read-before-write memory semantics).
  std::vector<std::pair<WireId, uint64_t>> NextQ;
  NextQ.reserve(M->Registers.size() + M->Memories.size());
  for (const Register &R : M->Registers)
    NextQ.emplace_back(R.Q, Values[R.D] & mask(M->wire(R.Q).Width));
  for (MemId MI = 0; MI != M->Memories.size(); ++MI) {
    const Memory &Mem = M->Memories[MI];
    if (Mem.SyncRead)
      NextQ.emplace_back(Mem.RData,
                         MemWords[MI][Values[Mem.RAddr]] &
                             mask(Mem.DataWidth));
  }
  for (MemId MI = 0; MI != M->Memories.size(); ++MI) {
    const Memory &Mem = M->Memories[MI];
    if (Values[Mem.WEnable] & 1)
      MemWords[MI][Values[Mem.WAddr]] = Values[Mem.WData] &
                                        mask(Mem.DataWidth);
  }
  for (const auto &[Q, V] : NextQ)
    Values[Q] = V;
  ++Cycles;
}

void Simulator::loadMemory(MemId Mem, const std::vector<uint64_t> &Words) {
  assert(Mem < MemWords.size() && "no such memory");
  assert(Words.size() <= MemWords[Mem].size() && "memory image too large");
  for (size_t I = 0; I != Words.size(); ++I)
    MemWords[Mem][I] = Words[I] & mask(M->Memories[Mem].DataWidth);
}

uint64_t Simulator::memoryWord(MemId Mem, uint64_t Addr) const {
  return MemWords[Mem][Addr];
}
