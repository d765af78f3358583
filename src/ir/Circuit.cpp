//===- ir/Circuit.cpp - Circuits of connected module instances ------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/Circuit.h"

#include "support/Trace.h"

#include <cassert>
#include <cstdint>

using namespace wiresort;
using namespace wiresort::ir;

InstId Circuit::addInstance(ModuleId Def, std::string InstName) {
  assert(Def < D->numModules() && "unknown module definition");
  Insts.push_back(Instance{Def, std::move(InstName)});
  return static_cast<InstId>(Insts.size() - 1);
}

WireId Circuit::portNamed(InstId Inst, const std::string &PortName) {
  const ModuleId Def = Insts[Inst].Def;
  if (Def >= Ports.size())
    Ports.resize(D->numModules());
  if (!Ports[Def])
    Ports[Def].emplace(D->module(Def));
  return Ports[Def]->find(D->module(Def), PortName);
}

void Circuit::connect(InstId From, const std::string &OutPort, InstId To,
                      const std::string &InPort) {
  assert(From < Insts.size() && To < Insts.size());
  // MegaScale generators resolve millions of port names through here,
  // one probe of the definition's port index each. The index holds no
  // views of the names, so seal() growing the Design's module vector
  // (another circuit's, or this one's) leaves it valid.
  const WireId Out = portNamed(From, OutPort);
  const WireId In = portNamed(To, InPort);
  assert(Out != InvalidId && "unknown output port name");
  assert(In != InvalidId && "unknown input port name");
  connectPorts(PortRef{From, Out}, PortRef{To, In});
}

void Circuit::connectPorts(PortRef From, PortRef To) {
  assert(From.Inst < Insts.size() && To.Inst < Insts.size());
  const Module &FromDef = defOf(From.Inst);
  const Module &ToDef = defOf(To.Inst);
  assert(FromDef.isOutput(From.Port) && "connection source must be output");
  assert(ToDef.isInput(To.Port) && "connection target must be input");
  assert(FromDef.wire(From.Port).Width == ToDef.wire(To.Port).Width &&
         "connection width mismatch");
  (void)FromDef;
  (void)ToDef;
  const bool Fresh = DrivenInputs.insert(portKey(To)).second;
  assert(Fresh && "input port already driven");
  (void)Fresh;
  Conns.push_back(Connection{From, To});
}

bool Circuit::isComplete() const {
  // One pass over the connections (output endpoints into a set; input
  // endpoints are already tracked by DrivenInputs), then one pass over
  // the ports — instead of rescanning Conns per port.
  std::unordered_set<uint64_t> DrivingOutputs;
  DrivingOutputs.reserve(Conns.size());
  for (const Connection &C : Conns)
    DrivingOutputs.insert(portKey(C.From));
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const Module &Def = defOf(Inst);
    for (WireId Port : Def.Inputs)
      if (!DrivenInputs.count(portKey(PortRef{Inst, Port})))
        return false;
    for (WireId Port : Def.Outputs)
      if (!DrivingOutputs.count(portKey(PortRef{Inst, Port})))
        return false;
  }
  return true;
}

std::string Circuit::portLabel(PortRef Ref) const {
  const std::string &Inst = Insts[Ref.Inst].Name;
  const WireName Port = defOf(Ref.Inst).wireName(Ref.Port);
  std::string Label;
  Label.reserve(Inst.size() + 1 + Port.size());
  Label += Inst;
  Label += '.';
  Label += Port;
  return Label;
}

ModuleId Circuit::seal() {
  trace::Span SealSpan("ir.seal", "ir");
  // Binding markers while wiring; no WireId gets near them.
  constexpr WireId Unbound = InvalidId;
  constexpr WireId Driving = InvalidId - 1;
  const PortNumbering Numbering(*this);
  Module Top(Name);

  // Every instance's Bindings in slot order, all unbound. Connection
  // endpoints then index their own instance's slot directly: no side
  // table keyed by port. Every wire seal makes is named "inst.port" from
  // two parts written once each: the instance's name, and the port's
  // name among its definition's, all of which are counted here with the
  // bytes the rendered names take (the connected inputs', which name no
  // wire, come off below).
  size_t NumInputs = 0, NumOutputs = 0, NameBytes = 0, LabelBytes = 0;
  std::vector<size_t> DefNameBytes(D->numModules(), SIZE_MAX);
  Top.Instances.reserve(Insts.size());
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const Module &Def = defOf(Inst);
    SubInstance &Sub = Top.Instances.emplace_back();
    Sub.Def = Insts[Inst].Def;
    Sub.Name = Insts[Inst].Name;
    Sub.Bindings.reserve(Def.numPorts());
    for (WireId Port : Def.Inputs)
      Sub.Bindings.emplace_back(Port, Unbound);
    for (WireId Port : Def.Outputs)
      Sub.Bindings.emplace_back(Port, Unbound);
    size_t &PortNameBytes = DefNameBytes[Sub.Def];
    if (PortNameBytes == SIZE_MAX) {
      PortNameBytes = 0;
      for (WireId Port : Def.Inputs)
        PortNameBytes += Def.wireName(Port).size();
      for (WireId Port : Def.Outputs)
        PortNameBytes += Def.wireName(Port).size();
      NameBytes += PortNameBytes;
    }
    NameBytes += Sub.Name.size();
    LabelBytes += PortNameBytes + Def.numPorts() * (Sub.Name.size() + 1);
    NumInputs += Def.Inputs.size();
    NumOutputs += Def.Outputs.size();
  }
  auto binding = [&](PortRef Ref) -> WireId & {
    return Top.Instances[Ref.Inst].Bindings[Numbering.slot(Ref)].second;
  };

  // Count the driving outputs first so every vector and the name buffer
  // are reserved exactly: one local wire each, and each input is driven
  // at most once.
  size_t NumDriving = 0;
  for (const Connection &C : Conns) {
    WireId &Out = binding(C.From);
    if (Out == Unbound) {
      Out = Driving;
      ++NumDriving;
    }
    LabelBytes -= Insts[C.To.Inst].Name.size() + 1 +
                  defOf(C.To.Inst).wireName(C.To.Port).size();
  }
  const size_t OpenInputs = NumInputs - Conns.size();
  const size_t OpenOutputs = NumOutputs - NumDriving;
  const size_t NumWires = NumDriving + OpenInputs + OpenOutputs;
  Top.reserveWires(NumWires, NameBytes);
  Top.Inputs.reserve(OpenInputs);
  Top.Outputs.reserve(OpenOutputs);
  SealSpan.note("wires", NumWires).note("label_bytes", LabelBytes);

  // The name parts: instance Inst's name is prefix Inst, and each
  // definition's port records (PortNumbering slot order) carry its port
  // names, written once for all of its instances.
  std::vector<std::vector<Wire>> Ports(D->numModules());
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    [[maybe_unused]] const uint32_t Prefix = Top.addPrefix(Insts[Inst].Name);
    assert(Prefix == Inst && "instance Inst's name is prefix Inst");
    std::vector<Wire> &DefPorts = Ports[Insts[Inst].Def];
    if (DefPorts.empty())
      DefPorts = Top.addPortNames(defOf(Inst));
  }

  // One local wire per driving output, named after it, in
  // first-connection order (fan-out shares the wire).
  for (const Connection &C : Conns) {
    WireId &Out = binding(C.From);
    if (Out == Driving)
      Out = Top.addPrefixedWire(
          C.From.Inst,
          Ports[Insts[C.From.Inst].Def][Numbering.slot(C.From)],
          WireKind::Basic);
    binding(C.To) = Out;
  }

  // Promote every port still unbound, in instance and slot order, into
  // the room reserved above.
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const std::vector<Wire> &DefPorts = Ports[Insts[Inst].Def];
    auto &Bindings = Top.Instances[Inst].Bindings;
    for (size_t Slot = 0; Slot != Bindings.size(); ++Slot) {
      WireId &Local = Bindings[Slot].second;
      if (Local != Unbound)
        continue;
      const WireKind Kind = DefPorts[Slot].Kind;
      Local = Top.addPrefixedWire(Inst, DefPorts[Slot], Kind);
      (Kind == WireKind::Input ? Top.Inputs : Top.Outputs).push_back(Local);
    }
  }

  return D->addModule(std::move(Top));
}

PortNumbering::PortNumbering(const Circuit &Circ) {
  const auto &Insts = Circ.instances();
  const Design &D = Circ.design();
  Base.resize(Insts.size() + 1);
  InstDef.resize(Insts.size());
  DefSlots.resize(D.numModules());
  uint32_t Next = 0;
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const ModuleId DefId = Insts[Inst].Def;
    const Module &Def = D.module(DefId);
    InstDef[Inst] = DefId;
    Base[Inst] = Next;
    Next += static_cast<uint32_t>(Def.numPorts());
    // Built once per definition and shared by all of its instances.
    std::vector<uint32_t> &Slots = DefSlots[DefId];
    if (Slots.empty() && Def.numPorts() != 0) {
      Slots.assign(Def.numWires(), InvalidId);
      uint32_t Slot = 0;
      for (WireId Port : Def.Inputs)
        Slots[Port] = Slot++;
      for (WireId Port : Def.Outputs)
        Slots[Port] = Slot++;
    }
  }
  Base.back() = Next;
}
