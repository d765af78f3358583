//===- synth/Flatten.cpp - RTL-level hierarchy inlining -------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "synth/Flatten.h"

#include <cassert>
#include <map>
#include <string>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::synth;

namespace {

class Inliner {
public:
  Inliner(const Design &D) : D(D) {}

  Module run(ModuleId Top) {
    const Module &M = D.module(Top);
    Out.Name = M.Name;
    std::map<WireId, WireId> InputMap;
    for (WireId In : M.Inputs)
      InputMap[In] =
          Out.addInput(std::string(M.wire(In).Name), M.wire(In).Width);
    emit(M, "", InputMap, /*TopLevel=*/true);
    return std::move(Out);
  }

private:
  /// Copies \p M's contents into Out with \p InputMap pre-binding its
  /// input ports; \returns the local wires carrying each output port.
  std::map<WireId, WireId> emit(const Module &M, const std::string &Prefix,
                                const std::map<WireId, WireId> &InputMap,
                                bool TopLevel) {
    std::map<WireId, WireId> Map = InputMap;
    std::map<WireId, WireId> OutPorts;
    for (WireId W = 0; W != M.numWires(); ++W) {
      if (Map.count(W))
        continue; // Already bound (input port).
      const WireView Wr = M.wire(W);
      WireKind Kind = Wr.Kind;
      if (!TopLevel && (Kind == WireKind::Input || Kind == WireKind::Output))
        Kind = WireKind::Basic;
      WireId NW = Out.addWire(Prefix + Wr.Name, Kind, Wr.Width,
                              Wr.ConstValue);
      if (TopLevel && Wr.Kind == WireKind::Output)
        Out.Outputs.push_back(NW);
      Map[W] = NW;
      if (Wr.Kind == WireKind::Output)
        OutPorts[W] = NW;
    }
    std::vector<WireId> Ins;
    for (const Net &N : M.Nets) {
      Ins.clear();
      for (WireId In : M.netInputs(N))
        Ins.push_back(Map.at(In));
      Out.addNet(N.Operation, Ins, Map.at(N.Output), N.Aux,
                 M.netCover(N).bytes());
    }
    for (const Register &R : M.Registers)
      Out.addRegister(Map.at(R.D), Map.at(R.Q), R.Init);
    for (const Memory &Mem : M.Memories) {
      Memory NewMem = Mem;
      NewMem.Name = Prefix + Mem.Name;
      NewMem.RAddr = Map.at(Mem.RAddr);
      NewMem.RData = Map.at(Mem.RData);
      NewMem.WAddr = Map.at(Mem.WAddr);
      NewMem.WData = Map.at(Mem.WData);
      NewMem.WEnable = Map.at(Mem.WEnable);
      Out.addMemory(std::move(NewMem));
    }
    for (const SubInstance &Inst : M.Instances) {
      const Module &Def = D.module(Inst.Def);
      std::map<WireId, WireId> SubInputs;
      std::map<WireId, WireId> OutBindings;
      for (const auto &[DefPort, Local] : Inst.Bindings) {
        if (Def.isInput(DefPort))
          SubInputs[DefPort] = Map.at(Local);
        else
          OutBindings[DefPort] = Map.at(Local);
      }
      std::map<WireId, WireId> SubOuts =
          emit(Def, Prefix + Inst.Name + ".", SubInputs, /*TopLevel=*/false);
      for (const auto &[DefPort, Local] : OutBindings)
        Out.addNet(Op::Buf, {SubOuts.at(DefPort)}, Local);
    }
    return OutPorts;
  }

  const Design &D;
  Module Out;
};

} // namespace

Module synth::inlineInstances(const Design &D, ModuleId Id) {
  Inliner I(D);
  Module Flat = I.run(Id);
  assert(!Flat.validate() && "inlined module must validate");
  return Flat;
}
