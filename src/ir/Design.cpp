//===- ir/Design.cpp - A library of module definitions --------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/Design.h"

#include "support/CsrGraph.h"

#include <cassert>

using namespace wiresort;
using namespace wiresort::ir;

ModuleId Design::addModule(Module M) {
  Modules.push_back(std::move(M));
  return static_cast<ModuleId>(Modules.size() - 1);
}

ModuleId Design::findModule(const std::string &Name) const {
  for (ModuleId Id = 0; Id != Modules.size(); ++Id)
    if (Modules[Id].Name == Name)
      return Id;
  return InvalidId;
}

ModuleIndex::ModuleIndex(const Design &D) {
  Ids.reserve(D.numModules());
  for (ModuleId Id = 0; Id != D.numModules(); ++Id)
    Ids.emplace(D.module(Id).Name, Id); // Keeps the first of a name.
}

ModuleId ModuleIndex::find(std::string_view Name) const {
  auto It = Ids.find(Name);
  return It == Ids.end() ? InvalidId : It->second;
}

std::optional<std::vector<ModuleId>> Design::topologicalModuleOrder() const {
  std::vector<CsrGraph::Edge> Edges;
  for (ModuleId Id = 0; Id != Modules.size(); ++Id)
    for (const SubInstance &Inst : Modules[Id].Instances)
      if (Inst.Def < Modules.size())
        Edges.emplace_back(Inst.Def, Id);
  return CsrGraph(Modules.size(), Edges).topoSort();
}

std::optional<std::string> Design::validate() const {
  for (const Module &M : Modules)
    if (auto Err = M.validate())
      return Err;

  if (!topologicalModuleOrder())
    return std::string("design: module instantiation is cyclic");

  for (const Module &M : Modules) {
    auto fail = [&](const std::string &Msg) {
      return std::optional<std::string>("module '" + M.Name + "': " + Msg);
    };

    // Count drivers again, now including instance outputs, and check that
    // each instance input is bound exactly once.
    std::vector<uint32_t> Drivers(M.Wires.size(), 0);
    for (const Net &N : M.Nets)
      ++Drivers[N.Output];
    for (const Register &R : M.Registers)
      ++Drivers[R.Q];
    for (const Memory &Mem : M.Memories)
      ++Drivers[Mem.RData];

    for (const SubInstance &Inst : M.Instances) {
      if (Inst.Def >= Modules.size())
        return fail("instance '" + Inst.Name + "' has no definition");
      const Module &Def = Modules[Inst.Def];
      std::vector<bool> InputBound(Def.Wires.size(), false);
      for (const auto &[DefPort, Local] : Inst.Bindings) {
        if (DefPort >= Def.Wires.size())
          return fail("instance '" + Inst.Name + "' binds unknown port");
        const Wire &PortWire = Def.Wires[DefPort];
        if (PortWire.Kind != WireKind::Input &&
            PortWire.Kind != WireKind::Output)
          return fail("instance '" + Inst.Name + "' binds non-port wire '" +
                      Def.wireName(DefPort) + "'");
        if (PortWire.Width != M.Wires[Local].Width)
          return fail("instance '" + Inst.Name + "' width mismatch on '" +
                      Def.wireName(DefPort) + "'");
        if (PortWire.Kind == WireKind::Output) {
          ++Drivers[Local];
        } else {
          if (InputBound[DefPort])
            return fail("instance '" + Inst.Name + "' binds input '" +
                        Def.wireName(DefPort) + "' twice");
          InputBound[DefPort] = true;
        }
      }
      for (WireId In : Def.Inputs)
        if (!InputBound[In])
          return fail("instance '" + Inst.Name + "' leaves input '" +
                      Def.wireName(In) + "' unbound");
    }

    for (WireId Id = 0; Id != M.Wires.size(); ++Id) {
      const Wire &W = M.Wires[Id];
      bool MayBeUndriven =
          W.Kind == WireKind::Input || W.Kind == WireKind::Const;
      if (MayBeUndriven)
        continue;
      if (Drivers[Id] == 0)
        return fail("wire '" + M.wireName(Id) + "' has no driver");
      if (Drivers[Id] > 1)
        return fail("wire '" + M.wireName(Id) + "' has multiple drivers");
    }
  }
  return std::nullopt;
}
