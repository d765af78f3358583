//===- ir/Design.cpp - A library of module definitions --------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/Design.h"

#include "support/CsrGraph.h"

#include <algorithm>
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

namespace {

/// One edge per instance, from its definition to the instantiating
/// module.
CsrGraph instantiationGraph(const std::vector<Module> &Modules) {
  std::vector<CsrGraph::Edge> Edges;
  for (ModuleId Id = 0; Id != Modules.size(); ++Id)
    for (const SubInstance &Inst : Modules[Id].Instances)
      if (Inst.Def < Modules.size())
        Edges.emplace_back(Inst.Def, Id);
  return CsrGraph(Modules.size(), Edges);
}

} // namespace

std::optional<std::vector<ModuleId>> Design::topologicalModuleOrder() const {
  return instantiationGraph(Modules).topoSort();
}

std::optional<DesignError> Design::validate() const {
  for (ModuleId Id = 0; Id != Modules.size(); ++Id)
    if (auto Err = Modules[Id].validate())
      return DesignError{std::move(*Err), Id};

  if (!topologicalModuleOrder()) {
    std::optional<std::vector<uint32_t>> Cycle =
        instantiationGraph(Modules).findCycle();
    assert(Cycle && "a design without a topological order has a cycle");
    return DesignError{"design: module instantiation is cyclic",
                       *std::min_element(Cycle->begin(), Cycle->end())};
  }

  for (ModuleId Id = 0; Id != Modules.size(); ++Id) {
    const Module &M = Modules[Id];
    auto fail = [&](const std::string &Msg,
                    size_t Instance = DesignError::NoInstance) {
      return std::optional<DesignError>(
          DesignError{"module '" + M.Name + "': " + Msg, Id, Instance});
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

    for (size_t I = 0; I != M.Instances.size(); ++I) {
      const SubInstance &Inst = M.Instances[I];
      auto failInst = [&](const std::string &Msg) {
        return fail("instance '" + Inst.Name + "' " + Msg, I);
      };
      if (Inst.Def >= Modules.size())
        return failInst("has no definition");
      const Module &Def = Modules[Inst.Def];
      std::vector<bool> InputBound(Def.Wires.size(), false);
      for (const auto &[DefPort, Local] : Inst.Bindings) {
        if (DefPort >= Def.Wires.size())
          return failInst("binds unknown port");
        const Wire &PortWire = Def.Wires[DefPort];
        if (PortWire.Kind != WireKind::Input &&
            PortWire.Kind != WireKind::Output)
          return failInst("binds non-port wire '" + Def.wireName(DefPort) +
                          "'");
        if (PortWire.Width != M.Wires[Local].Width)
          return failInst("width mismatch on '" + Def.wireName(DefPort) +
                          "'");
        if (PortWire.Kind == WireKind::Output) {
          ++Drivers[Local];
        } else {
          if (InputBound[DefPort])
            return failInst("binds input '" + Def.wireName(DefPort) +
                            "' twice");
          InputBound[DefPort] = true;
        }
      }
      for (WireId In : Def.Inputs)
        if (!InputBound[In])
          return failInst("leaves input '" + Def.wireName(In) + "' unbound");
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
