//===- ir/Design.h - A library of module definitions ------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Design owns a set of module definitions that may instantiate each
/// other (acyclically). The per-module analyses of the paper are computed
/// once per definition and shared by every instantiation, which is the
/// source of the reuse speedups in Table 3 ("each unique module type only
/// needs to be analyzed once").
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_IR_DESIGN_H
#define WIRESORT_IR_DESIGN_H

#include "ir/Module.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace wiresort::ir {

/// Why \ref Design::validate refused a design, and where: the module
/// that failed and, when the message names one, the instance, so a
/// reader can point at the source that declared them.
struct DesignError {
  static constexpr size_t NoInstance = SIZE_MAX;
  std::string Message;
  ModuleId Module = InvalidId;
  /// Index into the module's Instances, or NoInstance.
  size_t Instance = NoInstance;
};

/// An ordered collection of module definitions.
class Design {
public:
  /// Adds \p M and returns its id. Names should be unique; \ref findModule
  /// returns the first match.
  ModuleId addModule(Module M);

  Module &module(ModuleId Id) { return Modules[Id]; }
  const Module &module(ModuleId Id) const { return Modules[Id]; }
  size_t numModules() const { return Modules.size(); }

  /// Finds a module by name; InvalidId when absent. A linear scan for
  /// one-off lookups; a caller resolving many names builds a
  /// \ref ModuleIndex.
  ModuleId findModule(const std::string &Name) const;

  /// Validates every module plus the cross-module properties local
  /// validation cannot see: instance definitions exist, instantiation is
  /// acyclic, bindings name real ports with matching widths, every
  /// instance input port is bound, and every local wire has exactly one
  /// driver once instance outputs are counted. A cyclic instantiation
  /// is charged to the first module, by id, of the cycle found;
  /// \ref Module::validate's refusals name only their module.
  std::optional<DesignError> validate() const;

  /// \returns module ids in dependency order (instantiated definitions
  /// before their instantiators), or std::nullopt if instantiation is
  /// cyclic.
  std::optional<std::vector<ModuleId>> topologicalModuleOrder() const;

private:
  std::vector<Module> Modules;
};

/// Module ids by name, for a caller resolving many names against one
/// design (the summary decoders resolve one per record). The first
/// module with a name wins, as in \ref Design::findModule. It holds
/// views of the module names, so it is valid while the design's modules
/// keep their names and places.
class ModuleIndex {
public:
  explicit ModuleIndex(const Design &D);

  /// \returns the first module named \p Name, or InvalidId.
  ModuleId find(std::string_view Name) const;

private:
  std::unordered_map<std::string_view, ModuleId> Ids;
};

} // namespace wiresort::ir

#endif // WIRESORT_IR_DESIGN_H
