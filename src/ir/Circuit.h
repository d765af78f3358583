//===- ir/Circuit.h - Circuits of connected module instances ----*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's circuit domain: a set of module instances plus direct
/// output-to-input connections (Section 3.1). Per the paper's footnote 2,
/// extra-modular glue logic can always be wrapped into its own module, so
/// direct connections lose no generality; the Builder's instantiate()
/// support covers the glue-module idiom, and seal() turns a Circuit into
/// an ordinary (hierarchical) Module so that circuits compose into
/// "supermodules" ad infinitum, as Section 3.1 describes.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_IR_CIRCUIT_H
#define WIRESORT_IR_CIRCUIT_H

#include "ir/Design.h"

#include <cassert>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace wiresort::ir {

/// A reference to one port of one instance in a Circuit.
struct PortRef {
  InstId Inst = InvalidId;
  /// WireId of the port within the instance's defining module.
  WireId Port = InvalidId;

  bool operator==(const PortRef &O) const {
    return Inst == O.Inst && Port == O.Port;
  }
};

/// A directed connection from an instance output port to an instance
/// input port (wout ->C win in the paper's notation).
struct Connection {
  PortRef From;
  PortRef To;
};

/// A circuit under construction: instances of modules from a Design, plus
/// connections. Query helpers resolve ports by name; \ref seal lowers the
/// circuit to a hierarchical Module added to the Design.
class Circuit {
public:
  struct Instance {
    ModuleId Def = InvalidId;
    std::string Name;
  };

  Circuit(Design &D, std::string Name) : D(&D), Name(std::move(Name)) {}

  /// Adds an instance of \p Def named \p InstName.
  InstId addInstance(ModuleId Def, std::string InstName);

  /// Connects an output port to an input port, resolving names through
  /// one \ref PortIndex per defining module. Asserts if a name does not
  /// resolve, the direction is wrong, widths differ, or the input is
  /// already driven.
  void connect(InstId From, const std::string &OutPort, InstId To,
               const std::string &InPort);

  /// Port-id flavored connect for callers that already hold WireIds.
  void connectPorts(PortRef From, PortRef To);

  // --- Queries ---------------------------------------------------------------

  const Design &design() const { return *D; }
  const std::vector<Instance> &instances() const { return Insts; }
  const std::vector<Connection> &connections() const { return Conns; }
  const std::string &name() const { return Name; }

  const Module &defOf(InstId Inst) const {
    return D->module(Insts[Inst].Def);
  }

  /// True iff every port of every instance participates in a connection —
  /// the paper's "complete circuit" precondition for Property 3.
  bool isComplete() const;

  /// Human-readable "inst.port" label, for diagnostics.
  std::string portLabel(PortRef Ref) const;

  /// Lowers to a hierarchical Module in the Design: each connection
  /// becomes a shared local wire; unconnected instance inputs/outputs are
  /// promoted to ports of the sealed module (named "inst.port"), so
  /// incomplete circuits become open supermodules. Local wires come
  /// first, one per driving output in first-connection order, then the
  /// promoted ports in instance and slot order (see \ref PortNumbering).
  /// Every wire is named after an instance port, "inst.port", in the
  /// two-part form (see Module): the new module's name buffer holds each
  /// instance's name and each definition's port names once, and no
  /// label per wire. \returns the new module's id.
  ModuleId seal();

private:
  /// The port of \p Inst's definition named \p PortName, or InvalidId.
  WireId portNamed(InstId Inst, const std::string &PortName);

  static uint64_t portKey(PortRef Ref) {
    return (uint64_t(Ref.Inst) << 32) | Ref.Port;
  }

  Design *D;
  std::string Name;
  std::vector<Instance> Insts;
  std::vector<Connection> Conns;
  /// Port-name index by definition, each built on the first \ref connect
  /// that names one of its ports.
  std::vector<std::optional<PortIndex>> Ports;
  /// Input ports already driven by a connection — O(1) duplicate-driver
  /// rejection (the old per-connect scan of Conns made debug builds of
  /// million-connection circuits quadratic) and the fast half of
  /// \ref isComplete.
  std::unordered_set<uint64_t> DrivenInputs;
};

/// Dense numbering of every instance port of a circuit: port (inst,
/// port) is number base(inst) + slot(inst, port). Slots run over the
/// instance's definition, inputs then outputs in declaration order, so
/// one slot table serves every instance of a definition and an
/// instance's ports are contiguous. The port graph numbers its nodes
/// this way, Stage 3 keys the ports it keeps by it, and Circuit::seal
/// lays out each instance's Bindings in slot order.
class PortNumbering {
public:
  PortNumbering() = default;
  explicit PortNumbering(const Circuit &Circ);

  /// Ports over all instances; numbers run [0, size()).
  uint32_t size() const { return Base.back(); }

  uint32_t slot(PortRef Ref) const {
    const uint32_t Slot = DefSlots[InstDef[Ref.Inst]][Ref.Port];
    assert(Slot != InvalidId && "wire is not a port of the instance");
    return Slot;
  }

  uint32_t number(PortRef Ref) const { return Base[Ref.Inst] + slot(Ref); }

private:
  /// Base[inst] for every instance, then the total port count.
  std::vector<uint32_t> Base{0};
  std::vector<ModuleId> InstDef;
  /// Per definition, wire -> slot (InvalidId for non-port wires); empty
  /// for definitions the circuit does not instantiate.
  std::vector<std::vector<uint32_t>> DefSlots;
};

} // namespace wiresort::ir

#endif // WIRESORT_IR_CIRCUIT_H
