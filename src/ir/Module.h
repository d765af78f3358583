//===- ir/Module.h - Hardware module definitions ----------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Module class: the paper's tuple (inputs, outputs, nets) extended
/// with the stateful elements the formalism abstracts (registers,
/// memories) and with submodule instances, which Section 3.1 argues the
/// analysis generalizes to ("a circuit ... can essentially define a larger
/// module composed of submodules").
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_IR_MODULE_H
#define WIRESORT_IR_MODULE_H

#include "ir/Net.h"
#include "ir/Wire.h"

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wiresort::ir {

/// A D flip-flop: Q is latched from D on each rising clock edge. All
/// registers share the single implicit design clock (paper Section 3.1
/// assumes a single clock driving all stateful elements).
struct Register {
  WireId D = InvalidId;
  /// The latched output; must be a wire of kind WireKind::Reg.
  WireId Q = InvalidId;
  uint64_t Init = 0;
};

/// A word-addressed memory with one read and one write port.
///
/// The write port is always synchronous. The read port is combinational
/// (\c SyncRead == false, giving a combinational RAddr -> RData
/// dependency) or synchronous (\c SyncRead == true, in which case RData
/// behaves like a register output and RAddr like a register input; this is
/// the class of memories Section 3.7 is concerned with).
struct Memory {
  std::string Name;
  bool SyncRead = false;
  uint16_t AddrWidth = 0;
  uint16_t DataWidth = 0;
  WireId RAddr = InvalidId;
  /// Read data; must be of kind WireKind::Reg when SyncRead, else Basic.
  WireId RData = InvalidId;
  WireId WAddr = InvalidId;
  WireId WData = InvalidId;
  WireId WEnable = InvalidId;
};

/// An instantiation of another module definition inside this one.
///
/// Bindings pair a port wire of the instantiated definition with a local
/// wire of the enclosing module. Input ports read the local wire; output
/// ports drive it.
struct SubInstance {
  ModuleId Def = InvalidId;
  std::string Name;
  /// (definition port WireId, local WireId) pairs.
  std::vector<std::pair<WireId, WireId>> Bindings;
};

/// A composition requirement a module places on one of its ports, used by
/// the synchronous-memory extension of Section 3.7.
struct PortContract {
  WireId Port = InvalidId;
  /// For an input port: whatever drives this port must be
  /// from-sync-direct (e.g. a synchronous memory's read address).
  bool RequireDriverFromSyncDirect = false;
  /// For an output port: whatever consumes this port must be
  /// to-sync-direct (e.g. a memory whose read data must feed a register).
  bool RequireSinkToSyncDirect = false;
};

/// A hardware module: ports, internal wires, gates, state, and submodule
/// instances.
///
/// Invariants (checked by \ref validate):
///  * every non-input, non-const wire has exactly one driver (a net
///    output, a register Q, a memory RData, or an instance output
///    binding);
///  * input and const wires have no driver;
///  * every net's input and cover ranges lie inside the module's arrays;
///  * widths agree with each operation's typing rules;
///  * instance bindings refer to ports of the instantiated definition
///    with matching widths (validated by Design::validate, which can see
///    other modules).
///
/// Wire names live in one byte buffer the module owns, back to back in
/// the order wires were added or renamed; each Wire record holds its
/// name's offset and size there. A module with N wires thus holds two
/// blocks, not N strings, and copies, moves and frees them as such.
/// \ref wireName and \ref wire hand out views of the buffer: a WireName
/// is valid until the module adds or renames a wire, or is moved or
/// destroyed.
///
/// A name is one part, or two that read "prefix.tail" (a Prefixed wire;
/// see Wire). Both parts are bytes of the same buffer: the tail is the
/// record's own range, and the prefix an entry of the module's private
/// prefix table. Circuit::seal names every wire it makes "instance.port"
/// this way: it writes each instance's name once as a prefix and each
/// definition's port names once as tails, so the sealed module of a
/// million-instance design keeps kilobytes of names, not one label per
/// port. A name depends on nothing but the buffer and the table, not on
/// \ref Instances, so a copy reads the same names whatever becomes of
/// its instances. Every other name, a renamed wire's included, is one
/// part.
///
/// Constants are kept out of the wire records: the module's constant
/// table holds every Const wire's value, in the order the wires were
/// added, and each Const wire's record holds its index there. Few wires
/// are constants, so no record carries an 8-byte value.
///
/// Nets are laid out the same way: every net's inputs back to back in one
/// WireId array (the module's fan-in lists, in net order), and every
/// Lut's cover rows back to back in one byte buffer, each Net record
/// holding its offset and count in both. A cover row is always
/// NumInputs + 1 bytes, so an offset and a row count address it and no
/// cover needs interning. \ref netInputs and \ref netCover hand out
/// views, valid until the module adds a net or a cover row or replaces a
/// net, or is moved or destroyed.
class Module {
public:
  std::string Name;

  /// One record per wire, indexed by WireId. Add wires through
  /// \ref addWire (or \ref addInput / \ref addOutput), which writes the
  /// name and, for a Const wire, the value; callers may change a record's
  /// Width, and its Kind to any kind but Const.
  std::vector<Wire> Wires;
  /// One record per net, indexed by NetId. Add nets through \ref addNet
  /// and rewrite them through \ref replaceNet, which keep each record's
  /// input and cover ranges in step with the module's arrays.
  std::vector<Net> Nets;
  std::vector<Register> Registers;
  std::vector<Memory> Memories;
  std::vector<SubInstance> Instances;
  std::vector<PortContract> Contracts;

  /// Interface ports, in declaration order.
  std::vector<WireId> Inputs;
  std::vector<WireId> Outputs;

  Module() = default;
  explicit Module(std::string Name) : Name(std::move(Name)) {}

  // --- Construction -----------------------------------------------------

  /// Creates a wire and returns its id. \p Name is copied into the name
  /// buffer and may view that very buffer (another wire's name).
  /// \p ConstValue is a Const wire's value, kept in the constant table;
  /// other kinds take 0. Throws std::length_error when the buffer would
  /// pass 4 GiB.
  WireId addWire(std::string_view Name, WireKind Kind, uint16_t Width = 1,
                 uint64_t ConstValue = 0);

  /// Creates a wire named by the concatenation of \p NameParts, written
  /// straight into the name buffer: a caller composing a name from
  /// pieces builds no string for it. Same rules as the one-name overload.
  WireId addWire(std::initializer_list<std::string_view> NameParts,
                 WireKind Kind, uint16_t Width = 1, uint64_t ConstValue = 0);

  /// Creates an input port of the given width.
  WireId addInput(std::string_view Name, uint16_t Width = 1);

  /// Creates an output port of the given width. The port must later be
  /// driven (typically via \ref addNet with Op::Buf).
  WireId addOutput(std::string_view Name, uint16_t Width = 1);

  /// Reserves room for \p Count more wires and \p NameBytes more bytes of
  /// names, so adding them allocates nothing. Throws std::length_error,
  /// before reserving, when those names would take the buffer past 4 GiB.
  void reserveWires(size_t Count, size_t NameBytes);

  /// Writes \p Name into the name buffer as a new entry of the prefix
  /// table and \returns its index there, the prefix of every wire
  /// \ref addPrefixedWire names with it. Circuit::seal writes each
  /// instance's name once this way.
  uint32_t addPrefix(std::string_view Name);

  /// Writes the name of every port of \p Def, rendered, into the name
  /// buffer, in PortNumbering slot order (inputs, then outputs), and
  /// \returns one record per port, in that order: Input or Output, the
  /// port's width, and its name there as a one-part name. Each is the
  /// tail of the "instance.port" names of that port; Circuit::seal writes
  /// each definition's port names once this way.
  std::vector<Wire> addPortNames(const Module &Def);

  /// Creates a wire of kind \p Kind (not Const) with the width of
  /// \p Port, a record \ref addPortNames returned, named "prefix.tail":
  /// prefix \p Prefix of the prefix table, tail \p Port's name. It
  /// writes no name bytes.
  WireId addPrefixedWire(uint32_t Prefix, const Wire &Port, WireKind Kind);

  /// Gives wire \p Id the one-part name \p Name (which may view the name
  /// buffer). The new name is appended; the old bytes stay in the buffer
  /// unused.
  void renameWire(WireId Id, std::string_view Name);

  /// Creates a net; \returns the id of the new net. \p Inputs and
  /// \p CoverRows (a Lut's rows back to back, each Inputs.size() + 1
  /// bytes; see CoverView) are copied into the module's arrays and may
  /// view those very arrays. Throws std::length_error when the net-input
  /// array would pass 2^32 entries or the cover buffer 4 GiB.
  NetId addNet(Op Operation, std::span<const WireId> Inputs, WireId Output,
               uint32_t Aux = 0, std::string_view CoverRows = {});
  NetId addNet(Op Operation, std::initializer_list<WireId> Inputs,
               WireId Output, uint32_t Aux = 0,
               std::string_view CoverRows = {}) {
    return addNet(Operation, std::span<const WireId>(Inputs), Output, Aux,
                  CoverRows);
  }

  /// Appends the row \p Plane followed by \p OutputBit to the cover of
  /// the last net added, which must be a Lut with Plane.size() inputs:
  /// BLIF import adds a `.names` net, then its rows as it reads them.
  void addCoverRow(std::string_view Plane, char OutputBit);

  /// Makes net \p Id compute \p Operation of \p Inputs, with no Aux and
  /// no cover; its output stays. The inputs overwrite the old ones in
  /// place when they fit and are appended otherwise, and the old cover
  /// bytes stay in the buffer unused. Constant folding and loop breaking
  /// rewrite a net this way.
  void replaceNet(NetId Id, Op Operation,
                  std::initializer_list<WireId> Inputs);

  /// Creates a register latching \p D into \p Q.
  RegId addRegister(WireId D, WireId Q, uint64_t Init = 0);

  /// Creates a memory; wires for its pins must already exist.
  MemId addMemory(Memory Mem);

  /// Creates a submodule instance.
  InstId addInstance(SubInstance Inst);

  // --- Queries ------------------------------------------------------------

  /// Wire \p Id's record fields, name and value.
  WireView wire(WireId Id) const {
    const Wire &W = Wires[Id];
    return WireView{wireName(Id), W.Kind, W.Width, constValue(W)};
  }

  /// The value of \p W, one of this module's Wires, from the constant
  /// table: 0 unless \p W is a Const wire.
  uint64_t constValue(const Wire &W) const {
    return W.Kind == WireKind::Const ? Consts[W.Index] : 0;
  }

  /// Wire \p Id's name, as views of the name buffer.
  WireName wireName(WireId Id) const {
    const Wire &W = Wires[Id];
    const std::string_view Tail(Names.data() + W.NameOffset, W.NameSize);
    if (!W.Prefixed)
      return WireName(Tail);
    const NamePart &Prefix = Prefixes[W.Index];
    return WireName(
        std::string_view(Names.data() + Prefix.Offset, Prefix.Size), Tail);
  }

  size_t numWires() const { return Wires.size(); }

  /// The inputs of \p N, one of this module's Nets, as a view of the
  /// net-input array.
  std::span<const WireId> netInputs(const Net &N) const {
    return {NetInputs.data() + N.InputOffset, N.NumInputs};
  }

  /// The cover rows of \p N, one of this module's Nets, as a view of the
  /// cover buffer (no rows unless the net is a Lut).
  CoverView netCover(const Net &N) const {
    const uint32_t RowBytes = N.NumInputs + 1;
    return CoverView(std::string_view(Covers.data() + N.CoverOffset,
                                      size_t(N.CoverRows) * RowBytes),
                     RowBytes);
  }

  bool isInput(WireId Id) const { return Wires[Id].Kind == WireKind::Input; }
  bool isOutput(WireId Id) const { return Wires[Id].Kind == WireKind::Output; }

  /// Looks up a port (input or output) by name, inputs first. A linear
  /// scan for one-off lookups; a caller resolving many names against one
  /// module builds a \ref PortIndex. \returns InvalidId when no such
  /// port exists.
  WireId findPort(std::string_view Name) const;

  /// Looks up any wire by name. A linear scan for one-off lookups (tests,
  /// the simulator), not for hot paths. \returns InvalidId when absent.
  WireId findWire(std::string_view Name) const;

  /// Total interface port count (paper Table 2's "Ports" column).
  size_t numPorts() const { return Inputs.size() + Outputs.size(); }

  /// Checks local structural invariants. \returns std::nullopt on success
  /// or a human-readable description of the first violation.
  std::optional<std::string> validate() const;

  /// \returns the expected result width of \p Operation applied to wires
  /// of the given widths, or std::nullopt if the operand widths are
  /// ill-typed. \p Aux and \p OutWidth are consulted for Op::Select.
  static std::optional<uint16_t>
  resultWidth(Op Operation, const std::vector<uint16_t> &Widths, uint32_t Aux,
              uint16_t OutWidth);

private:
  /// A byte range of the name buffer.
  struct NamePart {
    uint32_t Offset = 0;
    uint32_t Size = 0;
  };

  /// Appends the concatenation of \p Parts to the name buffer and \returns
  /// its range there.
  NamePart appendName(std::initializer_list<std::string_view> Parts);

  /// Every wire's name and every prefix, back to back (see the class
  /// comment).
  std::string Names;
  /// The prefixes of two-part names, by index.
  std::vector<NamePart> Prefixes;
  /// Every Const wire's value, in the order the wires were added.
  std::vector<uint64_t> Consts;
  /// Every net's inputs, back to back in the order they were written.
  std::vector<WireId> NetInputs;
  /// Every Lut's cover rows, back to back.
  std::string Covers;
};

/// A name index over one module's ports, for every caller that resolves
/// many names against one definition (`.subckt` formals, Verilog named
/// connections, circuit connections, summary sidecars and cache records).
/// It binds what \ref Module::findPort binds: inputs before outputs, the
/// first port with a name wins.
///
/// The index keeps only (name hash, WireId) pairs and compares each probe
/// against the module's own wire name, so it holds no strings or views:
/// it stays valid wherever the names move (the module moving, its name
/// buffer growing) and serves a copy of the module too, until the port
/// lists or port names change. Pass \ref find the module the index was
/// built from, or such a copy. It hashes and compares a name's rendered
/// bytes, so a two-part name "inst.port" is found by that string.
class PortIndex {
public:
  PortIndex() = default;
  explicit PortIndex(const Module &M);

  /// \returns the port of \p M named \p Name, or InvalidId.
  WireId find(const Module &M, std::string_view Name) const;

private:
  struct Slot {
    size_t Hash = 0;
    WireId Id = InvalidId; ///< InvalidId marks an empty slot.
  };

  /// The slot holding the port named \p Name, else the empty slot that
  /// ends its probe sequence.
  size_t probe(const Module &M, std::string_view Name, size_t Hash) const;

  /// Open addressing with linear probing; a power-of-two size at most
  /// half full, or empty for a module without ports.
  std::vector<Slot> Slots;
};

} // namespace wiresort::ir

#endif // WIRESORT_IR_MODULE_H
