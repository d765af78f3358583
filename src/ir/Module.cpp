//===- ir/Module.cpp - Hardware module definitions ------------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <limits>
#include <ostream>
#include <stdexcept>

using namespace wiresort;
using namespace wiresort::ir;

const char *ir::wireKindName(WireKind Kind) {
  switch (Kind) {
  case WireKind::Const:
    return "const";
  case WireKind::Reg:
    return "reg";
  case WireKind::Input:
    return "in";
  case WireKind::Output:
    return "out";
  case WireKind::Basic:
    return "basic";
  }
  return "?";
}

bool ir::operator==(const WireName &L, const WireName &R) {
  if (!R.hasPrefix())
    return L == R.tail();
  if (!L.hasPrefix())
    return R == L.tail();
  if (L.prefix().size() == R.prefix().size())
    return L.prefix() == R.prefix() && L.tail() == R.tail();
  return L.size() == R.size() && L == std::string(R);
}

std::ostream &ir::operator<<(std::ostream &OS, const WireName &N) {
  if (N.hasPrefix())
    OS << N.prefix() << '.';
  return OS << N.tail();
}

const char *ir::opName(Op Operation) {
  switch (Operation) {
  case Op::And:
    return "and";
  case Op::Or:
    return "or";
  case Op::Xor:
    return "xor";
  case Op::Nand:
    return "nand";
  case Op::Nor:
    return "nor";
  case Op::Xnor:
    return "xnor";
  case Op::Not:
    return "not";
  case Op::Buf:
    return "buf";
  case Op::Mux:
    return "mux";
  case Op::Lut:
    return "lut";
  case Op::Add:
    return "add";
  case Op::Sub:
    return "sub";
  case Op::Eq:
    return "eq";
  case Op::Lt:
    return "lt";
  case Op::Concat:
    return "concat";
  case Op::Select:
    return "select";
  case Op::AndR:
    return "andr";
  case Op::OrR:
    return "orr";
  case Op::XorR:
    return "xorr";
  }
  return "?";
}

bool ir::isPrimitiveOp(Op Operation) {
  switch (Operation) {
  case Op::And:
  case Op::Or:
  case Op::Xor:
  case Op::Nand:
  case Op::Nor:
  case Op::Xnor:
  case Op::Not:
  case Op::Buf:
  case Op::Mux:
  case Op::Lut:
    return true;
  default:
    return false;
  }
}

namespace {

/// Appends the concatenation of \p Parts to \p Buf and \returns the
/// offset it starts at. A part may view \p Buf itself, so a buffer that
/// must grow is copied into a grown one, parts included, before the old
/// one is freed. Throws std::length_error, naming the module and \p What,
/// when \p Buf would pass 2^32 elements.
template <typename Buffer, typename Part>
uint32_t appendParts(Buffer &Buf, std::initializer_list<Part> Parts,
                     const std::string &ModuleName, const char *What) {
  size_t Size = 0;
  for (const Part &P : Parts)
    Size += P.size();
  const size_t Offset = Buf.size();
  if (Size > std::numeric_limits<uint32_t>::max() - Offset)
    throw std::length_error("module '" + ModuleName + "': " + What);
  if (Buf.capacity() - Offset < Size) {
    Buffer Grown;
    Grown.reserve(std::max(Offset + Size, 2 * Buf.capacity()));
    Grown.insert(Grown.end(), Buf.begin(), Buf.end());
    for (const Part &P : Parts)
      Grown.insert(Grown.end(), P.begin(), P.end());
    Buf.swap(Grown);
  } else {
    for (const Part &P : Parts)
      Buf.insert(Buf.end(), P.begin(), P.end());
  }
  return static_cast<uint32_t>(Offset);
}

} // namespace

Module::NamePart
Module::appendName(std::initializer_list<std::string_view> Parts) {
  const size_t Start = Names.size();
  const uint32_t Offset =
      appendParts(Names, Parts, Name, "wire names pass 4 GiB");
  return NamePart{Offset, static_cast<uint32_t>(Names.size() - Start)};
}

WireId Module::addWire(std::initializer_list<std::string_view> NameParts,
                       WireKind Kind, uint16_t Width, uint64_t ConstValue) {
  assert(Width >= 1 && Width <= 64 && "wire width must be in [1, 64]");
  assert((Kind == WireKind::Const || ConstValue == 0) &&
         "only a const wire has a value");
  const NamePart N = appendName(NameParts);
  Wire W{N.Offset, N.Size, Kind, false, Width, 0};
  if (Kind == WireKind::Const) {
    W.Index = static_cast<uint32_t>(Consts.size());
    Consts.push_back(ConstValue);
  }
  Wires.push_back(W);
  return static_cast<WireId>(Wires.size() - 1);
}

WireId Module::addWire(std::string_view Name, WireKind Kind, uint16_t Width,
                       uint64_t ConstValue) {
  return addWire({Name}, Kind, Width, ConstValue);
}

WireId Module::addInput(std::string_view Name, uint16_t Width) {
  WireId Id = addWire(Name, WireKind::Input, Width);
  Inputs.push_back(Id);
  return Id;
}

WireId Module::addOutput(std::string_view Name, uint16_t Width) {
  WireId Id = addWire(Name, WireKind::Output, Width);
  Outputs.push_back(Id);
  return Id;
}

void Module::reserveWires(size_t Count, size_t NameBytes) {
  if (NameBytes > std::numeric_limits<uint32_t>::max() - Names.size())
    throw std::length_error("module '" + Name + "': wire names pass 4 GiB");
  Wires.reserve(Wires.size() + Count);
  Names.reserve(Names.size() + NameBytes);
}

uint32_t Module::addPrefix(std::string_view Prefix) {
  Prefixes.push_back(appendName({Prefix}));
  return static_cast<uint32_t>(Prefixes.size() - 1);
}

std::vector<Wire> Module::addPortNames(const Module &Def) {
  std::vector<Wire> Ports;
  Ports.reserve(Def.numPorts());
  auto add = [&](WireId Port, WireKind Kind) {
    const WireName PortName = Def.wireName(Port);
    const NamePart N =
        PortName.hasPrefix()
            ? appendName({PortName.prefix(), ".", PortName.tail()})
            : appendName({PortName.tail()});
    Ports.push_back(Wire{N.Offset, N.Size, Kind, false,
                         Def.Wires[Port].Width, 0});
  };
  for (WireId Port : Def.Inputs)
    add(Port, WireKind::Input);
  for (WireId Port : Def.Outputs)
    add(Port, WireKind::Output);
  return Ports;
}

WireId Module::addPrefixedWire(uint32_t Prefix, const Wire &Port,
                               WireKind Kind) {
  assert(Prefix < Prefixes.size() && Kind != WireKind::Const &&
         size_t(Port.NameOffset) + Port.NameSize <= Names.size() &&
         "a prefixed wire names a prefix and a tail of this module");
  Wires.push_back(
      Wire{Port.NameOffset, Port.NameSize, Kind, true, Port.Width, Prefix});
  return static_cast<WireId>(Wires.size() - 1);
}

void Module::renameWire(WireId Id, std::string_view Name) {
  const NamePart N = appendName({Name});
  Wire &W = Wires[Id];
  W.NameOffset = N.Offset;
  W.NameSize = N.Size;
  W.Prefixed = false;
}

NetId Module::addNet(Op Operation, std::span<const WireId> Inputs,
                     WireId Output, uint32_t Aux, std::string_view CoverRows) {
  assert(CoverRows.size() % (Inputs.size() + 1) == 0 &&
         "a cover row is NumInputs + 1 bytes");
  Net N;
  N.Operation = Operation;
  N.Output = Output;
  N.Aux = Aux;
  N.InputOffset = appendParts(NetInputs, {Inputs}, Name,
                              "net inputs pass 2^32 entries");
  N.NumInputs = static_cast<uint32_t>(Inputs.size());
  N.CoverOffset =
      appendParts(Covers, {CoverRows}, Name, "cover rows pass 4 GiB");
  N.CoverRows = static_cast<uint32_t>(CoverRows.size() / (Inputs.size() + 1));
  Nets.push_back(N);
  return static_cast<NetId>(Nets.size() - 1);
}

void Module::addCoverRow(std::string_view Plane, char OutputBit) {
  Net &N = Nets.back();
  assert(N.Operation == Op::Lut && Plane.size() == N.NumInputs &&
         N.CoverOffset + size_t(N.CoverRows) * (N.NumInputs + 1) ==
             Covers.size() &&
         "rows go to the last net, a Lut whose cover ends the buffer");
  appendParts(Covers, {Plane, std::string_view(&OutputBit, 1)}, Name,
              "cover rows pass 4 GiB");
  ++N.CoverRows;
}

void Module::replaceNet(NetId Id, Op Operation,
                        std::initializer_list<WireId> Inputs) {
  Net &N = Nets[Id];
  if (Inputs.size() <= N.NumInputs)
    std::copy(Inputs.begin(), Inputs.end(),
              NetInputs.begin() + N.InputOffset);
  else
    N.InputOffset = appendParts(NetInputs, {std::span<const WireId>(Inputs)},
                                Name, "net inputs pass 2^32 entries");
  N.Operation = Operation;
  N.NumInputs = static_cast<uint32_t>(Inputs.size());
  N.Aux = 0;
  N.CoverRows = 0;
}

RegId Module::addRegister(WireId D, WireId Q, uint64_t Init) {
  assert(Wires[Q].Kind == WireKind::Reg && "register Q must be a reg wire");
  Registers.push_back(Register{D, Q, Init});
  return static_cast<RegId>(Registers.size() - 1);
}

MemId Module::addMemory(Memory Mem) {
  Memories.push_back(std::move(Mem));
  return static_cast<MemId>(Memories.size() - 1);
}

InstId Module::addInstance(SubInstance Inst) {
  Instances.push_back(std::move(Inst));
  return static_cast<InstId>(Instances.size() - 1);
}

WireId Module::findPort(std::string_view Name) const {
  for (WireId Id : Inputs)
    if (wireName(Id) == Name)
      return Id;
  for (WireId Id : Outputs)
    if (wireName(Id) == Name)
      return Id;
  return InvalidId;
}

WireId Module::findWire(std::string_view Name) const {
  for (WireId Id = 0; Id != Wires.size(); ++Id)
    if (wireName(Id) == Name)
      return Id;
  return InvalidId;
}

PortIndex::PortIndex(const Module &M) {
  if (M.numPorts() == 0)
    return;
  Slots.resize(std::bit_ceil(2 * M.numPorts()));
  std::string Name; // Each port's name, rendered for its hash.
  auto insert = [&](WireId Port) {
    Name.clear();
    Name += M.wireName(Port);
    const size_t Hash = std::hash<std::string_view>{}(Name);
    Slot &S = Slots[probe(M, Name, Hash)];
    if (S.Id == InvalidId) // Else an earlier port has this name.
      S = Slot{Hash, Port};
  };
  for (WireId Port : M.Inputs)
    insert(Port);
  for (WireId Port : M.Outputs)
    insert(Port);
}

size_t PortIndex::probe(const Module &M, std::string_view Name,
                        size_t Hash) const {
  const size_t Mask = Slots.size() - 1;
  size_t I = Hash & Mask;
  while (Slots[I].Id != InvalidId &&
         (Slots[I].Hash != Hash || M.wireName(Slots[I].Id) != Name))
    I = (I + 1) & Mask;
  return I;
}

WireId PortIndex::find(const Module &M, std::string_view Name) const {
  if (Slots.empty())
    return InvalidId;
  return Slots[probe(M, Name, std::hash<std::string_view>{}(Name))].Id;
}

std::optional<uint16_t>
Module::resultWidth(Op Operation, const std::vector<uint16_t> &Widths,
                    uint32_t Aux, uint16_t OutWidth) {
  auto allEqual = [&]() {
    for (uint16_t W : Widths)
      if (W != Widths.front())
        return false;
    return true;
  };
  switch (Operation) {
  case Op::And:
  case Op::Or:
  case Op::Xor:
  case Op::Nand:
  case Op::Nor:
  case Op::Xnor:
    if (Widths.size() != 2 || !allEqual())
      return std::nullopt;
    return Widths.front();
  case Op::Not:
  case Op::Buf:
    if (Widths.size() != 1)
      return std::nullopt;
    return Widths.front();
  case Op::Mux:
    if (Widths.size() != 3 || Widths[0] != 1 || Widths[1] != Widths[2])
      return std::nullopt;
    return Widths[1];
  case Op::Lut:
    for (uint16_t W : Widths)
      if (W != 1)
        return std::nullopt;
    return 1;
  case Op::Add:
  case Op::Sub:
    if (Widths.size() != 2 || !allEqual())
      return std::nullopt;
    return Widths.front();
  case Op::Eq:
  case Op::Lt:
    if (Widths.size() != 2 || !allEqual())
      return std::nullopt;
    return 1;
  case Op::Concat: {
    if (Widths.empty())
      return std::nullopt;
    uint32_t Sum = 0;
    for (uint16_t W : Widths)
      Sum += W;
    if (Sum > 64)
      return std::nullopt;
    return static_cast<uint16_t>(Sum);
  }
  case Op::Select:
    if (Widths.size() != 1 || OutWidth == 0 ||
        Aux + OutWidth > Widths.front())
      return std::nullopt;
    return OutWidth;
  case Op::AndR:
  case Op::OrR:
  case Op::XorR:
    if (Widths.size() != 1)
      return std::nullopt;
    return 1;
  }
  return std::nullopt;
}

std::optional<std::string> Module::validate() const {
  auto fail = [&](const std::string &Msg) {
    return std::optional<std::string>("module '" + Name + "': " + Msg);
  };

  // Count drivers per wire. One width buffer serves every net.
  std::vector<uint32_t> Drivers(Wires.size(), 0);
  std::vector<uint16_t> Widths;
  for (const Net &N : Nets) {
    if (N.Output >= Wires.size())
      return fail("net output wire id out of range");
    if (size_t(N.InputOffset) + N.NumInputs > NetInputs.size() ||
        N.CoverOffset + N.CoverRows * (size_t(N.NumInputs) + 1) >
            Covers.size())
      return fail("net inputs or cover out of range");
    Widths.clear();
    for (WireId In : netInputs(N)) {
      if (In >= Wires.size())
        return fail("net input wire id out of range");
      Widths.push_back(Wires[In].Width);
    }
    ++Drivers[N.Output];

    std::optional<uint16_t> Result =
        resultWidth(N.Operation, Widths, N.Aux, Wires[N.Output].Width);
    if (!Result)
      return fail(std::string("ill-typed ") + opName(N.Operation) +
                  " net driving '" + wireName(N.Output) + "'");
    if (*Result != Wires[N.Output].Width)
      return fail(std::string("width mismatch on ") + opName(N.Operation) +
                  " net driving '" + wireName(N.Output) + "'");
  }
  for (const Register &R : Registers) {
    if (R.D >= Wires.size() || R.Q >= Wires.size())
      return fail("register pin out of range");
    if (Wires[R.Q].Kind != WireKind::Reg)
      return fail("register Q wire '" + wireName(R.Q) + "' is not reg-kind");
    if (Wires[R.D].Width != Wires[R.Q].Width)
      return fail("register width mismatch on '" + wireName(R.Q) + "'");
    ++Drivers[R.Q];
  }
  for (const Memory &M : Memories) {
    for (WireId Pin : {M.RAddr, M.RData, M.WAddr, M.WData, M.WEnable})
      if (Pin >= Wires.size())
        return fail("memory '" + M.Name + "' pin out of range");
    if (Wires[M.RAddr].Width != M.AddrWidth ||
        Wires[M.WAddr].Width != M.AddrWidth)
      return fail("memory '" + M.Name + "' address width mismatch");
    if (Wires[M.RData].Width != M.DataWidth ||
        Wires[M.WData].Width != M.DataWidth)
      return fail("memory '" + M.Name + "' data width mismatch");
    if (Wires[M.WEnable].Width != 1)
      return fail("memory '" + M.Name + "' write enable must be 1 bit");
    if (M.SyncRead && Wires[M.RData].Kind != WireKind::Reg)
      return fail("sync memory '" + M.Name + "' RData must be reg-kind");
    ++Drivers[M.RData];
  }
  // Instance output bindings drive local wires; widths are validated by
  // Design::validate which can see the instantiated definitions.
  for (const SubInstance &Inst : Instances)
    for (const auto &[DefPort, Local] : Inst.Bindings)
      if (Local >= Wires.size())
        return fail("instance '" + Inst.Name + "' binds out-of-range wire");

  for (WireId Id = 0; Id != Wires.size(); ++Id) {
    const Wire &W = Wires[Id];
    bool MayBeUndriven =
        W.Kind == WireKind::Input || W.Kind == WireKind::Const;
    if (MayBeUndriven && Drivers[Id] != 0)
      return fail("wire '" + wireName(Id) + "' of kind " +
                  wireKindName(W.Kind) + " must not be driven");
    // Non-port basic wires may be driven by instance outputs, which this
    // local pass cannot count; Design::validate finishes the job. Here we
    // only reject multiple drivers.
    if (Drivers[Id] > 1)
      return fail("wire '" + wireName(Id) + "' has multiple drivers");
  }

  for (WireId Id : Inputs)
    if (Wires[Id].Kind != WireKind::Input)
      return fail("input list contains non-input wire '" + wireName(Id) +
                  "'");
  for (WireId Id : Outputs)
    if (Wires[Id].Kind != WireKind::Output)
      return fail("output list contains non-output wire '" + wireName(Id) +
                  "'");
  return std::nullopt;
}
