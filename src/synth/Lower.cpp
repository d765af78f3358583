//===- synth/Lower.cpp - RTL-to-primitive-gate lowering -------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "synth/Lower.h"

#include <cassert>
#include <initializer_list>
#include <map>
#include <set>
#include <span>
#include <string>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::synth;

namespace {

/// Shared bit-blasting machinery: expands nets, registers, and memories
/// of a source module into 1-bit primitive gates of the module under
/// construction. Subclasses decide what happens to submodule instances
/// (inline them or rebind them).
class GateEmitter {
protected:
  GateEmitter(const Design &D, std::string Name) : D(D), Out(std::move(Name)) {}

  static std::string bitName(const std::string &Base, uint16_t Bit) {
    return Base + "[" + std::to_string(Bit) + "]";
  }

  WireId freshBit(const std::string &Name, WireKind Kind = WireKind::Basic) {
    return Out.addWire(Name + "$" + std::to_string(Seq++), Kind, 1);
  }

  WireId constBit(bool Value) {
    auto It = ConstPool.find(Value);
    if (It != ConstPool.end())
      return It->second;
    WireId W = Out.addWire(Value ? "const1" : "const0", WireKind::Const, 1,
                           Value ? 1 : 0);
    ConstPool[Value] = W;
    return W;
  }

  WireId gate(Op Operation, std::initializer_list<WireId> Ins,
              const char *Hint) {
    WireId Result = freshBit(Hint);
    Out.addNet(Operation, Ins, Result);
    return Result;
  }

  /// Emits a gate whose output is the pre-created wire \p Into.
  void gateInto(Op Operation, std::initializer_list<WireId> Ins,
                WireId Into) {
    Out.addNet(Operation, Ins, Into);
  }

  WireId andTree(const std::vector<WireId> &Ins) {
    return reduceTree(Op::And, Ins);
  }

  WireId reduceTree(Op Operation, std::vector<WireId> Level) {
    assert(!Level.empty());
    while (Level.size() > 1) {
      std::vector<WireId> Next;
      for (size_t I = 0; I + 1 < Level.size(); I += 2)
        Next.push_back(gate(Operation, {Level[I], Level[I + 1]}, "tree"));
      if (Level.size() % 2)
        Next.push_back(Level.back());
      Level = std::move(Next);
    }
    return Level.front();
  }

  using BitMap = std::map<WireId, std::vector<WireId>>;

  /// Creates the per-bit wires for every wire of \p M not already bound
  /// in \p Bits. Ports become real ports when \p PortsArePorts, else
  /// plain wires; output-port bit ids are recorded in \p OutputBits.
  void createBits(const Module &M, const std::string &Prefix, BitMap &Bits,
                  BitMap &OutputBits, bool PortsArePorts) {
    for (WireId W = 0; W != M.numWires(); ++W) {
      if (Bits.count(W))
        continue; // Pre-bound (e.g. inlined instance inputs).
      const WireView Wr = M.wire(W);
      std::string Name = Prefix + Wr.Name;
      std::vector<WireId> &Vec = Bits[W];
      switch (Wr.Kind) {
      case WireKind::Input:
        for (uint16_t B = 0; B != Wr.Width; ++B)
          Vec.push_back(Out.addInput(bitName(Name, B)));
        break;
      case WireKind::Const:
        for (uint16_t B = 0; B != Wr.Width; ++B)
          Vec.push_back(constBit((Wr.ConstValue >> B) & 1));
        break;
      case WireKind::Reg:
        for (uint16_t B = 0; B != Wr.Width; ++B)
          Vec.push_back(Out.addWire(bitName(Name, B), WireKind::Reg, 1));
        break;
      case WireKind::Output:
        for (uint16_t B = 0; B != Wr.Width; ++B) {
          if (PortsArePorts)
            Vec.push_back(Out.addOutput(bitName(Name, B)));
          else
            Vec.push_back(
                Out.addWire(bitName(Name, B), WireKind::Basic, 1));
        }
        OutputBits[W] = Vec;
        break;
      case WireKind::Basic:
        for (uint16_t B = 0; B != Wr.Width; ++B)
          Vec.push_back(Out.addWire(bitName(Name, B), WireKind::Basic, 1));
        break;
      }
    }
  }

  void lowerNet(const Module &M, const Net &N, BitMap &Bits) {
    const std::vector<WireId> &OutBits = Bits[N.Output];
    const std::span<const WireId> Ins = M.netInputs(N);
    auto in = [&](size_t Index) -> const std::vector<WireId> & {
      return Bits[Ins[Index]];
    };
    switch (N.Operation) {
    case Op::And:
    case Op::Or:
    case Op::Xor:
    case Op::Nand:
    case Op::Nor:
    case Op::Xnor:
      for (size_t B = 0; B != OutBits.size(); ++B)
        gateInto(N.Operation, {in(0)[B], in(1)[B]}, OutBits[B]);
      return;
    case Op::Not:
    case Op::Buf:
      for (size_t B = 0; B != OutBits.size(); ++B)
        gateInto(N.Operation, {in(0)[B]}, OutBits[B]);
      return;
    case Op::Mux: {
      WireId Sel = in(0)[0];
      for (size_t B = 0; B != OutBits.size(); ++B)
        gateInto(Op::Mux, {Sel, in(1)[B], in(2)[B]}, OutBits[B]);
      return;
    }
    case Op::Lut: {
      std::vector<WireId> InBits;
      for (size_t I = 0; I != Ins.size(); ++I)
        InBits.push_back(in(I)[0]);
      Out.addNet(Op::Lut, InBits, OutBits[0], 0, M.netCover(N).bytes());
      return;
    }
    case Op::Add:
    case Op::Sub: {
      bool IsSub = N.Operation == Op::Sub;
      WireId Carry = constBit(IsSub);
      for (size_t B = 0; B != OutBits.size(); ++B) {
        WireId A = in(0)[B];
        WireId Bw = IsSub ? gate(Op::Not, {in(1)[B]}, "sub_nb") : in(1)[B];
        WireId AxB = gate(Op::Xor, {A, Bw}, "add_x");
        gateInto(Op::Xor, {AxB, Carry}, OutBits[B]);
        WireId AaB = gate(Op::And, {A, Bw}, "add_g");
        WireId CaX = gate(Op::And, {Carry, AxB}, "add_p");
        Carry = gate(Op::Or, {AaB, CaX}, "add_c");
      }
      return;
    }
    case Op::Eq: {
      std::vector<WireId> Eqs;
      for (size_t B = 0; B != in(0).size(); ++B)
        Eqs.push_back(gate(Op::Xnor, {in(0)[B], in(1)[B]}, "eq_b"));
      gateInto(Op::Buf, {andTree(Eqs)}, OutBits[0]);
      return;
    }
    case Op::Lt: {
      // LSB-to-MSB ripple comparator.
      WireId Lt = constBit(false);
      for (size_t B = 0; B != in(0).size(); ++B) {
        WireId NotA = gate(Op::Not, {in(0)[B]}, "lt_na");
        WireId BGt = gate(Op::And, {NotA, in(1)[B]}, "lt_g");
        WireId Same = gate(Op::Xnor, {in(0)[B], in(1)[B]}, "lt_e");
        WireId Keep = gate(Op::And, {Same, Lt}, "lt_k");
        Lt = gate(Op::Or, {BGt, Keep}, "lt");
      }
      gateInto(Op::Buf, {Lt}, OutBits[0]);
      return;
    }
    case Op::Concat: {
      // Inputs are listed most-significant first.
      size_t B = 0;
      for (size_t I = Ins.size(); I-- > 0;) {
        const std::vector<WireId> &Part = in(I);
        for (WireId Bit : Part)
          gateInto(Op::Buf, {Bit}, OutBits[B++]);
      }
      assert(B == OutBits.size());
      return;
    }
    case Op::Select:
      for (size_t B = 0; B != OutBits.size(); ++B)
        gateInto(Op::Buf, {in(0)[N.Aux + B]}, OutBits[B]);
      return;
    case Op::AndR:
      gateInto(Op::Buf, {reduceTree(Op::And, in(0))}, OutBits[0]);
      return;
    case Op::OrR:
      gateInto(Op::Buf, {reduceTree(Op::Or, in(0))}, OutBits[0]);
      return;
    case Op::XorR:
      gateInto(Op::Buf, {reduceTree(Op::Xor, in(0))}, OutBits[0]);
      return;
    }
    assert(false && "unhandled operation in lowering");
  }

  void lowerRegisters(const Module &M, BitMap &Bits) {
    for (const Register &R : M.Registers) {
      const std::vector<WireId> &DBits = Bits[R.D];
      const std::vector<WireId> &QBits = Bits[R.Q];
      for (size_t B = 0; B != QBits.size(); ++B)
        Out.addRegister(DBits[B], QBits[B], (R.Init >> B) & 1);
    }
  }

  void lowerMemory(const Memory &Mem, BitMap &Bits) {
    assert(Mem.AddrWidth <= 14 && "memory too large to expand");
    const size_t Words = size_t(1) << Mem.AddrWidth;
    const std::vector<WireId> &RAddr = Bits[Mem.RAddr];
    const std::vector<WireId> &WAddr = Bits[Mem.WAddr];
    const std::vector<WireId> &WData = Bits[Mem.WData];
    WireId WEn = Bits[Mem.WEnable][0];

    // Storage: Words x DataWidth register bits.
    std::vector<std::vector<WireId>> Word(Words);
    // Precompute complemented write-address bits.
    std::vector<WireId> NWAddr;
    for (WireId A : WAddr)
      NWAddr.push_back(gate(Op::Not, {A}, "mem_nwa"));

    for (size_t W = 0; W != Words; ++W) {
      // One-hot write select for this word.
      std::vector<WireId> Terms;
      for (uint16_t A = 0; A != Mem.AddrWidth; ++A)
        Terms.push_back((W >> A) & 1 ? WAddr[A] : NWAddr[A]);
      WireId Sel = andTree(Terms);
      WireId En = gate(Op::And, {Sel, WEn}, "mem_we");
      Word[W].resize(Mem.DataWidth);
      for (uint16_t Bit = 0; Bit != Mem.DataWidth; ++Bit) {
        WireId Q = freshBit(Mem.Name + "_q", WireKind::Reg);
        WireId DNext = gate(Op::Mux, {En, WData[Bit], Q}, "mem_d");
        Out.addRegister(DNext, Q);
        Word[W][Bit] = Q;
      }
    }

    // Read port: per-bit mux tree over the words, indexed by RAddr.
    auto readTree = [&](uint16_t Bit) {
      std::vector<WireId> Level;
      Level.reserve(Words);
      for (size_t W = 0; W != Words; ++W)
        Level.push_back(Word[W][Bit]);
      for (uint16_t A = 0; A != Mem.AddrWidth; ++A) {
        std::vector<WireId> Next;
        for (size_t I = 0; I != Level.size(); I += 2)
          Next.push_back(
              gate(Op::Mux, {RAddr[A], Level[I + 1], Level[I]}, "mem_r"));
        Level = std::move(Next);
      }
      return Level.front();
    };

    const std::vector<WireId> &RData = Bits[Mem.RData];
    for (uint16_t Bit = 0; Bit != Mem.DataWidth; ++Bit) {
      WireId Value = readTree(Bit);
      if (Mem.SyncRead)
        Out.addRegister(Value, RData[Bit]); // RData bits are reg-kind.
      else
        gateInto(Op::Buf, {Value}, RData[Bit]);
    }
  }

  const Design &D;
  Module Out;
  uint64_t Seq = 0;
  std::map<uint64_t, WireId> ConstPool;
};

/// Flattening emitter: recursively inlines every instance.
class FlatEmitter : public GateEmitter {
public:
  FlatEmitter(const Design &D, std::string Name)
      : GateEmitter(D, std::move(Name)) {}

  Module run(ModuleId Top) {
    const Module &M = D.module(Top);
    BitMap Bits;
    BitMap OutputBits;
    emitBody(M, "", Bits, OutputBits, /*TopLevel=*/true);
    return std::move(Out);
  }

private:
  /// \p Bits may pre-bind input ports (for inlined instances).
  void emitBody(const Module &M, const std::string &Prefix, BitMap &Bits,
                BitMap &OutputBits, bool TopLevel) {
    // For non-top levels, input bits are pre-bound by the caller and
    // output ports become plain wires; at top level ports are ports.
    createBits(M, Prefix, Bits, OutputBits, TopLevel);

    for (const Net &N : M.Nets)
      lowerNet(M, N, Bits);
    lowerRegisters(M, Bits);
    for (const Memory &Mem : M.Memories)
      lowerMemory(Mem, Bits);

    for (const SubInstance &Inst : M.Instances) {
      const Module &Def = D.module(Inst.Def);
      BitMap SubBits;
      std::map<WireId, WireId> OutBindings;
      for (const auto &[DefPort, Local] : Inst.Bindings) {
        if (Def.isInput(DefPort))
          SubBits[DefPort] = Bits[Local];
        else
          OutBindings[DefPort] = Local;
      }
      // Pre-bound inputs keep their kind trick: mark them present so
      // createBits skips them inside the recursive call.
      BitMap SubOutputs;
      emitBody(Def, Prefix + Inst.Name + ".", SubBits, SubOutputs,
               /*TopLevel=*/false);
      for (const auto &[DefPort, Local] : OutBindings) {
        const std::vector<WireId> &Src = SubOutputs.at(DefPort);
        const std::vector<WireId> &Dst = Bits[Local];
        for (size_t B = 0; B != Dst.size(); ++B)
          gateInto(Op::Buf, {Src[B]}, Dst[B]);
      }
    }
  }
};

/// Hierarchy-preserving emitter: lowers one module's own logic; instances
/// are rebound to the already-lowered definitions.
class HierEmitter : public GateEmitter {
public:
  /// Per lowered definition: original port WireId -> its bit ports.
  using PortBitMap = std::map<WireId, std::vector<WireId>>;

  HierEmitter(const Design &D, const Module &M,
              const std::map<ModuleId, ModuleId> &LoweredId,
              const std::map<ModuleId, PortBitMap> &LoweredPorts)
      : GateEmitter(D, M.Name + "$gates"), M(M), LoweredId(LoweredId),
        LoweredPorts(LoweredPorts) {}

  Module run(PortBitMap &PortBits) {
    BitMap Bits;
    BitMap OutputBits;
    createBits(M, "", Bits, OutputBits, /*PortsArePorts=*/true);
    for (WireId Port : M.Inputs)
      PortBits[Port] = Bits[Port];
    for (WireId Port : M.Outputs)
      PortBits[Port] = Bits[Port];

    for (const Net &N : M.Nets)
      lowerNet(M, N, Bits);
    lowerRegisters(M, Bits);
    for (const Memory &Mem : M.Memories)
      lowerMemory(Mem, Bits);

    for (const SubInstance &Inst : M.Instances) {
      SubInstance Lowered;
      Lowered.Def = LoweredId.at(Inst.Def);
      Lowered.Name = Inst.Name;
      const PortBitMap &DefBits = LoweredPorts.at(Inst.Def);
      for (const auto &[DefPort, Local] : Inst.Bindings) {
        const std::vector<WireId> &Ports = DefBits.at(DefPort);
        const std::vector<WireId> &Locals = Bits[Local];
        assert(Ports.size() == Locals.size());
        for (size_t B = 0; B != Ports.size(); ++B)
          Lowered.Bindings.emplace_back(Ports[B], Locals[B]);
      }
      Out.addInstance(std::move(Lowered));
    }
    return std::move(Out);
  }

private:
  const Module &M;
  const std::map<ModuleId, ModuleId> &LoweredId;
  const std::map<ModuleId, PortBitMap> &LoweredPorts;
};

} // namespace

Module synth::lower(const Design &D, ModuleId Id) {
  FlatEmitter E(D, D.module(Id).Name + "$gates");
  return E.run(Id);
}

size_t synth::primitiveGateCount(const Design &D, ModuleId Id) {
  Module Lowered = lower(D, Id);
  size_t Count = 0;
  for (const Net &N : Lowered.Nets)
    if (N.Operation != Op::Buf)
      ++Count;
  return Count;
}

size_t synth::hierarchicalGateCount(const Design &D, ModuleId Id) {
  std::set<ModuleId> Seen;
  size_t Total = 0;
  // Each unique definition contributes its flattened gate count once.
  std::vector<ModuleId> Work{Id};
  while (!Work.empty()) {
    ModuleId Cur = Work.back();
    Work.pop_back();
    if (!Seen.insert(Cur).second)
      continue;
    const Module &M = D.module(Cur);
    Design Shallow; // Count only this module's own logic: lower a copy
                    // with instances stripped.
    Module Copy = M;
    Copy.Instances.clear();
    // Wires driven by instance outputs become inputs of the shallow copy
    // so it still validates.
    std::set<WireId> InstDriven;
    for (const SubInstance &Inst : M.Instances)
      for (const auto &[DefPort, Local] : Inst.Bindings)
        if (D.module(Inst.Def).isOutput(DefPort))
          InstDriven.insert(Local);
    for (WireId W : InstDriven) {
      if (Copy.Wires[W].Kind == WireKind::Output) {
        // An instance output bound straight to a module port: feed the
        // port from a stand-in input instead.
        WireId Stub = Copy.addInput(Copy.wireName(W) + "$stub",
                                    Copy.Wires[W].Width);
        Copy.addNet(Op::Buf, {Stub}, W);
      } else {
        Copy.Wires[W].Kind = WireKind::Input;
        Copy.Inputs.push_back(W);
      }
    }
    ModuleId ShallowId = Shallow.addModule(std::move(Copy));
    Total += primitiveGateCount(Shallow, ShallowId);
    for (const SubInstance &Inst : M.Instances)
      Work.push_back(Inst.Def);
  }
  return Total;
}

HierLowered synth::lowerHierarchical(const Design &D, ModuleId Top) {
  // Reachable definitions in dependency order.
  std::optional<std::vector<ModuleId>> Order = D.topologicalModuleOrder();
  assert(Order && "module instantiation must be acyclic");
  std::set<ModuleId> Reachable{Top};
  // Walk the topo order backwards so instantiators mark their children.
  for (auto It = Order->rbegin(); It != Order->rend(); ++It)
    if (Reachable.count(*It))
      for (const SubInstance &Inst : D.module(*It).Instances)
        Reachable.insert(Inst.Def);

  HierLowered Result;
  std::map<ModuleId, ModuleId> LoweredId;
  std::map<ModuleId, HierEmitter::PortBitMap> LoweredPorts;
  for (ModuleId Id : *Order) {
    if (!Reachable.count(Id))
      continue;
    HierEmitter E(D, D.module(Id), LoweredId, LoweredPorts);
    HierEmitter::PortBitMap PortBits;
    Module Lowered = E.run(PortBits);
    LoweredId[Id] = Result.Design.addModule(std::move(Lowered));
    LoweredPorts[Id] = std::move(PortBits);
  }
  Result.Top = LoweredId.at(Top);
  return Result;
}

size_t synth::totalInstanceCount(const Design &D, ModuleId Id) {
  size_t Total = 0;
  for (const SubInstance &Inst : D.module(Id).Instances)
    Total += 1 + totalInstanceCount(D, Inst.Def);
  return Total;
}

size_t synth::uniqueModuleCount(const Design &D, ModuleId Id) {
  std::set<ModuleId> Seen;
  std::vector<ModuleId> Work{Id};
  while (!Work.empty()) {
    ModuleId Cur = Work.back();
    Work.pop_back();
    if (!Seen.insert(Cur).second)
      continue;
    for (const SubInstance &Inst : D.module(Cur).Instances)
      Work.push_back(Inst.Def);
  }
  return Seen.size() - 1; // Exclude Id itself.
}
