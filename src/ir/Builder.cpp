//===- ir/Builder.cpp - PyRTL-style construction EDSL ---------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace wiresort;
using namespace wiresort::ir;

V Builder::fresh(uint16_t Width, const char *Hint) {
  return V{M.addWire(freshName(Hint), WireKind::Basic, Width), Width};
}

std::string_view Builder::freshName(std::string_view Hint) {
  // Composed in a reused member buffer, which addWire copies into the
  // module's name buffer: no allocation per wire — Builder::fresh runs
  // once per net, millions of times for generator-scale designs.
  NameBuf.assign(Hint);
  NameBuf += '$';
  char Digits[20];
  char *End = Digits + sizeof(Digits);
  char *At = End;
  uint64_t N = NextTmp++;
  do {
    *--At = static_cast<char>('0' + N % 10);
    N /= 10;
  } while (N != 0);
  NameBuf.append(At, End);
  return NameBuf;
}

V Builder::input(const std::string &Name, uint16_t Width) {
  return V{M.addInput(Name, Width), Width};
}

V Builder::output(const std::string &Name, V Src) {
  assert(Src.valid() && "output source must exist");
  WireId Out = M.addOutput(Name, Src.Width);
  M.addNet(Op::Buf, {Src.Id}, Out);
  return V{Out, Src.Width};
}

V Builder::lit(uint64_t Value, uint16_t Width) {
  assert(Width >= 1 && Width <= 64 && "literal width out of range");
  uint64_t Mask = Width == 64 ? ~0ull : ((1ull << Width) - 1);
  WireId Id =
      M.addWire(freshName("const"), WireKind::Const, Width, Value & Mask);
  return V{Id, Width};
}

V Builder::reg(V D, const std::string &Name, uint64_t Init) {
  WireId Q = M.addWire(Name, WireKind::Reg, D.Width);
  M.addRegister(D.Id, Q, Init);
  return V{Q, D.Width};
}

V Builder::regLoop(const std::string &Name, uint16_t Width, uint64_t Init) {
  WireId Q = M.addWire(Name, WireKind::Reg, Width);
  M.addRegister(InvalidId, Q, Init);
  return V{Q, Width};
}

void Builder::drive(V Q, V D) {
  assert(Q.Width == D.Width && "register drive width mismatch");
  for (Register &R : M.Registers) {
    if (R.Q == Q.Id) {
      assert(R.D == InvalidId && "register already driven");
      R.D = D.Id;
      return;
    }
  }
  assert(false && "drive() target is not a regLoop wire");
}

V Builder::memory(const std::string &Name, bool SyncRead, V RAddr, V WAddr,
                  V WData, V WEnable) {
  assert(RAddr.Width == WAddr.Width && "memory address width mismatch");
  assert(WEnable.Width == 1 && "memory write enable must be 1 bit");
  WireId RData = M.addWire(Name + "$rdata",
                           SyncRead ? WireKind::Reg : WireKind::Basic,
                           WData.Width);
  Memory Mem;
  Mem.Name = Name;
  Mem.SyncRead = SyncRead;
  Mem.AddrWidth = RAddr.Width;
  Mem.DataWidth = WData.Width;
  Mem.RAddr = RAddr.Id;
  Mem.RData = RData;
  Mem.WAddr = WAddr.Id;
  Mem.WData = WData.Id;
  Mem.WEnable = WEnable.Id;
  M.addMemory(std::move(Mem));
  return V{RData, WData.Width};
}

V Builder::binary(Op Operation, V A, V B, uint16_t OutWidth) {
  V Out = fresh(OutWidth, opName(Operation));
  M.addNet(Operation, {A.Id, B.Id}, Out.Id);
  return Out;
}

V Builder::andv(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::And, A, B, A.Width);
}
V Builder::orv(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Or, A, B, A.Width);
}
V Builder::xorv(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Xor, A, B, A.Width);
}
V Builder::nandv(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Nand, A, B, A.Width);
}
V Builder::norv(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Nor, A, B, A.Width);
}
V Builder::xnorv(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Xnor, A, B, A.Width);
}

V Builder::notv(V A) {
  V Out = fresh(A.Width, "not");
  M.addNet(Op::Not, {A.Id}, Out.Id);
  return Out;
}

V Builder::buf(V A) {
  V Out = fresh(A.Width, "buf");
  M.addNet(Op::Buf, {A.Id}, Out.Id);
  return Out;
}

V Builder::mux(V Sel, V A, V B) {
  assert(Sel.Width == 1 && "mux select must be 1 bit");
  assert(A.Width == B.Width && "mux arm width mismatch");
  V Out = fresh(A.Width, "mux");
  M.addNet(Op::Mux, {Sel.Id, A.Id, B.Id}, Out.Id);
  return Out;
}

V Builder::add(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Add, A, B, A.Width);
}
V Builder::sub(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Sub, A, B, A.Width);
}
V Builder::eq(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Eq, A, B, 1);
}
V Builder::lt(V A, V B) {
  assert(A.Width == B.Width);
  return binary(Op::Lt, A, B, 1);
}

V Builder::slt(V A, V B) {
  assert(A.Width == B.Width && A.Width >= 2 && "slt needs signed operands");
  // Signed compare via sign-bit case split: if signs differ the negative
  // operand is smaller; otherwise unsigned compare decides.
  V SignA = bit(A, A.Width - 1);
  V SignB = bit(B, B.Width - 1);
  V Unsigned = lt(A, B);
  return mux(xorv(SignA, SignB), SignA, Unsigned);
}

V Builder::concat(std::initializer_list<V> Parts) {
  return concat(std::vector<V>(Parts));
}

V Builder::concat(const std::vector<V> &Parts) {
  assert(!Parts.empty() && "concat of nothing");
  uint32_t Total = 0;
  std::vector<WireId> Ids;
  Ids.reserve(Parts.size());
  for (const V &Part : Parts) {
    Total += Part.Width;
    Ids.push_back(Part.Id);
  }
  assert(Total <= 64 && "concat result too wide");
  V Out = fresh(static_cast<uint16_t>(Total), "concat");
  M.addNet(Op::Concat, Ids, Out.Id);
  return Out;
}

V Builder::slice(V A, uint16_t Hi, uint16_t Lo) {
  assert(Lo <= Hi && Hi < A.Width && "slice out of range");
  uint16_t Width = static_cast<uint16_t>(Hi - Lo + 1);
  V Out = fresh(Width, "slice");
  M.addNet(Op::Select, {A.Id}, Out.Id, Lo);
  return Out;
}

V Builder::bit(V A, uint16_t Index) { return slice(A, Index, Index); }

V Builder::andr(V A) {
  V Out = fresh(1, "andr");
  M.addNet(Op::AndR, {A.Id}, Out.Id);
  return Out;
}
V Builder::orr(V A) {
  V Out = fresh(1, "orr");
  M.addNet(Op::OrR, {A.Id}, Out.Id);
  return Out;
}
V Builder::xorr(V A) {
  V Out = fresh(1, "xorr");
  M.addNet(Op::XorR, {A.Id}, Out.Id);
  return Out;
}

V Builder::zext(V A, uint16_t Width) {
  if (Width == A.Width)
    return A;
  if (Width < A.Width)
    return slice(A, Width - 1, 0);
  return concat({lit(0, static_cast<uint16_t>(Width - A.Width)), A});
}

V Builder::sext(V A, uint16_t Width) {
  assert(Width >= A.Width && "sext cannot shrink");
  if (Width == A.Width)
    return A;
  V Sign = bit(A, A.Width - 1);
  std::vector<V> Parts;
  for (uint16_t I = A.Width; I != Width; ++I)
    Parts.push_back(Sign);
  Parts.push_back(A);
  return concat(Parts);
}

V Builder::eqConst(V A, uint64_t Value) { return eq(A, lit(Value, A.Width)); }

V Builder::shlConst(V A, uint16_t Amount) {
  if (Amount == 0)
    return A;
  if (Amount >= A.Width)
    return lit(0, A.Width);
  return concat({slice(A, static_cast<uint16_t>(A.Width - Amount - 1), 0),
                 lit(0, Amount)});
}

V Builder::shrConst(V A, uint16_t Amount) {
  if (Amount == 0)
    return A;
  if (Amount >= A.Width)
    return lit(0, A.Width);
  return zext(slice(A, A.Width - 1, Amount), A.Width);
}

V Builder::shl(V A, V Amount) {
  // Log-depth barrel shifter: stage i conditionally shifts by 2^i.
  V Acc = A;
  for (uint16_t Stage = 0; (1u << Stage) < A.Width && Stage < Amount.Width;
       ++Stage)
    Acc = mux(bit(Amount, Stage), shlConst(Acc, static_cast<uint16_t>(1u << Stage)),
              Acc);
  return Acc;
}

V Builder::shr(V A, V Amount, bool Arithmetic) {
  V Sign = Arithmetic ? bit(A, A.Width - 1) : lit(0, 1);
  V Acc = A;
  for (uint16_t Stage = 0; (1u << Stage) < A.Width && Stage < Amount.Width;
       ++Stage) {
    uint16_t Shift = static_cast<uint16_t>(1u << Stage);
    // Shift right by Shift, filling with the sign bit.
    std::vector<V> Fill;
    for (uint16_t I = 0; I != Shift; ++I)
      Fill.push_back(Sign);
    Fill.push_back(slice(Acc, Acc.Width - 1, Shift));
    V Shifted = concat(Fill);
    Acc = mux(bit(Amount, Stage), Shifted, Acc);
  }
  return Acc;
}

V Builder::muxN(V Sel, const std::vector<V> &Cases) {
  assert(!Cases.empty() && "muxN needs at least one case");
  // Build a balanced mux tree over the select bits, clamping past-the-end
  // selects to the final case.
  V Result = Cases.back();
  for (size_t I = Cases.size(); I-- > 1;) {
    uint64_t Index = I - 1;
    Result = mux(eqConst(Sel, Index), Cases[Index], Result);
  }
  return Result;
}

std::map<std::string, V>
Builder::instantiate(const Design &D, ModuleId Def,
                     const std::string &InstName,
                     const std::map<std::string, V> &InputBindings) {
  const Module &DefM = D.module(Def);
  SubInstance Inst;
  Inst.Def = Def;
  Inst.Name = InstName;
  for (WireId In : DefM.Inputs) {
    auto It = InputBindings.find(DefM.wireName(In));
    assert(It != InputBindings.end() && "instance input left unbound");
    assert(It->second.Width == DefM.Wires[In].Width &&
           "instance input width mismatch");
    Inst.Bindings.emplace_back(In, It->second.Id);
  }
  std::map<std::string, V> Outs;
  std::string HintBuf;
  HintBuf.reserve(InstName.size() + 16);
  for (WireId Out : DefM.Outputs) {
    HintBuf = InstName;
    HintBuf += '.';
    HintBuf += DefM.wireName(Out);
    V Local = fresh(DefM.Wires[Out].Width, HintBuf.c_str());
    Inst.Bindings.emplace_back(Out, Local.Id);
    Outs.emplace(DefM.wireName(Out), Local);
  }
  M.addInstance(std::move(Inst));
  return Outs;
}

void Builder::requireDriverFromSyncDirect(V Port) {
  PortContract C;
  C.Port = Port.Id;
  C.RequireDriverFromSyncDirect = true;
  M.Contracts.push_back(C);
}

void Builder::requireSinkToSyncDirect(V Port) {
  PortContract C;
  C.Port = Port.Id;
  C.RequireSinkToSyncDirect = true;
  M.Contracts.push_back(C);
}

Module Builder::finish() {
  for (const Register &R : M.Registers) {
    if (R.D == InvalidId) {
      std::fprintf(stderr,
                   "wiresort: register '%s' in module '%s' left undriven\n",
                   std::string(M.wireName(R.Q)).c_str(), M.Name.c_str());
      std::abort();
    }
  }
  if (auto Err = M.validate()) {
    std::fprintf(stderr, "wiresort: %s\n", Err->c_str());
    std::abort();
  }
  return std::move(M);
}
