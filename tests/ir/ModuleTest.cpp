//===- tests/ir/ModuleTest.cpp - Module/Design invariant tests ------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "gen/MegaScale.h"
#include "ir/Builder.h"
#include "ir/Circuit.h"
#include "ir/Design.h"
#include "ir/Module.h"
#include "ir/StructuralHash.h"
#include "parse/VerilogReader.h"
#include "synth/Lower.h"
#include "synth/Optimize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

using namespace wiresort;
using namespace wiresort::ir;

// A wire record owns no string and no value: a module's wires are one
// flat block, its names another and its constants a third.
static_assert(sizeof(Wire) <= 16, "a wire record is at most 16 bytes");
static_assert(std::is_trivially_copyable_v<Wire>,
              "a wire record is trivially copyable");
// Nor does a net record own its inputs or cover: they live in two flat
// arrays per module.
static_assert(sizeof(Net) <= 32 && std::is_trivially_copyable_v<Net>,
              "a net record is at most 32 bytes and trivially copyable");
// Design's module vector moves its modules when it grows.
static_assert(std::is_nothrow_move_constructible_v<Module> &&
                  std::is_nothrow_move_assignable_v<Module>,
              "moving a module cannot throw");

namespace {

/// in -> not -> out.
Module inverter() {
  Module M("inv");
  WireId In = M.addInput("a", 1);
  WireId Out = M.addOutput("y", 1);
  M.addNet(Op::Not, {In}, Out);
  return M;
}

/// Every wire name of \p M, copied out, in id order.
std::vector<std::string> wireNames(const Module &M) {
  std::vector<std::string> Names;
  for (WireId Id = 0; Id != M.numWires(); ++Id)
    Names.push_back(M.wireName(Id));
  return Names;
}

/// A module whose names mix lengths that fit a std::string's inline
/// buffer and lengths that do not.
Module mixedNames() {
  Module M("mixed");
  for (int I = 0; I != 100; ++I)
    M.addWire(I % 3 ? "w" + std::to_string(I)
                    : "a_wire_name_past_inline_length_" + std::to_string(I),
              WireKind::Basic);
  return M;
}

/// Every Const wire of \p M with its value, in id order.
std::vector<std::pair<WireId, uint64_t>> constants(const Module &M) {
  std::vector<std::pair<WireId, uint64_t>> Out;
  for (WireId Id = 0; Id != M.numWires(); ++Id)
    if (M.wire(Id).Kind == WireKind::Const)
      Out.emplace_back(Id, M.wire(Id).ConstValue);
  return Out;
}

/// Modules whose constants reach past bit 31, from each place a constant
/// wire is made: Builder literals of 17, 33 and 64 bits, a sized 64-bit
/// Verilog literal, and the opt$const wires constant folding adds.
std::vector<Module> constantModules() {
  std::vector<Module> Out;
  {
    Builder B("lits");
    const V A17 = B.input("a17", 17), A33 = B.input("a33", 33),
            A64 = B.input("a64", 64);
    B.output("y17", B.xorv(A17, B.lit(0x1b0d5, 17)));
    B.output("y33", B.xorv(A33, B.lit(0x1cafef00dull, 33)));
    B.output("y64", B.xorv(A64, B.lit(0xdeadbeefcafef00dull, 64)));
    Out.push_back(B.finish());
  }
  {
    auto File = parse::parseVerilog(
        "module v(input wire [63:0] a, output wire [63:0] y);\n"
        "  assign y = a ^ 64'hfedcba9876543210;\n"
        "endmodule\n",
        "v.v");
    EXPECT_TRUE(File.hasValue()) << File.describe();
    Out.push_back(File.hasValue() ? File->Design.module(File->Top)
                                  : Module("v"));
  }
  {
    // y = (a & 0) | b: the and folds to opt$const0, and the 1-bit const
    // wires lowering made die with the gates they fed.
    Builder B("fold");
    const V A = B.input("a", 1), Bv = B.input("b", 1);
    B.output("y", B.orv(B.andv(A, B.lit(0, 1)), Bv));
    Design D;
    const ModuleId Id = D.addModule(B.finish());
    Module Gates = synth::lower(D, Id);
    EXPECT_GT(synth::optimize(Gates).GatesFolded, 0u);
    Out.push_back(std::move(Gates));
  }
  return Out;
}

} // namespace

TEST(ModuleTest, ValidModulePasses) {
  Module M = inverter();
  EXPECT_FALSE(M.validate().has_value());
}

TEST(ModuleTest, UndrivenOutputCaughtByDesignValidate) {
  Module M("bad");
  M.addInput("a", 1);
  M.addOutput("y", 1);
  Design D;
  D.addModule(std::move(M));
  auto Err = D.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->Message.find("no driver"), std::string::npos);
  EXPECT_EQ(Err->Module, 0u);
  EXPECT_EQ(Err->Instance, DesignError::NoInstance);
}

TEST(ModuleTest, DoubleDriverRejected) {
  Module M("bad");
  WireId A = M.addInput("a", 1);
  WireId Y = M.addOutput("y", 1);
  M.addNet(Op::Buf, {A}, Y);
  M.addNet(Op::Not, {A}, Y);
  auto Err = M.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("multiple drivers"), std::string::npos);
}

TEST(ModuleTest, DrivenInputRejected) {
  Module M("bad");
  WireId A = M.addInput("a", 1);
  WireId B = M.addInput("b", 1);
  M.addNet(Op::Buf, {A}, B);
  EXPECT_TRUE(M.validate().has_value());
}

TEST(ModuleTest, WidthMismatchRejected) {
  Module M("bad");
  WireId A = M.addInput("a", 2);
  WireId B = M.addInput("b", 3);
  WireId Y = M.addOutput("y", 3);
  M.addNet(Op::And, {A, B}, Y);
  auto Err = M.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("ill-typed"), std::string::npos);
}

TEST(ModuleTest, ResultWidthRules) {
  EXPECT_EQ(Module::resultWidth(Op::And, {8, 8}, 0, 8), 8);
  EXPECT_EQ(Module::resultWidth(Op::And, {8, 4}, 0, 8), std::nullopt);
  EXPECT_EQ(Module::resultWidth(Op::Eq, {16, 16}, 0, 1), 1);
  EXPECT_EQ(Module::resultWidth(Op::Concat, {8, 8, 4}, 0, 20), 20);
  EXPECT_EQ(Module::resultWidth(Op::Mux, {1, 8, 8}, 0, 8), 8);
  EXPECT_EQ(Module::resultWidth(Op::Mux, {2, 8, 8}, 0, 8), std::nullopt);
  // Select of bits [5:2] out of 8.
  EXPECT_EQ(Module::resultWidth(Op::Select, {8}, 2, 4), 4);
  EXPECT_EQ(Module::resultWidth(Op::Select, {8}, 6, 4), std::nullopt);
}

TEST(ModuleTest, FindPortResolvesNames) {
  Module M = inverter();
  EXPECT_NE(M.findPort("a"), InvalidId);
  EXPECT_NE(M.findPort("y"), InvalidId);
  EXPECT_EQ(M.findPort("nope"), InvalidId);
  EXPECT_EQ(M.numPorts(), 2u);
}

TEST(ModuleTest, PortIndexBindsWhatFindPortBinds) {
  // Inputs before outputs, whatever the wire order, and the first port
  // with a name wins; an internal wire is not a port.
  Module M("dup");
  M.addOutput("x");
  const WireId X = M.addInput("x");
  const WireId A = M.addInput("a");
  M.addInput("a");
  const WireId Y = M.addOutput("y");
  M.addOutput("y");
  M.addWire("w", WireKind::Basic);
  const PortIndex Ports(M);
  for (const char *Name : {"x", "a", "y", "w", "nope", ""})
    EXPECT_EQ(Ports.find(M, Name), M.findPort(Name)) << Name;
  EXPECT_EQ(Ports.find(M, "x"), X);
  EXPECT_EQ(Ports.find(M, "a"), A);
  EXPECT_EQ(Ports.find(M, "y"), Y);
  EXPECT_EQ(Ports.find(M, "w"), InvalidId);

  // A module without ports, and an index built from nothing.
  const Module Empty("empty");
  EXPECT_EQ(PortIndex(Empty).find(Empty, "a"), InvalidId);
  EXPECT_EQ(PortIndex().find(M, "a"), InvalidId);
}

TEST(ModuleTest, PortIndexFindsEveryPortOfAWideModule) {
  Module M("wide");
  std::vector<std::pair<std::string, WireId>> Want;
  for (int I = 0; I != 2500; ++I)
    Want.emplace_back("i" + std::to_string(I),
                      M.addInput("i" + std::to_string(I)));
  for (int I = 0; I != 2500; ++I)
    Want.emplace_back("o" + std::to_string(I),
                      M.addOutput("o" + std::to_string(I)));
  const PortIndex Ports(M);
  // Growing the wire vector and the name buffer moves every name; the
  // index holds no views of them.
  for (int I = 0; I != 10000; ++I)
    M.addWire("n" + std::to_string(I), WireKind::Basic);
  for (const auto &[Name, Id] : Want)
    ASSERT_EQ(Ports.find(M, Name), Id) << Name;
  EXPECT_EQ(Ports.find(M, "n0"), InvalidId);
  EXPECT_EQ(Ports.find(M, "i2500"), InvalidId);
}

TEST(ModuleTest, AddWireCopiesANameThatViewsItsOwnBuffer) {
  // Every new name is a view of the module's own buffer, or is built
  // from such views, while the buffer grows from empty through several
  // reallocations: each copy must be made before the old bytes are
  // freed (a use-after-free under ASan otherwise).
  Module M("self");
  std::vector<std::string> Want;
  M.addInput("a");
  Want.push_back("a");
  for (int I = 0; I != 64; ++I) {
    const WireId Last = static_cast<WireId>(M.numWires() - 1);
    M.addWire({M.wireName(Last).tail(), "_", M.wireName(0).tail()},
              WireKind::Basic);
    Want.push_back(Want.back() + "_a");
    M.addWire(M.wireName(Last + 1).tail(), WireKind::Basic);
    Want.push_back(Want.back());
  }
  M.addOutput(M.wireName(1).tail());
  Want.push_back(Want[1]);
  EXPECT_EQ(wireNames(M), Want);
  EXPECT_EQ(M.findPort(Want[1]), M.Outputs[0]);
}

TEST(ModuleTest, CopiesAndMovesKeepEveryName) {
  Module M = mixedNames();
  const std::vector<std::string> Want = wireNames(M);

  Module Copy(M);
  EXPECT_EQ(wireNames(Copy), Want);
  Module Assigned = inverter();
  Assigned = M;
  EXPECT_EQ(wireNames(Assigned), Want);
  Module Moved(std::move(Copy));
  EXPECT_EQ(wireNames(Moved), Want);
  Module MoveAssigned = inverter();
  MoveAssigned = std::move(Moved);
  EXPECT_EQ(wireNames(MoveAssigned), Want);

  // Each copy owns its names: renaming or adding to one leaves the rest.
  M.renameWire(0, "changed");
  M.addWire("extra", WireKind::Basic);
  EXPECT_EQ(wireNames(Assigned), Want);
  EXPECT_EQ(wireNames(MoveAssigned), Want);

  // Short names only, all of them inside a std::string's inline bytes.
  Module Short = inverter();
  Module ShortMoved(std::move(Short));
  EXPECT_EQ(wireNames(ShortMoved), (std::vector<std::string>{"a", "y"}));

  // A sealed top names its wires after its instances' ports, and a copy
  // keeps every name with its Instances cleared (as the shallow copy in
  // synth::hierarchicalGateCount clears them) or renamed, and after the
  // design that sealed it is gone.
  Module Cleared, Renamed;
  std::vector<std::string> WantTop;
  {
    Design D;
    std::optional<gen::MegaScaleParams> P = gen::megaScalePreset("ci-noc");
    ASSERT_TRUE(P.has_value());
    const Module &Top = D.module(gen::buildMegaScale(D, *P).Top);
    WantTop = wireNames(Top);
    Cleared = Top;
    Renamed = Top;
  }
  ASSERT_GT(WantTop.size(), 100u);
  EXPECT_EQ(WantTop.front().substr(0, 5), "c0_0.");
  Cleared.Instances.clear();
  Cleared.Instances.shrink_to_fit();
  EXPECT_EQ(wireNames(Cleared), WantTop);
  for (SubInstance &Inst : Renamed.Instances)
    Inst.Name = "renamed_past_inline_length_" + Inst.Name;
  Renamed.Instances.front().Name.clear();
  EXPECT_EQ(wireNames(Renamed), WantTop);
  Module RenamedMoved(std::move(Renamed));
  EXPECT_EQ(wireNames(RenamedMoved), WantTop);
}

TEST(ModuleTest, WideConstantsArePinned) {
  // Literal digests computed when each constant lived in its wire record:
  // moving the value out of the record must not move a summary-cache
  // key, so structuralHash must stream the same words.
  const std::vector<Module> Ms = constantModules();
  ASSERT_EQ(Ms.size(), 3u);
  const uint64_t Pinned[] = {0x4c895ba4b048e13dull, 0x82aab7dcf5d9af9bull,
                             0x213f67040b31f592ull};
  for (size_t I = 0; I != Ms.size(); ++I)
    EXPECT_EQ(structuralHash(Ms[I]), Pinned[I]) << Ms[I].Name;

  EXPECT_EQ(constants(Ms[0]),
            (std::vector<std::pair<WireId, uint64_t>>{
                {3, 0x1b0d5}, {6, 0x1cafef00d}, {9, 0xdeadbeefcafef00d}}));
  EXPECT_EQ(constants(Ms[1]),
            (std::vector<std::pair<WireId, uint64_t>>{
                {2, 0xfedcba9876543210}}));
  ASSERT_FALSE(constants(Ms[2]).empty());
  for (const auto &[Id, Value] : constants(Ms[2]))
    EXPECT_EQ(Ms[2].wireName(Id), Value ? "opt$const1" : "opt$const0");

  // Copies and moves carry each value with its wire.
  for (const Module &M : Ms) {
    const auto Want = constants(M);
    Module Copy(M);
    EXPECT_EQ(constants(Copy), Want) << M.Name;
    Module Assigned = inverter();
    Assigned = M;
    EXPECT_EQ(constants(Assigned), Want) << M.Name;
    Module Moved(std::move(Copy));
    EXPECT_EQ(constants(Moved), Want) << M.Name;
    Module MoveAssigned = inverter();
    MoveAssigned = std::move(Moved);
    EXPECT_EQ(constants(MoveAssigned), Want) << M.Name;
    EXPECT_EQ(structuralHash(MoveAssigned), structuralHash(M)) << M.Name;
  }
}

TEST(ModuleTest, ReserveWiresRefusesNamesPast4GiB) {
  // The check comes before any reservation, so nothing is allocated.
  Module M = inverter();
  EXPECT_THROW(M.reserveWires(1, size_t(1) << 32), std::length_error);
  EXPECT_THROW(M.reserveWires(1, (size_t(1) << 32) - 2), std::length_error);
  EXPECT_EQ(wireNames(M), (std::vector<std::string>{"a", "y"}));
  M.reserveWires(2, 6);
  M.addWire("b_wire", WireKind::Basic);
  EXPECT_EQ(M.wireName(2), "b_wire");
}

TEST(ModuleTest, RenameWireKeepsIdsKindsAndOtherNames) {
  Module M = inverter();
  const WireId A = M.findPort("a"), Y = M.findPort("y");
  M.renameWire(A, "an_input_renamed_past_inline_length");
  EXPECT_EQ(M.wireName(A), "an_input_renamed_past_inline_length");
  EXPECT_EQ(M.wireName(Y), "y");
  EXPECT_EQ(M.findPort("a"), InvalidId);
  EXPECT_EQ(M.findPort("an_input_renamed_past_inline_length"), A);
  EXPECT_EQ(M.wire(A).Kind, WireKind::Input);
  // The new name may view the buffer: give y a's name.
  M.renameWire(Y, M.wireName(A).tail());
  EXPECT_EQ(M.wireName(Y), "an_input_renamed_past_inline_length");
  EXPECT_EQ(M.wire(Y).Kind, WireKind::Output);
  EXPECT_EQ(M.Inputs, std::vector<WireId>{A});
  EXPECT_EQ(M.Outputs, std::vector<WireId>{Y});
  EXPECT_FALSE(M.validate().has_value());
}

TEST(ModuleTest, ModuleWithNoWires) {
  Module M("empty");
  EXPECT_EQ(M.numWires(), 0u);
  EXPECT_EQ(M.findWire(""), InvalidId);
  EXPECT_EQ(M.findPort("a"), InvalidId);
  EXPECT_FALSE(M.validate().has_value());
  Module Copy(M);
  Module Moved(std::move(Copy));
  EXPECT_EQ(Moved.numWires(), 0u);
  // An empty name takes no bytes and is still found.
  const WireId W = Moved.addWire("", WireKind::Basic);
  EXPECT_EQ(Moved.wireName(W), "");
  EXPECT_EQ(Moved.findWire(""), W);
}

TEST(ModuleTest, WireNameReadsLikeAString) {
  Module M = mixedNames();
  const WireName Name = M.wireName(0);
  const std::string Copy = Name;
  EXPECT_EQ(Copy, "a_wire_name_past_inline_length_0");
  EXPECT_EQ("'" + Name + "'", "'" + Copy + "'");
  EXPECT_EQ(Name + "$stub", Copy + "$stub");
  EXPECT_EQ(std::string("x.") + Name, "x." + Copy);
  EXPECT_EQ(Name + std::string(".y"), Copy + ".y");
  EXPECT_EQ(M.wire(1).Name, "w1");
  EXPECT_EQ(M.wire(1).Width, 1);

  // A sealed port's name, "instance.port", reads the same way.
  Design D;
  const ModuleId Inv = D.addModule(inverter());
  Circuit C(D, "top");
  C.addInstance(Inv, "an_instance_past_inline_length");
  const Module &Top = D.module(C.seal());
  const WireName Sealed = Top.wireName(Top.Inputs[0]);
  const std::string SealedCopy = Sealed;
  EXPECT_EQ(SealedCopy, "an_instance_past_inline_length.a");
  EXPECT_EQ(Sealed, "an_instance_past_inline_length.a");
  EXPECT_EQ(Sealed, SealedCopy);
  EXPECT_TRUE(Sealed == std::string_view(SealedCopy));
  EXPECT_FALSE(Sealed != SealedCopy);
  EXPECT_NE(Sealed, "an_instance_past_inline_length.y");
  EXPECT_NE(Sealed, "an_instance_past_inline_length");
  EXPECT_NE(Sealed, "a");
  EXPECT_NE(Sealed, "");
  EXPECT_EQ(Sealed.size(), SealedCopy.size());
  EXPECT_EQ(Top.wireName(Top.Outputs[0]).size(), SealedCopy.size());
  // Against other names: the same bytes in one part, or another module.
  EXPECT_EQ(Sealed, Top.wireName(Top.Inputs[0]));
  EXPECT_NE(Sealed, Top.wireName(Top.Outputs[0]));
  EXPECT_NE(Sealed, Name);
  Module Plain("plain");
  const WireId Same = Plain.addWire(SealedCopy, WireKind::Basic);
  EXPECT_EQ(Plain.wireName(Same), Sealed);
  EXPECT_EQ(Sealed, Plain.wireName(Same));
  std::ostringstream OS;
  OS << Sealed << '|' << Name;
  EXPECT_EQ(OS.str(), SealedCopy + "|" + Copy);
  EXPECT_EQ("'" + Sealed + "'", "'" + SealedCopy + "'");
  EXPECT_EQ(Sealed + "$stub", SealedCopy + "$stub");
  EXPECT_EQ(std::string("x.") + Sealed, "x." + SealedCopy);
  EXPECT_EQ(Sealed + std::string(".y"), SealedCopy + ".y");
  std::string Appended = "<";
  Appended += Sealed;
  Appended += Name;
  EXPECT_EQ(Appended, "<" + SealedCopy + Copy);

  // The same bytes split at another dot are the same name: "a" with port
  // "b.c", and "a.b" with port "c", both read "a.b.c".
  Module BC("bc"), C1("c");
  BC.addInput("b.c");
  C1.addInput("c");
  const ModuleId BCId = D.addModule(std::move(BC));
  const ModuleId CId = D.addModule(std::move(C1));
  Circuit Split(D, "split");
  Split.addInstance(BCId, "a");
  Split.addInstance(CId, "a.b");
  Split.addInstance(CId, "a.bc");
  const Module &S = D.module(Split.seal());
  const WireName ABC = S.wireName(S.Inputs[0]);
  const WireName AB_C = S.wireName(S.Inputs[1]);
  EXPECT_EQ(ABC, "a.b.c");
  EXPECT_EQ(AB_C, "a.b.c");
  EXPECT_EQ(ABC, AB_C);
  EXPECT_EQ(AB_C, ABC);
  EXPECT_NE(ABC, S.wireName(S.Inputs[2]));
  EXPECT_NE(S.wireName(S.Inputs[2]), AB_C);
}

TEST(ModuleTest, NetsReadTheirInputsAndCoversFromTheModule) {
  Module M("m");
  const WireId A = M.addInput("a");
  const WireId B = M.addInput("b");
  const WireId X = M.addWire("x", WireKind::Basic);
  const WireId Y = M.addOutput("y");
  const NetId And = M.addNet(Op::And, {A, B}, X);
  const NetId Lut = M.addNet(Op::Lut, {X, A}, Y, 0, "1110-1");
  const std::span<const WireId> AndIns = M.netInputs(M.Nets[And]);
  EXPECT_EQ(std::vector<WireId>(AndIns.begin(), AndIns.end()),
            (std::vector<WireId>{A, B}));
  EXPECT_EQ(M.netCover(M.Nets[And]).numRows(), 0u);
  ASSERT_EQ(M.netCover(M.Nets[Lut]).numRows(), 2u);
  EXPECT_EQ(M.netCover(M.Nets[Lut]).row(0), "111");
  EXPECT_EQ(M.netCover(M.Nets[Lut]).row(1), "0-1");
  EXPECT_FALSE(M.validate().has_value()) << *M.validate();

  // A copy reads the same nets from its own arrays.
  const Module Copy = M;
  M = Module();
  EXPECT_EQ(Copy.netInputs(Copy.Nets[Lut])[0], X);
  EXPECT_EQ(Copy.netCover(Copy.Nets[Lut]).bytes(), "1110-1");
}

TEST(ModuleTest, AddNetCopiesInputsAndRowsThatViewItsOwnArrays) {
  // Each net re-adds the previous one's inputs and rows, which are views
  // into the arrays the call grows: they must be copied before the old
  // arrays are freed.
  Module M("m");
  const WireId A = M.addInput("a");
  const WireId B = M.addInput("b");
  NetId Last = M.addNet(Op::Lut, {A, B}, M.addWire("w0", WireKind::Basic),
                        0, "1-1011");
  for (int I = 1; I != 200; ++I)
    Last = M.addNet(Op::Lut, M.netInputs(M.Nets[Last]),
                    M.addWire("w" + std::to_string(I), WireKind::Basic), 0,
                    M.netCover(M.Nets[Last]).bytes());
  for (const Net &N : M.Nets) {
    ASSERT_EQ(M.netInputs(N).size(), 2u);
    EXPECT_EQ(M.netInputs(N)[0], A);
    EXPECT_EQ(M.netInputs(N)[1], B);
    EXPECT_EQ(M.netCover(N).bytes(), "1-1011");
  }
}

TEST(ModuleTest, ReplaceNetRewritesInPlaceOrAppends) {
  Module M("m");
  const WireId A = M.addInput("a");
  const WireId K = M.addWire("k", WireKind::Const, 1, 1);
  const WireId X = M.addWire("x", WireKind::Basic);
  const WireId Y = M.addWire("y", WireKind::Basic);
  const WireId Z = M.addOutput("z");
  const NetId Wide = M.addNet(Op::Lut, {A, A}, X, 0, "110");
  const NetId Empty = M.addNet(Op::Lut, {}, Y, 0, "1");
  M.addNet(Op::And, {X, Y}, Z);

  // Two inputs become one in place; no input becomes one at the end.
  M.replaceNet(Wide, Op::Buf, {K});
  M.replaceNet(Empty, Op::Not, {A});
  EXPECT_EQ(M.Nets[Wide].Operation, Op::Buf);
  EXPECT_EQ(M.netInputs(M.Nets[Wide]).size(), 1u);
  EXPECT_EQ(M.netInputs(M.Nets[Wide])[0], K);
  EXPECT_EQ(M.netCover(M.Nets[Wide]).numRows(), 0u);
  EXPECT_EQ(M.Nets[Empty].Operation, Op::Not);
  EXPECT_EQ(M.netInputs(M.Nets[Empty])[0], A);
  EXPECT_EQ(M.netCover(M.Nets[Empty]).numRows(), 0u);
  EXPECT_EQ(M.netInputs(M.Nets[2])[0], X); // The other nets keep theirs.
  EXPECT_EQ(M.netInputs(M.Nets[2])[1], Y);
  EXPECT_FALSE(M.validate().has_value()) << *M.validate();
}

TEST(ModuleTest, NetRecordPastTheArraysRejected) {
  Module M("m");
  const WireId A = M.addInput("a");
  const WireId Y = M.addOutput("y");
  M.addNet(Op::Buf, {A}, Y);
  M.Nets[0].NumInputs = 2; // One input was written.
  std::optional<std::string> Err = M.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("net inputs or cover out of range"), std::string::npos)
      << *Err;
}

TEST(ModuleTest, CoverViewReadsOnAndOffSets) {
  // Rows with output 1 list where the net is 1, rows with output 0 where
  // it is 0; a cover without rows is 0.
  auto eval = [](std::string_view Rows, uint32_t Inputs, unsigned Bits) {
    return CoverView(Rows, Inputs + 1).eval([&](size_t I) {
      return ((Bits >> I) & 1) != 0;
    });
  };
  for (unsigned Bits = 0; Bits != 4; ++Bits) {
    const bool A = Bits & 1, B = Bits & 2;
    EXPECT_EQ(eval("111", 2, Bits), A && B) << Bits;
    EXPECT_EQ(eval("110", 2, Bits), !(A && B)) << Bits;
    EXPECT_EQ(eval("1-1-11", 2, Bits), A || B) << Bits;
    EXPECT_EQ(eval("0-0-00", 2, Bits), A && B) << Bits;
    EXPECT_EQ(eval("", 2, Bits), false) << Bits;
  }
  EXPECT_TRUE(eval("1", 0, 0));
  EXPECT_FALSE(eval("0", 0, 0));
  EXPECT_FALSE(CoverView("111", 3).isOffSet());
  EXPECT_TRUE(CoverView("110", 3).isOffSet());
  EXPECT_FALSE(CoverView("", 3).isOffSet());
}

TEST(DesignTest, InstanceBindingValidation) {
  Design D;
  ModuleId Inv = D.addModule(inverter());

  Module Top("top");
  WireId In = Top.addInput("x", 1);
  WireId Out = Top.addOutput("z", 1);
  SubInstance Inst;
  Inst.Def = Inv;
  Inst.Name = "u0";
  Inst.Bindings.emplace_back(D.module(Inv).findPort("a"), In);
  Inst.Bindings.emplace_back(D.module(Inv).findPort("y"), Out);
  Top.addInstance(std::move(Inst));
  D.addModule(std::move(Top));

  EXPECT_FALSE(D.validate().has_value());
}

TEST(DesignTest, UnboundInstanceInputRejected) {
  Design D;
  ModuleId Inv = D.addModule(inverter());

  Module Top("top");
  WireId Out = Top.addOutput("z", 1);
  SubInstance Inst;
  Inst.Def = Inv;
  Inst.Name = "u0";
  Inst.Bindings.emplace_back(D.module(Inv).findPort("y"), Out);
  Top.addInstance(std::move(Inst));
  D.addModule(std::move(Top));

  auto Err = D.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->Message.find("unbound"), std::string::npos);
  EXPECT_EQ(Err->Module, 1u); // The instantiating top.
  EXPECT_EQ(Err->Instance, 0u);
}

TEST(DesignTest, CyclicInstantiationRejected) {
  Design D;
  // Module 0 instantiates module 1 and vice versa.
  Module A("a");
  Module B("b");
  SubInstance IA;
  IA.Def = 1;
  IA.Name = "ub";
  A.addInstance(std::move(IA));
  SubInstance IB;
  IB.Def = 0;
  IB.Name = "ua";
  B.addInstance(std::move(IB));
  D.addModule(std::move(A));
  D.addModule(std::move(B));
  auto Err = D.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->Message.find("cyclic"), std::string::npos);
  EXPECT_EQ(Err->Module, 0u); // The first module on the cycle.
  EXPECT_EQ(Err->Instance, DesignError::NoInstance);
}

TEST(DesignTest, TopologicalModuleOrderRespectsInstantiation) {
  Design D;
  ModuleId Inv = D.addModule(inverter());
  Module Top("top");
  WireId In = Top.addInput("x", 1);
  WireId Out = Top.addOutput("z", 1);
  SubInstance Inst;
  Inst.Def = Inv;
  Inst.Name = "u0";
  Inst.Bindings.emplace_back(D.module(Inv).findPort("a"), In);
  Inst.Bindings.emplace_back(D.module(Inv).findPort("y"), Out);
  Top.addInstance(std::move(Inst));
  ModuleId TopId = D.addModule(std::move(Top));

  auto Order = D.topologicalModuleOrder();
  ASSERT_TRUE(Order.has_value());
  size_t InvPos = 0, TopPos = 0;
  for (size_t I = 0; I != Order->size(); ++I) {
    if ((*Order)[I] == Inv)
      InvPos = I;
    if ((*Order)[I] == TopId)
      TopPos = I;
  }
  EXPECT_LT(InvPos, TopPos);
}
