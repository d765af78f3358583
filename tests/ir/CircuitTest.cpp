//===- tests/ir/CircuitTest.cpp - Circuit construction tests --------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/Circuit.h"

#include "gen/MegaScale.h"
#include "ir/Builder.h"
#include "support/Trace.h"
#include "support/Wire.h"
#include "synth/Flatten.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <unordered_map>

using namespace wiresort;
using namespace wiresort::ir;

namespace {

/// y = reg(a): the simplest sync module.
ModuleId pipeStage(Design &D, const std::string &Name) {
  Builder B(Name);
  V A = B.input("a", 8);
  B.output("y", B.reg(A, "r"));
  return D.addModule(B.finish());
}

/// The hash-map seal Circuit::seal must keep matching: one local wire
/// per driving output in first-connection order, then each instance's
/// unconnected inputs and outputs promoted in declaration order.
Module referenceSeal(const Circuit &Circ) {
  auto key = [](PortRef Ref) { return (uint64_t(Ref.Inst) << 32) | Ref.Port; };
  Module Top(Circ.name());
  std::unordered_map<uint64_t, WireId> OutWire, InWire;
  for (const Connection &C : Circ.connections())
    if (!OutWire.count(key(C.From)))
      OutWire.emplace(key(C.From),
                      Top.addWire(Circ.portLabel(C.From), WireKind::Basic,
                                  Circ.defOf(C.From.Inst)
                                      .wire(C.From.Port)
                                      .Width));
  for (const Connection &C : Circ.connections())
    InWire.emplace(key(C.To), OutWire.at(key(C.From)));
  for (InstId Inst = 0; Inst != Circ.instances().size(); ++Inst) {
    const Module &Def = Circ.defOf(Inst);
    SubInstance Sub{Circ.instances()[Inst].Def, Circ.instances()[Inst].Name,
                    {}};
    for (WireId Port : Def.Inputs) {
      auto It = InWire.find(key({Inst, Port}));
      Sub.Bindings.emplace_back(
          Port, It != InWire.end() ? It->second
                                   : Top.addInput(Circ.portLabel({Inst, Port}),
                                                  Def.wire(Port).Width));
    }
    for (WireId Port : Def.Outputs) {
      auto It = OutWire.find(key({Inst, Port}));
      Sub.Bindings.emplace_back(
          Port, It != OutWire.end()
                    ? It->second
                    : Top.addOutput(Circ.portLabel({Inst, Port}),
                                    Def.wire(Port).Width));
    }
    Top.addInstance(std::move(Sub));
  }
  return Top;
}

/// Seals \p Circ and requires the module referenceSeal builds: every
/// wire's name, kind and width, the port lists, and every instance.
/// Reports only the first mismatch of each kind, so a broken seal of a
/// large circuit stays readable.
void expectSealMatchesReference(Circuit &Circ, const std::string &What) {
  const Module Want = referenceSeal(Circ);
  const Module &Got = Circ.design().module(Circ.seal());
  EXPECT_EQ(Got.Name, Want.Name) << What;
  ASSERT_EQ(Got.Wires.size(), Want.Wires.size()) << What;
  for (WireId I = 0; I != Want.Wires.size(); ++I) {
    const WireView G = Got.wire(I), W = Want.wire(I);
    if (G.Name != W.Name || G.Kind != W.Kind || G.Width != W.Width) {
      ADD_FAILURE() << What << ": wire " << I << " is '" << G.Name
                    << "' (" << wireKindName(G.Kind) << ", " << G.Width
                    << "), want '" << W.Name << "' ("
                    << wireKindName(W.Kind) << ", " << W.Width << ")";
      break;
    }
  }
  EXPECT_EQ(Got.Inputs, Want.Inputs) << What;
  EXPECT_EQ(Got.Outputs, Want.Outputs) << What;
  ASSERT_EQ(Got.Instances.size(), Want.Instances.size()) << What;
  for (size_t I = 0; I != Want.Instances.size(); ++I) {
    const SubInstance &G = Got.Instances[I], &W = Want.Instances[I];
    if (G.Def != W.Def || G.Name != W.Name || G.Bindings != W.Bindings) {
      ADD_FAILURE() << What << ": instance " << I << " ('" << G.Name
                    << "') differs from the reference ('" << W.Name << "')";
      break;
    }
  }
}

/// Everything seal decides about \p M, in a fixed order: its wires in id
/// order (name, kind, width), its instances (definition, name,
/// bindings), then its input and output lists.
std::string dumpModule(const Module &M) {
  std::ostringstream OS;
  OS << "module " << M.Name << '\n';
  for (WireId Id = 0; Id != M.numWires(); ++Id) {
    const WireView W = M.wire(Id);
    OS << "w " << W.Name << ' ' << wireKindName(W.Kind) << ' ' << W.Width
       << '\n';
  }
  for (const SubInstance &I : M.Instances) {
    OS << "i " << I.Def << ' ' << I.Name;
    for (const auto &[Port, Local] : I.Bindings)
      OS << ' ' << Port << '=' << Local;
    OS << '\n';
  }
  OS << "in";
  for (WireId W : M.Inputs)
    OS << ' ' << W;
  OS << "\nout";
  for (WireId W : M.Outputs)
    OS << ' ' << W;
  OS << '\n';
  return OS.str();
}

} // namespace

TEST(CircuitTest, ConnectByName) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "pipe2");
  InstId U0 = C.addInstance(Stage, "u0");
  InstId U1 = C.addInstance(Stage, "u1");
  C.connect(U0, "y", U1, "a");
  EXPECT_EQ(C.connections().size(), 1u);
  EXPECT_EQ(C.portLabel(C.connections()[0].From), "u0.y");
  EXPECT_EQ(C.portLabel(C.connections()[0].To), "u1.a");
}

TEST(CircuitTest, ConnectSurvivesAnotherCircuitsSeal) {
  // Two circuits on one Design. Between A's connects on the short names
  // "a" and "y", B's seal() grows the module vector, moving every Module
  // A's port index was built over; each connection still lands on its
  // own port.
  Design D;
  const ModuleId Stage = pipeStage(D, "stage");
  Circuit A(D, "a"), B(D, "b");
  const InstId U0 = A.addInstance(Stage, "u0");
  const InstId U1 = A.addInstance(Stage, "u1");
  const InstId U2 = A.addInstance(Stage, "u2");
  B.addInstance(Stage, "v0");
  A.connect(U0, "y", U1, "a");
  const Module *Before = &D.module(Stage);
  B.seal();
  ASSERT_NE(&D.module(Stage), Before) << "seal() did not move the module";
  A.connect(U1, "y", U2, "a");
  A.connect(U2, "y", U0, "a");

  const Module &Def = D.module(Stage);
  ASSERT_EQ(A.connections().size(), 3u);
  for (const Connection &C : A.connections()) {
    EXPECT_EQ(C.From.Port, Def.findPort("y"));
    EXPECT_EQ(C.To.Port, Def.findPort("a"));
  }
  EXPECT_EQ(A.connections()[1].From.Inst, U1);
  EXPECT_EQ(A.connections()[1].To.Inst, U2);
  EXPECT_TRUE(A.isComplete());
}

TEST(CircuitTest, CompletenessDetection) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "ring");
  InstId U0 = C.addInstance(Stage, "u0");
  InstId U1 = C.addInstance(Stage, "u1");
  C.connect(U0, "y", U1, "a");
  EXPECT_FALSE(C.isComplete());
  C.connect(U1, "y", U0, "a");
  EXPECT_TRUE(C.isComplete());
}

TEST(CircuitTest, SealPromotesOpenPorts) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "pipe2");
  InstId U0 = C.addInstance(Stage, "u0");
  InstId U1 = C.addInstance(Stage, "u1");
  C.connect(U0, "y", U1, "a");
  ModuleId Top = C.seal();
  ASSERT_FALSE(D.validate().has_value());
  const Module &M = D.module(Top);
  // u0.a promoted to input, u1.y to output.
  EXPECT_EQ(M.Inputs.size(), 1u);
  EXPECT_EQ(M.Outputs.size(), 1u);
  EXPECT_EQ(M.wire(M.Inputs[0]).Name, "u0.a");
  EXPECT_EQ(M.wire(M.Outputs[0]).Name, "u1.y");
}

TEST(CircuitTest, SealedCircuitFlattensAndSimulates) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "pipe3");
  InstId U0 = C.addInstance(Stage, "u0");
  InstId U1 = C.addInstance(Stage, "u1");
  InstId U2 = C.addInstance(Stage, "u2");
  C.connect(U0, "y", U1, "a");
  C.connect(U1, "y", U2, "a");
  ModuleId Top = C.seal();

  Module Flat = synth::inlineInstances(D, Top);
  EXPECT_TRUE(Flat.Instances.empty());
  EXPECT_EQ(Flat.Registers.size(), 3u);
}

TEST(CircuitTest, FanOutSharesOneWire) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "fan");
  InstId U0 = C.addInstance(Stage, "u0");
  InstId U1 = C.addInstance(Stage, "u1");
  InstId U2 = C.addInstance(Stage, "u2");
  C.connect(U0, "y", U1, "a");
  C.connect(U0, "y", U2, "a");
  ModuleId Top = C.seal();
  ASSERT_FALSE(D.validate().has_value());
  // One shared local wire + no promoted wire for u0.y.
  const Module &M = D.module(Top);
  EXPECT_EQ(M.Inputs.size(), 1u);  // u0.a.
  EXPECT_EQ(M.Outputs.size(), 2u); // u1.y, u2.y.
}

TEST(CircuitTest, SealMatchesReferenceOnPresets) {
  for (const char *Name : {"ci", "ci-loop", "ci-noc", "ci-fabric", "10k",
                           "100k"}) {
    for (uint64_t Seed : {1ull, 2ull, 3ull}) {
      std::optional<gen::MegaScaleParams> P = gen::megaScalePreset(Name);
      ASSERT_TRUE(P.has_value()) << Name;
      P->Seed = Seed;
      Design D;
      Circuit Top = gen::buildMegaScaleCircuit(D, *P);
      expectSealMatchesReference(Top, std::string(Name) + " seed " +
                                          std::to_string(Seed));
    }
  }
}

TEST(CircuitTest, SealedTopIsPinnedOn10kPreset) {
  // gen::fingerprint leaves wire names out, and referenceSeal reads the
  // same definition port names as seal, so these digests are what pins a
  // sealed top's labels. The 10k ones were computed when every wire still
  // owned its name as a std::string. The ci-noc and ci-fabric tops name
  // their wires after the clusters' own promoted ports
  // ("c0_0.ctx_e.data_o", "c1_0.t0.u2.data_i"), so theirs pin the nested
  // names too; they were computed while every label was written out
  // whole.
  struct Pin {
    const char *Preset;
    uint64_t Seed;
    uint64_t Digest;
  };
  const Pin Pinned[] = {{"10k", 1, 0x4eb2347bc4d59b89ull},
                        {"10k", 2, 0xcff6ce64241050beull},
                        {"10k", 3, 0x6483bf297172e1e2ull},
                        {"ci-noc", 1, 0x798bb331e43f3562ull},
                        {"ci-noc", 2, 0x1f1496991b449968ull},
                        {"ci-fabric", 1, 0x91874bd38b3dd720ull},
                        {"ci-fabric", 2, 0xffd205a66498a9b4ull}};
  for (const Pin &Want : Pinned) {
    std::optional<gen::MegaScaleParams> P = gen::megaScalePreset(Want.Preset);
    ASSERT_TRUE(P.has_value());
    P->Seed = Want.Seed;
    Design D;
    Circuit Top = gen::buildMegaScaleCircuit(D, *P);
    EXPECT_EQ(support::wire::fnv1a(dumpModule(D.module(Top.seal()))),
              Want.Digest)
        << Want.Preset << " seed " << Want.Seed;
  }
}

TEST(CircuitTest, SealAndFingerprintRecordSpans) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "pipe3");
  InstId U0 = C.addInstance(Stage, "u0");
  InstId U1 = C.addInstance(Stage, "u1");
  InstId U2 = C.addInstance(Stage, "u2");
  C.connect(U0, "y", U1, "a");
  C.connect(U1, "y", U2, "a");
  trace::Session S;
  const ModuleId Top = C.seal();
  (void)gen::fingerprint(D, Top);
  ASSERT_FALSE(S.finish().hasError());

  // The seal span notes the wires it added and their names' bytes.
  const Module &M = D.module(Top);
  size_t LabelBytes = 0;
  for (WireId Id = 0; Id != M.numWires(); ++Id)
    LabelBytes += M.wireName(Id).size();
  size_t Seals = 0, Fingerprints = 0;
  for (const trace::SpanRecord &R : S.spans()) {
    if (R.Name == "ir.seal") {
      ++Seals;
      EXPECT_EQ(R.Cat, "ir");
      using Arg = std::pair<std::string, std::string>;
      EXPECT_EQ(R.Args, (std::vector<Arg>{
                            {"wires", std::to_string(M.numWires())},
                            {"label_bytes", std::to_string(LabelBytes)}}));
    }
    Fingerprints += R.Name == "gen.fingerprint";
  }
  EXPECT_EQ(Seals, 1u);
  EXPECT_EQ(Fingerprints, 1u);
  EXPECT_EQ(M.numWires(), 4u); // u0.y, u1.y, then u0.a and u2.y promoted.
}

TEST(CircuitTest, SealMatchesReferenceOnFanOut) {
  // u1.y drives three inputs, one of them listed before u0.y's only
  // sink: the shared wires still come out in first-connection order.
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "fan");
  InstId U0 = C.addInstance(Stage, "u0");
  InstId U1 = C.addInstance(Stage, "u1");
  InstId U2 = C.addInstance(Stage, "u2");
  InstId U3 = C.addInstance(Stage, "u3");
  C.connect(U1, "y", U2, "a");
  C.connect(U0, "y", U1, "a");
  C.connect(U1, "y", U3, "a");
  C.connect(U1, "y", U0, "a");
  expectSealMatchesReference(C, "fan");
  const Module &M = D.module(D.numModules() - 1);
  EXPECT_EQ(M.wire(0).Name, "u1.y");
  EXPECT_EQ(M.wire(1).Name, "u0.y");
}

TEST(CircuitTest, SealMatchesReferenceWithZeroPortInstance) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  ModuleId Empty = D.addModule(Module("empty"));
  Circuit C(D, "holes");
  InstId U0 = C.addInstance(Stage, "u0");
  C.addInstance(Empty, "e0");
  InstId U1 = C.addInstance(Stage, "u1");
  C.addInstance(Empty, "e1");
  C.connect(U0, "y", U1, "a");
  expectSealMatchesReference(C, "holes");
  ASSERT_FALSE(D.validate().has_value());
}

TEST(CircuitTest, SealMatchesReferenceWithNoConnections) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "open");
  C.addInstance(Stage, "u0");
  C.addInstance(Stage, "u1");
  expectSealMatchesReference(C, "open");
  const Module &M = D.module(D.numModules() - 1);
  EXPECT_EQ(M.Inputs.size(), 2u);
  EXPECT_EQ(M.Outputs.size(), 2u);
  EXPECT_EQ(M.wire(M.Inputs[1]).Name, "u1.a");
}

TEST(CircuitTest, SealNamesPortsOfAnInstanceNamedEmpty) {
  // An instance may be named "": its ports still read ".port", a prefix
  // of no bytes and the dot.
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "anon");
  InstId U0 = C.addInstance(Stage, "");
  InstId U1 = C.addInstance(Stage, "u1");
  C.connect(U0, "y", U1, "a");
  expectSealMatchesReference(C, "anon");
  const Module &M = D.module(D.numModules() - 1);
  ASSERT_FALSE(D.validate().has_value());
  ASSERT_EQ(M.numWires(), 3u);
  EXPECT_EQ(M.wireName(0), ".y");
  EXPECT_EQ(M.wire(M.Inputs[0]).Name, ".a");
  EXPECT_EQ(M.wire(M.Outputs[0]).Name, "u1.y");
  EXPECT_EQ(M.wireName(0).size(), 2u);
  EXPECT_EQ(M.findPort(".a"), M.Inputs[0]);
  EXPECT_EQ(M.findPort("a"), InvalidId);
  EXPECT_EQ(PortIndex(M).find(M, ".a"), M.Inputs[0]);
  EXPECT_EQ(PortIndex(M).find(M, "a"), InvalidId);
}

TEST(CircuitTest, SealedPortNamesResolveThroughFindPortAndPortIndex) {
  // A sealed tile names its ports "inst.port"; a sealed cluster names
  // them after its tiles' ports, which are themselves "inst.port" names
  // ("t0.u1.x"). Every port resolves by its name, through both lookups.
  Design D;
  std::optional<gen::MegaScaleParams> P = gen::megaScalePreset("ci");
  ASSERT_TRUE(P.has_value());
  const ModuleId TopId = gen::buildMegaScale(D, *P).Top;
  size_t Checked = 0;
  for (const char *Name : {"mega_top_tile_v0", "mega_top_cluster_v0",
                           "mega_top"}) {
    const ModuleId Id = D.findModule(Name);
    ASSERT_NE(Id, InvalidId) << Name;
    const Module &M = D.module(Id);
    ASSERT_FALSE(M.Inputs.empty()) << Name;
    const PortIndex Ports(M);
    for (const std::vector<WireId> *List : {&M.Inputs, &M.Outputs})
      for (WireId Port : *List) {
        const std::string Label = M.wireName(Port);
        ASSERT_NE(Label.find('.'), std::string::npos) << Name;
        EXPECT_EQ(M.findPort(Label), Port) << Name << ": " << Label;
        EXPECT_EQ(Ports.find(M, Label), Port) << Name << ": " << Label;
        // Neither part alone, nor the name cut short, is a port.
        const std::string Tail = Label.substr(Label.find('.') + 1);
        EXPECT_EQ(Ports.find(M, Tail), InvalidId) << Name << ": " << Tail;
        EXPECT_EQ(Ports.find(M, Label.substr(0, Label.size() - 1)),
                  InvalidId)
            << Name << ": " << Label;
        EXPECT_EQ(M.findPort(Label + "x"), InvalidId) << Name;
        ++Checked;
      }
  }
  EXPECT_GT(Checked, 50u);
  // Some of the top's ports run three instances down: cluster, tile,
  // payload ("c0_0.t0.u0.x").
  const Module &Top = D.module(TopId);
  size_t Deep = 0;
  for (WireId Port : Top.Inputs) {
    const std::string Label = Top.wireName(Port);
    Deep += std::count(Label.begin(), Label.end(), '.') == 3;
  }
  EXPECT_GT(Deep, 0u);
}

TEST(CircuitTest, RenameWireOnASealedPortGivesAPlainName) {
  Design D;
  ModuleId Stage = pipeStage(D, "stage");
  Circuit C(D, "pipe2");
  InstId U0 = C.addInstance(Stage, "u0");
  InstId U1 = C.addInstance(Stage, "u1");
  C.connect(U0, "y", U1, "a");
  const ModuleId TopId = C.seal();
  Module &M = D.module(TopId);
  const WireId In = M.Inputs[0], Out = M.Outputs[0];
  const std::vector<std::string> Before = {M.wireName(0), M.wireName(In),
                                           M.wireName(Out)};
  ASSERT_EQ(Before, (std::vector<std::string>{"u0.y", "u0.a", "u1.y"}));
  M.renameWire(In, "a_plain_input_name");
  EXPECT_EQ(M.wireName(In), "a_plain_input_name");
  EXPECT_EQ(M.wireName(In).size(), 18u);
  EXPECT_EQ(M.wireName(0), "u0.y");
  EXPECT_EQ(M.wireName(Out), "u1.y");
  EXPECT_EQ(M.findPort("a_plain_input_name"), In);
  EXPECT_EQ(M.findPort("u0.a"), InvalidId);
  EXPECT_EQ(PortIndex(M).find(M, "a_plain_input_name"), In);
  EXPECT_EQ(PortIndex(M).find(M, "u1.y"), Out);
  // Another wire's name, rendered, then a new name with a dot.
  M.renameWire(Out, std::string(M.wireName(0)));
  EXPECT_EQ(M.wireName(Out), "u0.y");
  M.renameWire(0, "u1.y");
  EXPECT_EQ(M.wireName(0), "u1.y");
  EXPECT_EQ(M.wireName(Out), "u0.y");
  EXPECT_FALSE(M.wireName(0).hasPrefix());
  EXPECT_EQ(M.wire(In).Kind, WireKind::Input);
  EXPECT_EQ(M.wire(Out).Kind, WireKind::Output);
  EXPECT_FALSE(D.validate().has_value());
}
