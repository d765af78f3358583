//===- tests/analysis/SummaryIOTest.cpp - Summary sidecar tests -----------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryIO.h"

#include "analysis/SortInference.h"
#include "analysis/SummaryEngine.h"
#include "analysis/WellConnected.h"
#include "gen/Catalog.h"
#include "gen/Fifo.h"
#include "gen/Random.h"
#include "gen/ShiftReg.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

using Summaries = std::map<ModuleId, ModuleSummary>;

Summaries analyzeOrDie(const Design &D) {
  Summaries Out;
  wiresort::support::Status Loop = analyzeDesign(D, Out);
  EXPECT_FALSE(Loop.hasError());
  return Out;
}

void expectEquivalent(const Design &D, const Summaries &A,
                      const Summaries &B) {
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Id, SA] : A) {
    const ModuleSummary &SB = B.at(Id);
    const Module &M = D.module(Id);
    for (WireId In : M.Inputs) {
      EXPECT_EQ(SA.sortOf(In), SB.sortOf(In)) << M.wire(In).Name;
      EXPECT_EQ(SA.outputPortSet(In), SB.outputPortSet(In))
          << M.wire(In).Name;
    }
    for (WireId Out : M.Outputs) {
      EXPECT_EQ(SA.sortOf(Out), SB.sortOf(Out)) << M.wire(Out).Name;
      EXPECT_EQ(SA.inputPortSet(Out), SB.inputPortSet(Out))
          << M.wire(Out).Name;
    }
  }
}

/// "wide": 2,000 inputs iK, each buffered to its output oK, with i0 and
/// o0 named \p In0 and \p Out0; when \p Internal, i0 reaches o0 through
/// an internal wire `t`. \p Reversed declares the ports in reverse order.
Module wideModule(bool Reversed, bool Internal, const std::string &In0 = "i0",
                  const std::string &Out0 = "o0") {
  const size_t Half = 2000;
  Module M("wide");
  std::vector<WireId> In(Half), Out(Half);
  for (size_t K = 0; K != Half; ++K) {
    const size_t I = Reversed ? Half - 1 - K : K;
    In[I] = M.addInput(I ? "i" + std::to_string(I) : In0);
  }
  for (size_t K = 0; K != Half; ++K) {
    const size_t I = Reversed ? Half - 1 - K : K;
    Out[I] = M.addOutput(I ? "o" + std::to_string(I) : Out0);
  }
  for (size_t I = 0; I != Half; ++I) {
    WireId From = In[I];
    if (I == 0 && Internal) {
      From = M.addWire("t", WireKind::Basic);
      M.addNet(Op::Buf, {In[I]}, From);
    }
    M.addNet(Op::Buf, {From}, Out[I]);
  }
  return M;
}

/// \p M's summaries as a text and as a binary sidecar.
std::pair<std::string, std::string> sidecarsOf(Module M) {
  Design D;
  D.addModule(std::move(M));
  Summaries S = analyzeOrDie(D);
  return {writeSummaries(D, S), writeSummariesBinary(D, S)};
}

} // namespace

TEST(SummaryIOTest, RoundTripFifoAndPiso) {
  Design D;
  D.addModule(gen::makeFifo({8, 2, false}));
  D.addModule(gen::makeFifo({8, 2, true}));
  D.addModule(gen::makePiso({4, 8, false}));
  Summaries Original = analyzeOrDie(D);

  std::string Text = writeSummaries(D, Original);
  auto Parsed = parseSummaries(Text, D);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.describe();
  expectEquivalent(D, Original, *Parsed);
}

TEST(SummaryIOTest, SubsortsSurviveTheTrip) {
  Design D;
  ModuleId Id = D.addModule(gen::makeAddrStage(8));
  Summaries Original = analyzeOrDie(D);
  std::string Text = writeSummaries(D, Original);
  EXPECT_NE(Text.find("from-sync direct"), std::string::npos) << Text;

  auto Parsed = parseSummaries(Text, D);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.describe();
  const Module &M = D.module(Id);
  EXPECT_EQ(Parsed->at(Id).subSortOf(M.findPort("raddr_o")),
            SubSort::Direct);
}

TEST(SummaryIOTest, ParsedSummariesDriveTheChecker) {
  // The whole point: shipping a .wsort next to opaque IP is enough to
  // check compositions.
  Design D;
  ModuleId Fwd = D.addModule(gen::makeFifo({8, 2, true}));
  Summaries Original = analyzeOrDie(D);
  std::string Text = writeSummaries(D, Original);
  auto Parsed = parseSummaries(Text, D);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.describe();

  Circuit Circ(D, "ring");
  InstId A = Circ.addInstance(Fwd, "a");
  InstId B = Circ.addInstance(Fwd, "b");
  Circ.connect(A, "v_o", B, "v_i");
  Circ.connect(B, "v_o", A, "v_i");
  EXPECT_FALSE(checkCircuit(Circ, *Parsed).WellConnected);
}

TEST(SummaryIOTest, InconsistentDeclarationsRejected) {
  Design D;
  D.addModule(gen::makeFifo({8, 2, true}));

  // v_o claims no dependencies while v_i claims to reach it.
  const char *Bad = R"(module fifo_fwd_w8_d4
  input data_i to-sync
  input v_i to-port {v_o}
  input yumi_i to-sync
  output data_o from-sync
  output v_o from-sync
  output ready_o from-sync
end
)";
  auto Parsed = parseSummaries(Bad, D);
  EXPECT_FALSE(Parsed.hasValue());
  EXPECT_NE(Parsed.describe().find("inconsistent"), std::string::npos)
      << Parsed.describe();
}

TEST(SummaryIOTest, ErrorsNameLinesAndPorts) {
  Design D;
  D.addModule(gen::makeFifo({8, 2, false}));

  // Each rejection carries a WS221 diag locating the offending line of
  // the named sidecar.
  auto expectRejected = [&](const std::string &Text, const char *Needle,
                            size_t Line) {
    auto Parsed = parseSummaries(Text, D, "decl.wsort");
    ASSERT_FALSE(Parsed.hasValue()) << Text;
    const support::Diag &Diag = Parsed.diags().firstError();
    EXPECT_EQ(Diag.code(), support::DiagCode::WS221_SUMMARY_SYNTAX);
    EXPECT_NE(Diag.message().find(Needle), std::string::npos)
        << Diag.describe();
    ASSERT_TRUE(Diag.loc().has_value());
    EXPECT_EQ(Diag.loc()->File, "decl.wsort");
    EXPECT_EQ(Diag.loc()->Line, Line);
  };
  expectRejected("module nope\nend\n", "unknown module", 1);
  expectRejected("module fifo_w8_d4\n  input bogus to-sync\nend\n",
                 "no port", 2);
  expectRejected("module fifo_w8_d4\n  input v_i to-port\nend\n",
                 "nonempty", 2);
  expectRejected("module fifo_w8_d4\n", "missing final", 1);
  // A second declaration of one port would silently replace the first.
  expectRejected("module fifo_w8_d4\n  input data_i to-sync\n"
                 "  input v_i to-sync indirect\n  input v_i to-sync direct\n"
                 "  input yumi_i to-sync\n  output data_o from-sync\n"
                 "  output v_o from-sync\n  output ready_o from-sync\nend\n",
                 "port 'v_i' declared twice", 4);
}

TEST(SummaryIOTest, WideModuleResolvesEveryNameToItsOwnPort) {
  // Sidecars written from a twin that declares the 4,000 ports in
  // reverse order resolve every name to its own port, in the text and
  // the binary reader alike. Names of a port in the twin but of the
  // internal wire `t` here are refused, as a port and as a set member.
  Design D;
  D.addModule(wideModule(/*Reversed=*/false, /*Internal=*/true));
  const Summaries Want = analyzeOrDie(D);

  const auto [Text, Bytes] =
      sidecarsOf(wideModule(/*Reversed=*/true, /*Internal=*/false));
  auto FromText = parseSummaries(Text, D);
  auto FromBinary = readSummariesBinary(Bytes, D);
  ASSERT_TRUE(FromText.hasValue()) << FromText.describe();
  ASSERT_TRUE(FromBinary.hasValue()) << FromBinary.describe();
  EXPECT_TRUE(structurallyEqual(FromText->at(0), Want.at(0)));
  EXPECT_TRUE(structurallyEqual(FromBinary->at(0), Want.at(0)));

  auto expectRefused = [&](Module Twin, const std::string &Needle) {
    const auto [TwinText, TwinBytes] = sidecarsOf(std::move(Twin));
    for (const auto &Parsed : {parseSummaries(TwinText, D),
                               readSummariesBinary(TwinBytes, D)}) {
      ASSERT_FALSE(Parsed.hasValue()) << Needle;
      EXPECT_EQ(Parsed.diags().firstError().code(),
                support::DiagCode::WS221_SUMMARY_SYNTAX);
      EXPECT_NE(Parsed.describe().find(Needle), std::string::npos)
          << Parsed.describe();
    }
  };
  expectRefused(wideModule(false, false, /*In0=*/"t"), "port 't'");
  expectRefused(wideModule(false, false, "i0", /*Out0=*/"t"),
                "unknown port 't' in set");
}

TEST(SummaryIOTest, ManyModulesResolveEachRecordToItsModule) {
  // 5,000 one-gate modules, the last named and shaped like module 7. The
  // text, binary and cache streams resolve every record to its own
  // module, and the duplicate name to the first module that has it, as
  // Design::findModule does.
  const size_t Count = 5000;
  const size_t Dup = 7;
  Design D;
  for (size_t K = 0; K != Count; ++K) {
    const size_t Shape = K + 1 == Count ? Dup : K;
    Module M("m" + std::to_string(Shape));
    WireId A = M.addInput("a");
    WireId Y = M.addOutput("y");
    if (Shape % 2) {
      WireId Q = M.addWire("q", WireKind::Reg);
      M.addRegister(A, Q);
      M.addNet(Op::Buf, {Q}, Y);
    } else {
      M.addNet(Op::Not, {A}, Y);
    }
    D.addModule(std::move(M));
  }
  SummaryEngine Cold;
  AnalyzeOutcome Written;
  Summaries Want;
  ASSERT_FALSE(Cold.analyze(D, Want, {}, {}, &Written).hasError());

  auto expectResolved = [&](const Summaries &Got) {
    EXPECT_EQ(Got.size(), Count - 1);
    EXPECT_EQ(Got.count(Count - 1), 0u);
    EXPECT_EQ(Got.count(Dup), 1u);
    for (const auto &[Id, S] : Got) {
      EXPECT_EQ(S.Id, Id);
      EXPECT_EQ(S.ModuleName, D.module(Id).Name);
      EXPECT_TRUE(structurallyEqual(S, Want.at(Id))) << S.ModuleName;
    }
  };
  auto FromText = parseSummaries(writeSummaries(D, Want), D);
  ASSERT_TRUE(FromText.hasValue()) << FromText.describe();
  expectResolved(*FromText);
  auto FromBinary = readSummariesBinary(writeSummariesBinary(D, Want), D);
  ASSERT_TRUE(FromBinary.hasValue()) << FromBinary.describe();
  expectResolved(*FromBinary);

  // Every cache record resolves and loads, so a warm engine infers
  // nothing and returns the cold summaries.
  const std::string Path = ::testing::TempDir() + "/summary_io_many.wscache";
  ASSERT_TRUE(SummaryEngine::saveCache(Path, D, Want, Written.Keys).empty());
  SummaryEngine Warm;
  auto Loaded = Warm.loadCache(Path, D);
  std::remove(Path.c_str());
  ASSERT_TRUE(Loaded.hasValue()) << Loaded.describe();
  EXPECT_EQ(Loaded->Loaded, Count);
  AnalyzeOutcome Read;
  Summaries Again;
  ASSERT_FALSE(Warm.analyze(D, Again, {}, {}, &Read).hasError());
  EXPECT_EQ(Read.Stats.CacheHits, Count);
  EXPECT_EQ(Read.Stats.Inferred, 0u);
  ASSERT_EQ(Again.size(), Count);
  for (const auto &[Id, S] : Again)
    EXPECT_TRUE(structurallyEqual(S, Want.at(Id))) << S.ModuleName;
}

TEST(SummaryIOTest, MissingPortRejected) {
  Design D;
  D.addModule(gen::makeFifo({8, 2, false}));
  const char *Partial = R"(module fifo_w8_d4
  input data_i to-sync
  output data_o from-sync
  output v_o from-sync
  output ready_o from-sync
end
)";
  auto Parsed = parseSummaries(Partial, D);
  EXPECT_FALSE(Parsed.hasValue());
  EXPECT_NE(Parsed.describe().find("missing"), std::string::npos);
}

TEST(SummaryIOTest, RandomModulesRoundTrip) {
  std::mt19937 Rng(2024);
  for (int Trial = 0; Trial != 25; ++Trial) {
    Design D;
    gen::RandomModuleParams P;
    P.NInputs = 3 + Trial % 5;
    P.NOutputs = 2 + Trial % 4;
    P.NGates = 10 + Trial;
    D.addModule(
        gen::randomModule(Rng, P, "rt" + std::to_string(Trial)));
    Summaries Original = analyzeOrDie(D);
    std::string Text = writeSummaries(D, Original);
    auto Parsed = parseSummaries(Text, D);
    ASSERT_TRUE(Parsed.hasValue()) << Parsed.describe() << "\n" << Text;
    expectEquivalent(D, Original, *Parsed);
  }
}
