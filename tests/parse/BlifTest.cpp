//===- tests/parse/BlifTest.cpp - BLIF reader/writer tests ----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "parse/Blif.h"

#include "analysis/SortInference.h"
#include "gen/Fifo.h"
#include "parse/DumpDesign.h"
#include "riscv/Cpu.h"
#include "sim/Simulator.h"
#include "support/Deadline.h"
#include "support/Trace.h"
#include "support/Wire.h"
#include "synth/CycleDetect.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;
using namespace wiresort::parse;
using wiresort::test::dumpDesign;

namespace {

/// The two leaf models the hand-written hierarchy cases instantiate.
const char *const Leaves = ".model and2\n.inputs a b\n.outputs y\n"
                           ".names a b y\n11 1\n.end\n"
                           ".model inv\n.inputs a\n.outputs y\n"
                           ".names a y\n0 1\n.end\n";

/// The wire names of \p File's top model, in id order.
std::vector<std::string> topWireNames(const BlifFile &File) {
  const Module &M = File.Design.module(File.Top);
  std::vector<std::string> Names;
  for (WireId Id = 0; Id != M.numWires(); ++Id)
    Names.push_back(M.wireName(Id));
  return Names;
}

using Bindings = std::vector<std::pair<WireId, WireId>>;

/// Hands \p Check \p Text parsed three ways that must agree: plain,
/// through a cold parse cache, and replayed from that cache.
template <typename CheckFn>
void eachParse(const std::string &Text, CheckFn Check) {
  BlifParseCache Cache;
  Check(parseBlif(Text, "t.blif"));
  Check(parseBlif(Text, "t.blif", nullptr, &Cache));
  Check(parseBlif(Text, "t.blif", nullptr, &Cache));
  EXPECT_EQ(Cache.hits(), Cache.misses()); // The replay parsed nothing.
}

/// Thread counts every threaded-parse case sweeps.
const unsigned ThreadCounts[] = {1, 2, 4, 8};

/// `.model Name` passing `a` to `y` through a chain of \p Gates buffers,
/// with \p Extra lines before its `.end`.
std::string leafModel(const std::string &Name, size_t Gates,
                      const std::string &Extra = "") {
  std::string S = ".model " + Name + "\n.inputs a\n.outputs y\n";
  std::string Prev = "a";
  for (size_t I = 0; I != Gates; ++I) {
    std::string Next = I + 1 == Gates ? "y" : "n" + std::to_string(I);
    S += ".names " + Prev + " " + Next + "\n1 1\n";
    Prev = Next;
  }
  return S + Extra + ".end\n";
}

/// A top (8 lines) chaining leaves l1..l4 through `.subckt` lines; its
/// first instance refers to \p FirstDef.
std::string chainTop(const std::string &FirstDef = "l1") {
  return ".model top\n.inputs a\n.outputs y\n"
         ".subckt " + FirstDef + " a=a y=t1\n"
         ".subckt l2 a=t1 y=t2\n"
         ".subckt l3 a=t2 y=t3\n"
         ".subckt l4 a=t3 y=y\n"
         ".end\n";
}

} // namespace

TEST(BlifTest, ParsesSimpleCombinationalModel) {
  const char *Text = R"(
# A half adder.
.model half_adder
.inputs a b
.outputs sum carry
.names a b sum
10 1
01 1
.names a b carry
11 1
.end
)";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  const Module &M = File->Design.module(File->Top);
  EXPECT_EQ(M.Name, "half_adder");
  EXPECT_EQ(M.Inputs.size(), 2u);
  EXPECT_EQ(M.Outputs.size(), 2u);
  EXPECT_EQ(M.Nets.size(), 2u);

  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  for (unsigned A = 0; A != 2; ++A)
    for (unsigned B = 0; B != 2; ++B) {
      S->setInput("a", A);
      S->setInput("b", B);
      S->evaluate();
      EXPECT_EQ(S->value("sum"), static_cast<uint64_t>(A ^ B));
      EXPECT_EQ(S->value("carry"), static_cast<uint64_t>(A & B));
    }
}

TEST(BlifTest, ParsesLatchesAndConstants) {
  const char *Text = R"(
.model toggler
.inputs en
.outputs q
.names one
1
.names en q nq
10 1
01 1
.latch nq q re clk 0
.end
)";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  const Module &M = File->Design.module(File->Top);
  EXPECT_EQ(M.Registers.size(), 1u);

  auto S = sim::Simulator::create(M);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("en", 1);
  S->evaluate();
  EXPECT_EQ(S->value("q"), 0u);
  S->step();
  S->evaluate();
  EXPECT_EQ(S->value("q"), 1u);
  S->step();
  S->evaluate();
  EXPECT_EQ(S->value("q"), 0u);
}

TEST(BlifTest, ParsesHierarchySubckt) {
  const char *Text = R"(
.model top
.inputs x
.outputs y
.subckt inv a=x y=mid
.subckt inv a=mid y=y
.end
.model inv
.inputs a
.outputs y
.names a y
0 1
.end
)";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  EXPECT_EQ(File->Design.numModules(), 2u);
  const Module &Top = File->Design.module(File->Top);
  EXPECT_EQ(Top.Instances.size(), 2u);

  // Double inversion: y == x after flattening.
  Module Gates = synth::lower(File->Design, File->Top);
  auto S = sim::Simulator::create(Gates);
  ASSERT_TRUE(S.hasValue()) << S.describe();
  S->setInput("x[0]", 1);
  S->evaluate();
  EXPECT_EQ(S->value("y[0]"), 1u);
}

TEST(BlifTest, LineContinuationsAndComments) {
  const char *Text =
      ".model wide # trailing comment\n"
      ".inputs a \\\nb\n"
      ".outputs y\n"
      ".names a b y\n11 1\n.end\n";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  EXPECT_EQ(File->Design.module(File->Top).Inputs.size(), 2u);
}

TEST(BlifTest, ErrorsCarryLineNumbers) {
  {
    auto File = parseBlif(".model m\n.bogus\n.end\n", "d.blif");
    ASSERT_FALSE(File.hasValue());
    const support::Diag &Diag = File.diags().firstError();
    ASSERT_TRUE(Diag.loc().has_value());
    EXPECT_EQ(Diag.loc()->File, "d.blif");
    EXPECT_EQ(Diag.loc()->Line, 2u);
  }
  {
    auto File = parseBlif(".inputs a\n");
    ASSERT_FALSE(File.hasValue());
    EXPECT_NE(File.describe().find("before .model"), std::string::npos);
  }
  {
    auto File =
        parseBlif(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
                  ".names a y\n0 1\n.end\n");
    ASSERT_FALSE(File.hasValue());
    EXPECT_NE(File.describe().find("driven twice"), std::string::npos);
  }
}

TEST(BlifTest, CoverRowArityChecked) {
  auto File = parseBlif(".model m\n.inputs a b\n.outputs y\n"
                        ".names a b y\n1 1\n.end\n");
  ASSERT_FALSE(File.hasValue());
  EXPECT_NE(File.describe().find("arity"), std::string::npos);
}

TEST(BlifTest, RoundTripPreservesBehaviorAndLoops) {
  // Lower a forwarding FIFO, export, reimport, and compare both the
  // simulated behavior and the cycle-detection verdict.
  Design D;
  ModuleId Id = D.addModule(gen::makeFifo({4, 2, true}));
  Module Gates = synth::lower(D, Id);
  std::string Text = [&] {
    Design Flat;
    ModuleId FlatId = Flat.addModule(Gates);
    return writeBlif(Flat, FlatId);
  }();

  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  const Module &Reimported = File->Design.module(File->Top);
  EXPECT_EQ(Reimported.Registers.size(), Gates.Registers.size());

  auto S1 = sim::Simulator::create(Gates);
  ASSERT_TRUE(S1.hasValue()) << S1.describe();
  auto S2 = sim::Simulator::create(Reimported);
  ASSERT_TRUE(S2.hasValue()) << S2.describe();
  // Drive a push/pop sequence and compare outputs cycle by cycle.
  for (int Cycle = 0; Cycle != 40; ++Cycle) {
    uint64_t Push = (Cycle % 3) == 0;
    uint64_t Pop = (Cycle % 2) == 0;
    for (auto *S : {&*S1, &*S2}) {
      S->setInput("v_i[0]", Push);
      S->setInput("yumi_i[0]", Pop);
      for (int Bit = 0; Bit != 4; ++Bit)
        S->setInput("data_i[" + std::to_string(Bit) + "]",
                    (Cycle >> Bit) & 1);
    }
    S1->step();
    S2->step();
    for (WireId Out : Gates.Outputs)
      EXPECT_EQ(S1->value(Gates.wire(Out).Name),
                S2->value(Gates.wire(Out).Name))
          << Gates.wire(Out).Name;
  }

  EXPECT_FALSE(synth::detectCycles(Reimported).HasLoop);
}

TEST(BlifTest, ImportedDesignIsAnalyzable) {
  // The paper's pipeline: BLIF in, sorts out.
  const char *Text = R"(
.model fwdish
.inputs v_i
.outputs v_o
.names count_q v_i v_o
1- 1
-1 1
.latch v_i count_q re clk 0
.end
)";
  auto File = parseBlif(Text);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  std::map<ModuleId, ModuleSummary> Out;
  ASSERT_FALSE(analyzeDesign(File->Design, Out).hasError());
  const Module &M = File->Design.module(File->Top);
  EXPECT_EQ(Out.at(File->Top).sortOf(M.findPort("v_i")), Sort::ToPort);
  EXPECT_EQ(Out.at(File->Top).sortOf(M.findPort("v_o")), Sort::FromPort);
}

TEST(BlifTest, ParseCacheReplaysByteIdentically) {
  const char *Text = ".model top\n"
                     ".inputs x\n.outputs y\n"
                     ".subckt inv a=x y=mid\n"
                     ".subckt inv a=mid y=y\n"
                     ".end\n"
                     ".model inv\n"
                     ".inputs a\n.outputs y\n"
                     ".names a y\n0 1\n.end\n";
  BlifParseCache Cache;
  auto First = parseBlif(Text, "c.blif", nullptr, &Cache);
  ASSERT_TRUE(First.hasValue()) << First.describe();
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 2u); // top chunk + inv chunk
  EXPECT_EQ(Cache.size(), 2u);

  auto Second = parseBlif(Text, "c.blif", nullptr, &Cache);
  ASSERT_TRUE(Second.hasValue()) << Second.describe();
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(Cache.misses(), 2u);

  // The replayed design is the parsed design, byte for byte.
  EXPECT_EQ(writeBlif(First->Design, First->Top),
            writeBlif(Second->Design, Second->Top));
  // And identical to a cache-free parse.
  auto Plain = parseBlif(Text, "c.blif");
  ASSERT_TRUE(Plain.hasValue());
  EXPECT_EQ(writeBlif(Plain->Design, Plain->Top),
            writeBlif(Second->Design, Second->Top));
}

TEST(BlifTest, ParseCacheReparsesOnlyEditedChunk) {
  auto design = [](const char *LeafBody) {
    return std::string(".model top\n.inputs x\n.outputs y\n"
                       ".subckt leaf a=x y=y\n.end\n"
                       ".model leaf\n.inputs a\n.outputs y\n") +
           LeafBody + ".end\n";
  };
  BlifParseCache Cache;
  std::string V1 = design(".names a y\n1 1\n");
  ASSERT_TRUE(parseBlif(V1, "e.blif", nullptr, &Cache).hasValue());
  ASSERT_EQ(Cache.misses(), 2u);

  // Edit the leaf body: top replays, only the leaf chunk re-parses.
  std::string V2 = design(".names a y\n0 1\n");
  auto File = parseBlif(V2, "e.blif", nullptr, &Cache);
  ASSERT_TRUE(File.hasValue()) << File.describe();
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 3u);
  auto Plain = parseBlif(V2, "e.blif");
  ASSERT_TRUE(Plain.hasValue());
  EXPECT_EQ(writeBlif(Plain->Design, Plain->Top),
            writeBlif(File->Design, File->Top));
}

TEST(BlifTest, ParseCacheRebasesDiagnosticLines) {
  // A cached chunk replayed at a different file position must report
  // resolution diagnostics at its *new* lines — byte-identical to an
  // uncached parse of the shifted file.
  const char *Body = ".model top\n.inputs x\n.outputs y\n"
                     ".subckt nosuch a=x y=y\n.end\n";
  BlifParseCache Cache;
  auto First = parseBlif(Body, "r.blif", nullptr, &Cache);
  ASSERT_FALSE(First.hasValue());
  ASSERT_TRUE(First.diags().firstError().loc().has_value());
  EXPECT_EQ(First.diags().firstError().loc()->Line, 4u);

  // Two comment lines above shift the (unchanged, cache-hot) chunk.
  std::string Shifted = std::string("# pad\n# pad\n") + Body;
  auto Second = parseBlif(Shifted, "r.blif", nullptr, &Cache);
  ASSERT_FALSE(Second.hasValue());
  EXPECT_GE(Cache.hits(), 1u);
  ASSERT_TRUE(Second.diags().firstError().loc().has_value());
  EXPECT_EQ(Second.diags().firstError().loc()->Line, 6u);
  auto Plain = parseBlif(Shifted, "r.blif");
  EXPECT_EQ(Plain.describe(), Second.describe());
}

TEST(BlifTest, ParseCacheHonorsContinuationAcrossModelBoundary) {
  // A backslash continuation immediately before a `.model` line glues
  // the two physical lines into one logical line, so it is NOT a chunk
  // boundary; cached and plain parses must agree exactly. (Here the
  // glued line drags `.model m2` into a .names token list, which the
  // parser accepts as wire names — one model either way.)
  const char *Text = ".model m1\n"
                     ".inputs a b\n.outputs y\n"
                     ".names a b y \\\n"
                     ".model m2\n"
                     "11-- 1\n"
                     ".end\n";
  auto Plain = parseBlif(Text, "g.blif");
  BlifParseCache Cache;
  auto Cached = parseBlif(Text, "g.blif", nullptr, &Cache);
  auto Replayed = parseBlif(Text, "g.blif", nullptr, &Cache);
  ASSERT_EQ(Plain.hasValue(), Cached.hasValue());
  ASSERT_EQ(Plain.hasValue(), Replayed.hasValue());
  if (Plain.hasValue()) {
    EXPECT_EQ(Plain->Design.numModules(), 1u);
    EXPECT_EQ(writeBlif(Plain->Design, Plain->Top),
              writeBlif(Replayed->Design, Replayed->Top));
  } else {
    EXPECT_EQ(Plain.describe(), Cached.describe());
    EXPECT_EQ(Plain.describe(), Replayed.describe());
  }
}

TEST(BlifTest, ParseCacheEvictsLeastRecentlyUsedNotWholesale) {
  // Overflow evicts the coldest chunk only; the warm working set
  // survives (the daemon-residency point of the LRU — a wholesale
  // flush would cold-parse everything after one overflow).
  BlifParseCache Cache(/*MaxEntries=*/2);
  const char *A = ".model a\n.inputs i\n.outputs o\n.names i o\n1 1\n.end\n";
  const char *B = ".model b\n.inputs i\n.outputs o\n.names i o\n0 1\n.end\n";
  const char *C = ".model c\n.inputs i\n.outputs o\n.names i o\n- 1\n.end\n";
  ASSERT_TRUE(parseBlif(A, "a.blif", nullptr, &Cache).hasValue());
  ASSERT_TRUE(parseBlif(B, "b.blif", nullptr, &Cache).hasValue());
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.misses(), 2u);

  // Touch A so B becomes the least recently used...
  ASSERT_TRUE(parseBlif(A, "a.blif", nullptr, &Cache).hasValue());
  EXPECT_EQ(Cache.hits(), 1u);
  // ...then overflow with C: exactly one chunk (B) is evicted.
  ASSERT_TRUE(parseBlif(C, "c.blif", nullptr, &Cache).hasValue());
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.misses(), 3u);

  // A stayed warm across the overflow; B re-parses cold; both correct.
  auto AgainA = parseBlif(A, "a.blif", nullptr, &Cache);
  ASSERT_TRUE(AgainA.hasValue()) << AgainA.describe();
  EXPECT_EQ(Cache.hits(), 2u);
  EXPECT_EQ(AgainA->Design.module(AgainA->Top).Name, "a");
  auto AgainB = parseBlif(B, "b.blif", nullptr, &Cache);
  ASSERT_TRUE(AgainB.hasValue()) << AgainB.describe();
  EXPECT_EQ(Cache.misses(), 4u);
  EXPECT_EQ(AgainB->Design.module(AgainB->Top).Name, "b");
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(BlifTest, ParsedSocIsPinned) {
  // The lowered riscv SoC (the netlist wiresort-check users feed in),
  // dumped fact by fact: any change to a wire id, name, kind, net,
  // cover, register, instance or port order moves the digest. A parse
  // on any number of threads, cached or not, and a replay from the
  // parse cache must all give the same design.
  Design D;
  riscv::Cpu C = riscv::buildCpu(D);
  ModuleId Top = riscv::sealCpu(C);
  synth::HierLowered Low = synth::lowerHierarchical(D, Top);
  const std::string Text = writeBlif(Low.Design, Low.Top);
  const uint64_t Pinned = 0x63d6f2fd7fc754aaull;

  for (unsigned Threads : ThreadCounts) {
    SCOPED_TRACE(Threads);
    auto Plain = parseBlif(Text, "soc.blif", nullptr, nullptr, Threads);
    ASSERT_TRUE(Plain.hasValue()) << Plain.describe();
    EXPECT_EQ(Plain->Design.numModules(), 12u);
    EXPECT_EQ(support::wire::fnv1a(dumpDesign(Plain->Design)), Pinned);

    BlifParseCache Cache;
    auto Cold = parseBlif(Text, "soc.blif", nullptr, &Cache, Threads);
    ASSERT_TRUE(Cold.hasValue()) << Cold.describe();
    EXPECT_EQ(support::wire::fnv1a(dumpDesign(Cold->Design)), Pinned);
    auto Replayed = parseBlif(Text, "soc.blif", nullptr, &Cache, Threads);
    ASSERT_TRUE(Replayed.hasValue()) << Replayed.describe();
    EXPECT_EQ(Cache.hits(), 12u);
    EXPECT_EQ(Cache.misses(), 12u);
    EXPECT_EQ(support::wire::fnv1a(dumpDesign(Replayed->Design)), Pinned);
  }
}

TEST(BlifTest, FirstFailingChunkInFileOrderWinsAtEveryThreadCount) {
  // Chunk 2 and chunk 5 both fail pass 1; chunk 5 is much larger, so a
  // threaded parse starts it first and may finish it first. Chunk 2's
  // diagnostic is the one reported, as a serial parse would, with and
  // without a cache and on a cache's second look.
  const std::string Text = chainTop() + leafModel("l1", 2, ".bogus\n") +
                           leafModel("l2", 2) + leafModel("l3", 2) +
                           leafModel("l4", 400, ".latch x\n");
  // A pass-1 error in a late chunk beats the pass-2 error (an unknown
  // model) in the first.
  const std::string Late = chainTop("nosuch") + leafModel("l1", 2) +
                           leafModel("l2", 2) + leafModel("l3", 2) +
                           leafModel("l4", 2, ".latch x\n");
  auto expectDiag = [](const support::Expected<BlifFile> &File,
                       const std::string &Msg, size_t Line) {
    ASSERT_FALSE(File.hasValue());
    const support::Diag &Diag = File.diags().firstError();
    EXPECT_EQ(Diag.code(), support::DiagCode::WS201_BLIF_SYNTAX);
    EXPECT_EQ(Diag.message(), Msg);
    ASSERT_TRUE(Diag.loc().has_value());
    EXPECT_EQ(Diag.loc()->Line, Line);
    EXPECT_EQ(Diag.loc()->Col, 1u);
  };
  for (unsigned Threads : ThreadCounts) {
    SCOPED_TRACE(Threads);
    BlifParseCache Cache;
    for (BlifParseCache *C : {(BlifParseCache *)nullptr, &Cache, &Cache}) {
      expectDiag(parseBlif(Text, "f.blif", nullptr, C, Threads),
                 "unsupported directive '.bogus'", 16);
      expectDiag(parseBlif(Late, "f.blif", nullptr, C, Threads),
                 ".latch expects input and output", 40);
    }
  }
}

TEST(BlifTest, ExpiredDeadlineCancelsAtLineOneAtEveryThreadCount) {
  // Every chunk stops at its first line; chunk 1's is the one reported,
  // and a cancelled chunk never enters the cache.
  const std::string Text = chainTop() + leafModel("l1", 2) +
                           leafModel("l2", 50) + leafModel("l3", 2) +
                           leafModel("l4", 100);
  support::CancellationToken Token = support::CancellationToken::create();
  Token.cancel();
  const support::Deadline DL = support::Deadline::afterMs(0, Token);
  for (unsigned Threads : ThreadCounts) {
    SCOPED_TRACE(Threads);
    BlifParseCache Cache;
    for (BlifParseCache *C : {(BlifParseCache *)nullptr, &Cache}) {
      auto File = parseBlif(Text, "d.blif", &DL, C, Threads);
      ASSERT_FALSE(File.hasValue());
      const support::Diag &Diag = File.diags().firstError();
      EXPECT_EQ(Diag.code(), support::DiagCode::WS601_CANCELLED);
      ASSERT_TRUE(Diag.loc().has_value());
      EXPECT_EQ(Diag.loc()->Line, 1u);
    }
    EXPECT_EQ(Cache.size(), 0u);
  }
}

TEST(BlifTest, ChunkCountersMatchAtAnyThreadCount) {
  // parse.chunk.hits/misses count lookups in file order on the calling
  // thread: the same at one thread as at four, with or without a cache,
  // and through a failed parse too.
  const std::string Good = chainTop() + leafModel("l1", 2) +
                           leafModel("l2", 30) + leafModel("l3", 2) +
                           leafModel("l4", 60);
  const std::string Bad = chainTop() + leafModel("l1", 2, ".bogus\n") +
                          leafModel("l2", 30) + leafModel("l3", 2) +
                          leafModel("l4", 60);
  auto counts = [&](unsigned Threads, bool Cached) {
    trace::Session Metrics(trace::SessionOptions{"", false});
    BlifParseCache Cache;
    BlifParseCache *C = Cached ? &Cache : nullptr;
    EXPECT_TRUE(parseBlif(Good, "c.blif", nullptr, C, Threads).hasValue());
    EXPECT_FALSE(parseBlif(Bad, "c.blif", nullptr, C, Threads).hasValue());
    EXPECT_TRUE(parseBlif(Good, "c.blif", nullptr, C, Threads).hasValue());
    return std::make_pair(trace::counter("parse.chunk.hits").value(),
                          trace::counter("parse.chunk.misses").value());
  };
  EXPECT_EQ(counts(1, false), std::make_pair(uint64_t(0), uint64_t(15)));
  EXPECT_EQ(counts(4, false), counts(1, false));
  // Good: 5 misses; Bad: l1 misses, the rest hit; Good again: all hit.
  EXPECT_EQ(counts(1, true), std::make_pair(uint64_t(9), uint64_t(6)));
  EXPECT_EQ(counts(4, true), counts(1, true));
}

TEST(BlifTest, WideSubcktBindsEveryFormalInAnyOrder) {
  // A top instantiating a 4,000-port model once, formals in reverse
  // order: each formal is one name lookup, and binds its own port. The
  // model's internal wire `t` is no port.
  const size_t Half = 2000;
  auto file = [&](const std::string &ExtraPair) {
    std::string Top = ".model top\n.inputs", Wide = ".model wide\n.inputs";
    for (size_t I = 0; I != Half; ++I) {
      Top += " a" + std::to_string(I);
      Wide += " i" + std::to_string(I);
    }
    Top += "\n.outputs";
    Wide += "\n.outputs";
    for (size_t I = 0; I != Half; ++I) {
      Top += " b" + std::to_string(I);
      Wide += " o" + std::to_string(I);
    }
    Top += "\n.subckt wide";
    for (size_t I = Half; I-- != 0;)
      Top += " o" + std::to_string(I) + "=b" + std::to_string(I);
    for (size_t I = Half; I-- != 0;)
      Top += " i" + std::to_string(I) + "=a" + std::to_string(I);
    Wide += "\n.names i0 t\n1 1\n.names t o0\n1 1\n";
    for (size_t I = 1; I != Half; ++I)
      Wide += ".names i" + std::to_string(I) + " o" + std::to_string(I) +
              "\n1 1\n";
    return Top + ExtraPair + "\n.end\n" + Wide + ".end\n";
  };
  eachParse(file(""), [&](const support::Expected<BlifFile> &File) {
    ASSERT_TRUE(File.hasValue()) << File.describe();
    const Module &M = File->Design.module(File->Top);
    ASSERT_EQ(M.Instances.size(), 1u);
    const Bindings &B = M.Instances[0].Bindings;
    ASSERT_EQ(B.size(), 2 * Half);
    // Both models number their inputs 0..Half-1, outputs Half..2Half-1.
    for (WireId K = 0; K != Half; ++K) {
      const WireId Out = 2 * Half - 1 - K, In = Half - 1 - K;
      EXPECT_EQ(B[K], std::make_pair(Out, Out));
      EXPECT_EQ(B[Half + K], std::make_pair(In, In));
    }
  });
  for (const std::string Bad : {"nosuch", "t"})
    eachParse(file(" " + Bad + "=a0"),
              [&](const support::Expected<BlifFile> &File) {
                ASSERT_FALSE(File.hasValue());
                const support::Diag &Diag = File.diags().firstError();
                EXPECT_EQ(Diag.code(),
                          support::DiagCode::WS202_BLIF_STRUCTURE);
                EXPECT_EQ(Diag.message(),
                          "model 'wide' has no port '" + Bad + "'");
                ASSERT_TRUE(Diag.loc().has_value());
                EXPECT_EQ(Diag.loc()->Line, 4u);
                EXPECT_EQ(Diag.loc()->Col, 1u);
              });
}

TEST(BlifTest, SubcktActualNamedBeforeItsDriverKeepsItsId) {
  // `m` is first named on the .subckt line and driven later by .names:
  // it gets its id where .names creates it, after `k`.
  std::string Text = ".model top\n.inputs x\n.outputs y\n"
                     ".subckt inv a=m y=y\n"
                     ".names x k\n1 1\n"
                     ".names k m\n1 1\n.end\n" +
                     std::string(Leaves);
  eachParse(Text, [](const support::Expected<BlifFile> &File) {
    ASSERT_TRUE(File.hasValue()) << File.describe();
    EXPECT_EQ(topWireNames(*File),
              (std::vector<std::string>{"x", "y", "k", "m"}));
    const Module &M = File->Design.module(File->Top);
    ASSERT_EQ(M.Instances.size(), 1u);
    EXPECT_EQ(M.Instances[0].Name, "inv$0");
    EXPECT_EQ(M.Instances[0].Bindings, (Bindings{{0, 3}, {1, 1}}));
  });
}

TEST(BlifTest, SubcktOnlyActualsFollowEveryOtherWire) {
  // `p` and `q` are named only on .subckt lines. They are created after
  // every wire the model's other lines name, in subckt-then-pair order
  // (p before q, though q is bound on an earlier line than p).
  std::string Text = ".model top\n.inputs x\n.outputs y\n"
                     ".subckt and2 y=r b=p a=q\n"
                     ".subckt inv a=x y=q\n"
                     ".subckt inv a=x y=p\n"
                     ".names r t\n0 1\n"
                     ".names t y\n1 1\n.end\n" +
                     std::string(Leaves);
  eachParse(Text, [](const support::Expected<BlifFile> &File) {
    ASSERT_TRUE(File.hasValue()) << File.describe();
    EXPECT_EQ(topWireNames(*File),
              (std::vector<std::string>{"x", "y", "r", "t", "p", "q"}));
    const Module &M = File->Design.module(File->Top);
    ASSERT_EQ(M.Instances.size(), 3u);
    EXPECT_EQ(M.Instances[0].Bindings, (Bindings{{2, 2}, {1, 4}, {0, 5}}));
    EXPECT_EQ(M.Instances[1].Bindings, (Bindings{{0, 0}, {1, 5}}));
    EXPECT_EQ(M.Instances[2].Bindings, (Bindings{{0, 0}, {1, 4}}));
  });
}

TEST(BlifTest, DirectivesAfterEndBelongToTheModel) {
  // Everything up to the next .model is still `top`, .subckt lines
  // included, so `u` (named only on .subckt lines) follows `v`.
  std::string Text = ".model top\n.inputs a\n.outputs y\n"
                     ".names a t\n1 1\n.end\n"
                     ".subckt inv a=t y=u\n"
                     ".subckt inv a=u y=v\n"
                     ".names v y\n1 1\n" +
                     std::string(Leaves);
  eachParse(Text, [](const support::Expected<BlifFile> &File) {
    ASSERT_TRUE(File.hasValue()) << File.describe();
    EXPECT_EQ(File->Design.numModules(), 3u);
    EXPECT_EQ(topWireNames(*File),
              (std::vector<std::string>{"a", "y", "t", "v", "u"}));
    const Module &M = File->Design.module(File->Top);
    EXPECT_EQ(M.Nets.size(), 2u);
    ASSERT_EQ(M.Instances.size(), 2u);
    EXPECT_EQ(M.Instances[0].Bindings, (Bindings{{0, 2}, {1, 4}}));
    EXPECT_EQ(M.Instances[1].Bindings, (Bindings{{0, 4}, {1, 3}}));
  });
}

TEST(BlifTest, LatchedOutputPortGetsAnInnerRegWire) {
  auto File = parseBlif(".model m\n.inputs d\n.outputs q\n"
                        ".latch d q re clk 1\n.end\n");
  ASSERT_TRUE(File.hasValue()) << File.describe();
  EXPECT_EQ(dumpDesign(File->Design), "module m\n"
                                      "w d in 1\n"
                                      "w q out 1\n"
                                      "w q$latch reg 1\n"
                                      "buf 2\n-> 1\n"
                                      "r 0 2 1\n"
                                      "in 0\n"
                                      "out 1\n");
}

TEST(BlifTest, ContinuationTokensKeepTheirPhysicalColumns) {
  // A token on a continued line is located on its own physical line.
  auto File = parseBlif(".model m\n.inputs a \\\n   b a\n.end\n", "k.blif");
  ASSERT_FALSE(File.hasValue());
  const support::Diag &Diag = File.diags().firstError();
  EXPECT_EQ(Diag.message(), "duplicate signal 'a'");
  ASSERT_TRUE(Diag.loc().has_value());
  EXPECT_EQ(Diag.loc()->Line, 3u);
  EXPECT_EQ(Diag.loc()->Col, 6u);

  // And a bad cover row after two continued lines.
  auto Cover = parseBlif(".model m\n.inputs a b\n.outputs y\n"
                         ".names \\\n a \\\n  b y\n1 \\\n 1\n.end\n",
                         "k.blif");
  ASSERT_FALSE(Cover.hasValue());
  const support::Diag &Arity = Cover.diags().firstError();
  EXPECT_EQ(Arity.message(), "cover row arity mismatch");
  ASSERT_TRUE(Arity.loc().has_value());
  EXPECT_EQ(Arity.loc()->Line, 7u);
  EXPECT_EQ(Arity.loc()->Col, 1u);
}

TEST(BlifTest, SubcktOutputDrivenTwiceIsReportedAtTheSubckt) {
  std::string Text = ".model top\n.inputs x\n.outputs y\n"
                     ".names x y\n1 1\n"
                     ".subckt inv a=x y=y\n.end\n" +
                     std::string(Leaves);
  eachParse(Text, [](const support::Expected<BlifFile> &File) {
    ASSERT_FALSE(File.hasValue());
    const support::Diag &Diag = File.diags().firstError();
    EXPECT_EQ(Diag.code(), support::DiagCode::WS202_BLIF_STRUCTURE);
    EXPECT_EQ(Diag.message(), "signal 'y' driven twice");
    ASSERT_TRUE(Diag.loc().has_value());
    EXPECT_EQ(Diag.loc()->Line, 6u);
    EXPECT_EQ(Diag.loc()->Col, 1u);
  });
}

TEST(BlifTest, ParseCacheOutlivesTheParsedText) {
  // Cached chunks own what they keep: freeing the text a chunk was
  // parsed from must not change a later replay of an equal text.
  const std::string Text = ".model top\n.inputs x\n.outputs y\n"
                           ".subckt inv a=x y=mid\n"
                           ".subckt inv a=mid y=y\n.end\n" +
                           std::string(Leaves);
  BlifParseCache Cache;
  std::string Expected;
  {
    auto Heap = std::make_unique<std::string>(Text);
    auto First = parseBlif(*Heap, "h.blif", nullptr, &Cache);
    ASSERT_TRUE(First.hasValue()) << First.describe();
    Expected = writeBlif(First->Design, First->Top);
    std::fill(Heap->begin(), Heap->end(), '#');
  }
  EXPECT_EQ(Cache.misses(), 3u);
  const std::string Copy = Text;
  auto Second = parseBlif(Copy, "h.blif", nullptr, &Cache);
  ASSERT_TRUE(Second.hasValue()) << Second.describe();
  EXPECT_EQ(Cache.hits(), 3u);
  EXPECT_EQ(Cache.misses(), 3u);
  EXPECT_EQ(writeBlif(Second->Design, Second->Top), Expected);
}

TEST(BlifTest, SubcktMayInstantiateAModelDefinedAboveIt) {
  // Every .subckt is resolved before any model moves into the design,
  // so `b` may instantiate `a`, which the file defines above it.
  const char *Text = ".model top\n.inputs x\n.outputs y\n"
                     ".subckt b i=x o=y\n.end\n"
                     ".model a\n.inputs i\n.outputs o\n.names i o\n1 1\n.end\n"
                     ".model b\n.inputs i\n.outputs o\n"
                     ".subckt a i=i o=o\n.end\n";
  auto File = parseBlif(Text, "o.blif");
  ASSERT_TRUE(File.hasValue()) << File.describe();
  const Module &B = File->Design.module(2);
  EXPECT_EQ(B.Name, "b");
  ASSERT_EQ(B.Instances.size(), 1u);
  EXPECT_EQ(B.Instances[0].Def, 1u);
  EXPECT_EQ(B.Instances[0].Bindings, (Bindings{{0, 0}, {1, 1}}));
}
