//===- tests/analysis/CacheKeyPinTest.cpp - Pinned summary-cache keys -----===//
//
// Part of the wiresort project. A summary-cache key is
// ir::structuralHash of a module body folded with its definitions' keys,
// and a `.wscache` stream carries those keys. The cache goldens are
// written at test time, and the generator fingerprints cover no LUT
// nets, so without this suite nothing would notice a change to the IR's
// net or cover layout moving a key: every saved cache would silently go
// cold. The literals below were computed from the parsed and lowered
// designs, and must not move when the module representation changes,
// nor with the thread count analyze() hashes them on.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "gen/Fifo.h"
#include "parse/Blif.h"
#include "riscv/Cpu.h"
#include "support/Wire.h"
#include "synth/Lower.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

/// The keys analyze() reports for \p D at \p Threads threads, which
/// hash the module bodies on the call's pool.
std::vector<uint64_t> analyzedKeys(const Design &D, unsigned Threads) {
  SummaryEngine E(EngineConfig{Threads, true});
  std::map<ModuleId, ModuleSummary> Sums;
  AnalyzeOutcome Outcome;
  EXPECT_FALSE(E.analyze(D, Sums, {}, {}, &Outcome).hasError());
  return Outcome.Keys;
}

/// The riscv SoC as wiresort-check users feed it in: lowered, written as
/// BLIF and parsed back, so its 12 models carry LUT covers.
Design parsedSoc() {
  Design D;
  riscv::Cpu C = riscv::buildCpu(D);
  ModuleId Top = riscv::sealCpu(C);
  synth::HierLowered Low = synth::lowerHierarchical(D, Top);
  auto File = parse::parseBlif(parse::writeBlif(Low.Design, Low.Top),
                               "soc.blif", nullptr, nullptr, 1);
  EXPECT_TRUE(File.hasValue()) << File.describe();
  return File.hasValue() ? std::move(File->Design) : Design();
}

TEST(CacheKeyPinTest, ParsedSocKeysArePinned) {
  const Design D = parsedSoc();
  ASSERT_EQ(D.numModules(), 12u);
  // Every model but the top, which only instantiates, carries covers.
  size_t WithCovers = 0;
  for (ModuleId Id = 0; Id != D.numModules(); ++Id)
    WithCovers += std::any_of(
        D.module(Id).Nets.begin(), D.module(Id).Nets.end(),
        [](const Net &N) { return N.Operation == Op::Lut; });
  EXPECT_EQ(WithCovers, 11u);
  const std::vector<uint64_t> Pinned = {
      0x5f185197973ed976, 0x8a4f5a136a652881, 0x7f79a23fdba98dcf,
      0x5e658adf923b9e28, 0x988675f8e5d6390c, 0xe425439eb53ee29a,
      0x0e4ac9bf1fa3e875, 0xbd78b9dc4089b4cf, 0x4c4ec37147cbf183,
      0xe8ad002558184b95, 0x4a79046e1a3c6fe0, 0x77267bcf67fa189b};
  EXPECT_EQ(SummaryEngine::computeKeys(D), Pinned);
  for (unsigned Threads : {1u, 2u, 4u, 8u})
    EXPECT_EQ(analyzedKeys(D, Threads), Pinned) << Threads << " threads";
}

TEST(CacheKeyPinTest, LoweredFifoKeysArePinned) {
  // The fifo_stage1 bodies at a size a unit test can afford, and a
  // renamed twin, whose key is its original's.
  Design Rtl, D;
  for (uint16_t DepthLog2 : {8, 6})
    D.addModule(synth::lower(
        Rtl, Rtl.addModule(gen::makeFifo({64, DepthLog2, true}))));
  Module Twin = D.module(0);
  Twin.Name += "_twin";
  D.addModule(std::move(Twin));

  const std::vector<uint64_t> Keys = SummaryEngine::computeKeys(D);
  const std::vector<uint64_t> Pinned = {
      0x1b0eca9511535eed, 0xd84d07579c56ce38, 0x1b0eca9511535eed};
  EXPECT_EQ(Keys, Pinned);
  for (unsigned Threads : {1u, 2u, 4u, 8u})
    EXPECT_EQ(analyzedKeys(D, Threads), Pinned) << Threads << " threads";
}

TEST(CacheKeyPinTest, SocCacheBytesArePinned) {
  const Design D = parsedSoc();
  ASSERT_EQ(D.numModules(), 12u);
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(Threads));
    SummaryEngine E(EngineConfig{Threads, true});
    std::map<ModuleId, ModuleSummary> Sums;
    AnalyzeOutcome Outcome;
    ASSERT_FALSE(E.analyze(D, Sums, {}, {}, &Outcome).hasError());

    const std::string Path =
        ::testing::TempDir() + "/cache_key_pin.wscache";
    ASSERT_FALSE(
        SummaryEngine::saveCache(Path, D, Sums, Outcome.Keys).hasError());
    std::ifstream In(Path, std::ios::binary);
    const std::string Bytes{std::istreambuf_iterator<char>(In),
                            std::istreambuf_iterator<char>()};
    std::remove(Path.c_str());
    EXPECT_EQ(Bytes.size(), 55972u);
    EXPECT_EQ(support::wire::fnv1a(Bytes), 0x02f092df7722e6d4u);
  }
}

} // namespace
