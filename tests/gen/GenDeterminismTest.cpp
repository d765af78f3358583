//===- tests/gen/GenDeterminismTest.cpp - Same seed, same design ----------===//
//
// Part of the wiresort project. The mega-scale generator's determinism
// contract (gen/MegaScale.h, docs/SCALE.md): generation is a pure
// function of MegaScaleParams. Two builds from the same params — in the
// same process or in two separate wiresort-mega processes — must agree
// on the fingerprint digest, the flat instance count, and the module
// count; a different seed must move the fingerprint. The metamorphic
// and determinism suites rebuild designs from params and rely on landing
// on the same bytes.
//
// The cross-process half shells out to the wiresort-mega binary named by
// $WIRESORT_MEGA (wired up by tests/CMakeLists.txt); it skips, not
// fails, when the variable is absent (e.g. running the binary by hand).
//
//===----------------------------------------------------------------------===//

#include "gen/MegaScale.h"

#include "ir/Design.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

using namespace wiresort;
using namespace wiresort::gen;
using namespace wiresort::ir;

namespace {

/// Runs \p Cmd and returns its stdout (empty on failure to spawn).
std::string runAndCapture(const std::string &Cmd) {
  std::string Out;
  FILE *Pipe = ::popen(Cmd.c_str(), "r");
  if (!Pipe)
    return Out;
  char Buf[512];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, N);
  ::pclose(Pipe);
  return Out;
}

} // namespace

TEST(GenDeterminism, SameParamsSameDesignInProcess) {
  for (const char *Name : {"ci", "ci-loop", "ci-noc", "ci-fabric"}) {
    auto Preset = megaScalePreset(Name);
    ASSERT_TRUE(Preset.has_value()) << Name;
    for (uint64_t Seed : {0ull, 7ull, 0xdeadbeefull}) {
      MegaScaleParams P = *Preset;
      P.Seed = Seed;

      Design A, B;
      MegaScaleDesign RA = buildMegaScale(A, P);
      MegaScaleDesign RB = buildMegaScale(B, P);

      EXPECT_EQ(RA.FlatInstances, RB.FlatInstances)
          << Name << " seed " << Seed;
      EXPECT_EQ(RA.UniqueModules, RB.UniqueModules)
          << Name << " seed " << Seed;
      EXPECT_EQ(A.numModules(), B.numModules())
          << Name << " seed " << Seed;
      EXPECT_EQ(fingerprint(A, RA.Top), fingerprint(B, RB.Top))
          << Name << " seed " << Seed;
    }
  }
}

TEST(GenDeterminism, DefaultSeedFingerprintsArePinned) {
  // Literal digests, not a build compared with another build: a change
  // that moves every build the same way (the generator, seal, or the
  // digest itself) must show up here.
  const std::pair<const char *, const char *> Pinned[] = {
      {"ci", "afc693f7a08b3588"},        {"ci-loop", "f161f1c0b2037c17"},
      {"ci-noc", "302943454611db9c"},    {"ci-fabric", "11ed53e275932419"},
      {"10k", "ee310d759d42f751"},       {"100k", "f2f26084dcf1eef2"},
      {"1m", "9f46a16170adf9de"},
  };
  for (const auto &[Name, Want] : Pinned) {
    auto Preset = megaScalePreset(Name);
    ASSERT_TRUE(Preset.has_value()) << Name;
    Design D;
    MegaScaleDesign R = buildMegaScale(D, *Preset);
    EXPECT_EQ(fingerprint(D, R.Top), Want) << Name;
  }
}

TEST(GenDeterminism, DifferentSeedDifferentFingerprint) {
  auto Preset = megaScalePreset("ci");
  ASSERT_TRUE(Preset.has_value());
  MegaScaleParams P = *Preset;

  P.Seed = 1;
  Design A;
  MegaScaleDesign RA = buildMegaScale(A, P);
  P.Seed = 2;
  Design B;
  MegaScaleDesign RB = buildMegaScale(B, P);
  EXPECT_NE(fingerprint(A, RA.Top), fingerprint(B, RB.Top));
}

TEST(GenDeterminism, MegaRefusesSignedCounts) {
  const char *Mega = std::getenv("WIRESORT_MEGA");
  if (!Mega || !*Mega)
    GTEST_SKIP() << "WIRESORT_MEGA not set; run under ctest";
  // A signed count is refused, not wrapped ("-1" cast to unsigned is
  // 4294967295 threads, and through strtoull a 2^64-1 ms timeout, which
  // passed the positive check). The preset is unknown too, so a build
  // that took the count would still stop before any thread pool exists;
  // the refusal must be the count's.
  const std::pair<const char *, const char *> Cases[] = {
      {"--threads", "error: --threads expects a positive count\n"},
      {"--timeout-ms", "error: --timeout-ms expects positive milliseconds\n"}};
  for (const auto &[Flag, Refusal] : Cases) {
    const std::string Cmd = std::string(Mega) + " nosuch " + Flag +
                            " -1 2>&1; echo \"exit $?\"";
    const std::string Out = runAndCapture(Cmd);
    EXPECT_NE(Out.find(Refusal), std::string::npos) << Out;
    EXPECT_NE(Out.find("exit 2\n"), std::string::npos) << Out;
  }
}

TEST(GenDeterminism, SameParamsSameFingerprintAcrossProcesses) {
  const char *Mega = std::getenv("WIRESORT_MEGA");
  if (!Mega || !*Mega)
    GTEST_SKIP() << "WIRESORT_MEGA not set; run under ctest";

  for (const char *Name : {"ci", "ci-noc", "ci-fabric"}) {
    const std::string Cmd =
        std::string(Mega) + " " + Name + " --seed 42 --fingerprint";
    const std::string First = runAndCapture(Cmd);
    const std::string Second = runAndCapture(Cmd);
    ASSERT_FALSE(First.empty()) << Cmd;
    EXPECT_EQ(First, Second) << Cmd;

    // And the separate process agrees with this process's own build.
    auto Preset = megaScalePreset(Name);
    ASSERT_TRUE(Preset.has_value()) << Name;
    MegaScaleParams P = *Preset;
    P.Seed = 42;
    Design D;
    MegaScaleDesign R = buildMegaScale(D, P);
    char Expect[256];
    std::snprintf(Expect, sizeof(Expect), "%s %llu %zu\n",
                  fingerprint(D, R.Top).c_str(),
                  static_cast<unsigned long long>(R.FlatInstances),
                  static_cast<size_t>(D.numModules()));
    EXPECT_EQ(First, std::string(Expect)) << Cmd;
  }
}
