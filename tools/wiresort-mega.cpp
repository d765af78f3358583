//===- tools/wiresort-mega.cpp - Mega-scale generate-and-check driver -----===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// Generates a gen::MegaScale design from a named preset (or explicit
// parameters) and runs the full paper pipeline over it: Stage-1 summary
// inference (serial or threaded) followed by the Stage-3 circuit check of
// the top-level composition. This is the end-to-end witness that designs
// of 100k..1M flattened instances check in seconds (docs/SCALE.md), and
// the cross-process oracle the generator-determinism suite shells out to
// (--fingerprint).
//
//   wiresort-mega 100k                       # generate + check, verdict
//   wiresort-mega ci --seed 7 --fingerprint  # digest only, no analysis
//   wiresort-mega ci-loop --json             # stable JSON verdict line
//   wiresort-mega 1m --threads 8 --quiet
//   wiresort-mega 1m --trace-out t.json      # Chrome trace events
//   wiresort-mega 1m --json --stats          # NDJSON stats record
//
// Exit-code contract (matches wiresort-check, docs/DIAGNOSTICS.md):
// 0 = well-connected, 1 = loop diagnostics, 2 = usage error or a trace
// file that cannot be written (WS501), 3 = cancelled by --timeout-ms.
// --json emits NDJSON diagnostics followed by one deterministic verdict
// line carrying the design's fingerprint and flat instance count —
// byte-stable across thread counts and processes. --trace-out and
// --stats work as in wiresort-check (docs/OBSERVABILITY.md): one
// trace::Session spans the whole run, generation to fingerprint, and
// the stats record (JSON with --json) comes once the verdict is known,
// just before the verdict line.
//
//===----------------------------------------------------------------------===//

#include "CheckFlags.h"
#include "wiresort.h"

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::gen;
using namespace wiresort::ir;

namespace {

int usage(const std::string &Why) {
  std::fprintf(stderr, "error: %s\n", Why.c_str());
  std::fprintf(
      stderr,
      "usage: wiresort-mega <preset> [--seed N] [--inject-loop]\n"
      "                     [--fingerprint] [--json] [--quiet]\n"
      "                     [--threads N] [--timeout-ms N]\n"
      "                     [--trace-out FILE] [--stats]\n"
      "presets: ci ci-loop ci-noc ci-fabric 10k 100k 100k-noc "
      "100k-fabric 1m\n");
  return 2;
}

} // namespace

int main(int ArgC, char **ArgV) {
  std::string PresetName;
  std::optional<uint64_t> SeedOverride;
  bool InjectLoop = false;
  bool FingerprintOnly = false;
  bool Json = false;
  bool Quiet = false;
  unsigned Threads = 0;
  uint64_t TimeoutMs = 0;
  std::string TraceOut;
  bool Stats = false;

  for (int I = 1; I < ArgC; ++I) {
    std::string Arg = ArgV[I];
    // The flag's value as a count, or std::nullopt when it is missing or
    // no count.
    auto takeCount = [&]() -> std::optional<uint64_t> {
      return I + 1 < ArgC ? tools::parseCount<uint64_t>(ArgV[++I])
                          : std::nullopt;
    };
    if (Arg == "--seed") {
      SeedOverride = takeCount();
      if (!SeedOverride)
        return usage("--seed expects a number");
    } else if (Arg == "--inject-loop") {
      InjectLoop = true;
    } else if (Arg == "--fingerprint") {
      FingerprintOnly = true;
    } else if (Arg == "--json") {
      Json = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--threads") {
      const std::optional<unsigned> Count =
          I + 1 < ArgC ? tools::parseCount(ArgV[++I]) : std::nullopt;
      if (!Count || *Count == 0)
        return usage("--threads expects a positive count");
      Threads = *Count;
    } else if (Arg == "--timeout-ms") {
      const std::optional<uint64_t> Ms = takeCount();
      if (!Ms || *Ms == 0)
        return usage("--timeout-ms expects positive milliseconds");
      TimeoutMs = *Ms;
    } else if (Arg == "--trace-out") {
      if (!tools::takeValue(ArgC, ArgV, I, TraceOut))
        return usage("--trace-out expects a file");
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      return usage("unknown option '" + Arg + "'");
    } else if (PresetName.empty()) {
      PresetName = Arg;
    } else {
      return usage("more than one preset");
    }
  }
  if (PresetName.empty())
    return usage("no preset named");
  std::optional<MegaScaleParams> Preset = megaScalePreset(PresetName);
  if (!Preset)
    return usage("unknown preset '" + PresetName + "'");
  MegaScaleParams P = *Preset;
  if (SeedOverride)
    P.Seed = *SeedOverride;
  if (InjectLoop)
    P.InjectLoop = true;

  auto emitDiags = [&](const support::DiagList &Ds) {
    for (const support::Diag &Dg : Ds) {
      if (Json)
        std::printf("%s\n", support::renderJson(Dg).c_str());
      else
        std::fprintf(stderr, "%s\n",
                     support::renderText(Dg, nullptr).c_str());
    }
  };

  // The collection window opens before generation, so the seal and
  // fingerprint spans land in the trace, and closes once the verdict is
  // known.
  std::optional<trace::Session> Session;
  if (Stats || !TraceOut.empty())
    Session.emplace(trace::SessionOptions{TraceOut, true});
  // Closes the session and prints the stats record, before the verdict
  // line as wiresort-check does. \returns false when the trace file
  // cannot be written, after emitting the WS501 diagnostic.
  auto finishTelemetry = [&]() {
    if (!Session)
      return true;
    const support::Status Write = Session->finish();
    if (Stats)
      std::printf("%s", Json ? (Session->statsJson() + "\n").c_str()
                             : Session->statsText().c_str());
    emitDiags(Write);
    return !Write.hasError();
  };

  // Stage 3 wants the unsealed top circuit; sealing afterwards gives the
  // fingerprint/flat-count pass its top module id. Both views describe
  // the same construction.
  Design D;
  Circuit Circ = buildMegaScaleCircuit(D, P);

  if (FingerprintOnly) {
    ModuleId Top = Circ.seal();
    const std::string FP = fingerprint(D, Top);
    const uint64_t Flat = flatInstanceCount(D, Top);
    if (!finishTelemetry())
      return 2;
    if (Json)
      std::printf("{\"preset\":\"%s\",\"seed\":%llu,\"fingerprint\":"
                  "\"%s\",\"flatInstances\":%llu,\"modules\":%zu}\n",
                  PresetName.c_str(),
                  static_cast<unsigned long long>(P.Seed), FP.c_str(),
                  static_cast<unsigned long long>(Flat),
                  static_cast<size_t>(D.numModules()));
    else
      std::printf("%s %llu %zu\n", FP.c_str(),
                  static_cast<unsigned long long>(Flat),
                  static_cast<size_t>(D.numModules()));
    return 0;
  }

  support::Deadline DL = TimeoutMs != 0
                             ? support::Deadline::afterMs(TimeoutMs)
                             : support::Deadline();

  // Stage 1 over the module library (the top circuit is not sealed yet,
  // so this summarizes exactly the instantiated definitions).
  SummaryEngine Engine(EngineConfig{Threads, true});
  std::map<ModuleId, ModuleSummary> Summaries;
  AnalyzeOutcome Outcome;
  support::Status Stage1 = Engine.analyze(D, Summaries, {}, DL, &Outcome);

  size_t Errors = 0;
  bool Cancelled = false;
  for (const support::Diag &Dg : Stage1) {
    if (Dg.severity() == support::Severity::Error)
      ++Errors;
    if (Dg.code() == support::DiagCode::WS601_CANCELLED)
      Cancelled = true;
  }
  emitDiags(Stage1);

  // Stage 3 over the top-level composition, only when every definition
  // summarized (a Stage-1 loop already decides the verdict).
  CircuitCheckResult Check;
  if (!Stage1.hasError()) {
    Check = checkCircuit(Circ, Summaries);
    for (const support::Diag &Dg : Check.Diags)
      if (Dg.severity() == support::Severity::Error)
        ++Errors;
    emitDiags(Check.Diags);
  }

  // Seal for the size/fingerprint report; analysis is already done.
  ModuleId Top = Circ.seal();
  const uint64_t Flat = flatInstanceCount(D, Top);
  const std::string FP = fingerprint(D, Top);
  const bool Ok = !Stage1.hasError() && Check.WellConnected;
  // As in wiresort-check, a trace that cannot be written fails a run
  // that was otherwise well-connected (exit 2, no verdict line); a
  // failed run keeps its verdict.
  if (!finishTelemetry() && Ok)
    return 2;

  if (Json) {
    std::printf("{\"verdict\":\"%s\",\"preset\":\"%s\",\"seed\":%llu,"
                "\"modules\":%zu,\"flatInstances\":%llu,"
                "\"fingerprint\":\"%s\",\"errors\":%zu}\n",
                Cancelled ? "cancelled" : (Ok ? "well-connected" : "error"),
                PresetName.c_str(),
                static_cast<unsigned long long>(P.Seed),
                static_cast<size_t>(D.numModules()),
                static_cast<unsigned long long>(Flat), FP.c_str(), Errors);
  } else if (!Quiet) {
    std::printf("%s: preset %s seed %llu: %llu flat instance(s), "
                "%zu unique module(s), fingerprint %s\n",
                Cancelled ? "cancelled" : (Ok ? "well-connected" : "LOOPED"),
                PresetName.c_str(),
                static_cast<unsigned long long>(P.Seed),
                static_cast<unsigned long long>(Flat),
                static_cast<size_t>(D.numModules()), FP.c_str());
    if (Ok)
      std::printf("stage 1: %zu inferred, %zu cache hit(s); stage 3: "
                  "%zu safe by sort, %zu checked\n",
                  Outcome.Stats.Inferred, Outcome.Stats.CacheHits,
                  Check.SafeBySort, Check.NeedsCheck);
  }
  if (Cancelled)
    return 3;
  return Ok ? 0 : 1;
}
