//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++ -*-===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table benchmark binaries: sort-set
/// pretty-printing and the Yosys-style "import at gate level" pipeline
/// (the paper analyzed flattened BLIF, so the timed inference in Tables
/// 1 and 2 runs over bit-blasted modules, not RTL).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_BENCH_BENCHUTIL_H
#define WIRESORT_BENCH_BENCHUTIL_H

#include "analysis/SortInference.h"
#include "analysis/SummaryEngine.h"
#include "ir/Design.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "synth/Lower.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace wiresort::bench {

/// Per-module measurement mirroring the paper's evaluation pipeline:
/// synthesize to primitive gates (as Yosys-to-BLIF did), then time sort
/// inference over the gate-level module.
struct GateLevelRun {
  size_t PrimGates = 0;
  size_t Ports = 0;
  double InferSeconds = 0.0;
  /// Summaries the call served from the engine's cache.
  size_t CacheHits = 0;
  analysis::ModuleSummary Summary;
  ir::Module Gates;
};

/// When \p Engine is null a throwaway serial engine is used (every call
/// infers from scratch — the paper's cold-measurement methodology);
/// passing an engine lets sweeps share its cache and thread pool
/// configuration, in which case InferSeconds reflects hits.
inline GateLevelRun runGateLevel(const ir::Design &D, ir::ModuleId Id,
                                 analysis::SummaryEngine *Engine = nullptr) {
  GateLevelRun Run;
  Run.Gates = synth::lower(D, Id);
  for (const ir::Net &N : Run.Gates.Nets)
    Run.PrimGates += N.Operation != ir::Op::Buf;
  Run.Ports = Run.Gates.numPorts();

  ir::Design Flat;
  ir::ModuleId FlatId = Flat.addModule(Run.Gates);
  analysis::SummaryEngine Local(analysis::EngineConfig{1, true});
  analysis::SummaryEngine &E = Engine ? *Engine : Local;
  Timer T;
  std::map<ir::ModuleId, analysis::ModuleSummary> Out;
  analysis::AnalyzeOutcome Outcome;
  auto Loop = E.analyze(Flat, Out, {}, {}, &Outcome);
  Run.InferSeconds = T.seconds();
  Run.CacheHits = Outcome.Stats.CacheHits;
  if (!Loop.hasError())
    Run.Summary = std::move(Out.at(FlatId));
  return Run;
}

/// "{a, b}" or the empty-set glyph for port sets.
inline std::string portSetString(const ir::Module &M,
                                 const std::vector<ir::WireId> &Set) {
  if (Set.empty())
    return "{}";
  std::string Out = "{";
  for (size_t I = 0; I != Set.size(); ++I) {
    if (I)
      Out += ", ";
    Out += M.wire(Set[I]).Name;
  }
  return Out + "}";
}

/// True when the benchmark was invoked with --quick (CI-scale designs).
inline bool quickMode(int ArgC, char **ArgV) {
  for (int I = 1; I < ArgC; ++I)
    if (std::string(ArgV[I]) == "--quick")
      return true;
  return false;
}

/// The path following `--json <path>` on the command line, or "" when the
/// flag is absent. Benches that support it mirror their table rows into a
/// machine-readable JSON report there (e.g. bench_kernel writes
/// BENCH_kernel.json for the perf-trajectory tooling).
inline std::string jsonPath(int ArgC, char **ArgV) {
  for (int I = 1; I + 1 < ArgC; ++I)
    if (std::string(ArgV[I]) == "--json")
      return ArgV[I + 1];
  return {};
}

/// Tiny JSON emitter for bench reports: an array of flat objects with
/// string and number fields — just enough for trend tooling to diff runs
/// without scraping the human tables.
class JsonReport {
public:
  JsonReport &beginRecord() {
    Records.emplace_back();
    return *this;
  }
  JsonReport &field(const std::string &Key, const std::string &Value) {
    Records.back().emplace_back(Key, "\"" + escape(Value) + "\"");
    return *this;
  }
  JsonReport &field(const std::string &Key, double Value) {
    char Buf[32];
    std::snprintf(Buf, sizeof Buf, "%.9g", Value);
    Records.back().emplace_back(Key, Buf);
    return *this;
  }
  JsonReport &field(const std::string &Key, uint64_t Value) {
    Records.back().emplace_back(Key, std::to_string(Value));
    return *this;
  }

  std::string str() const {
    std::string Out = "[\n";
    for (size_t R = 0; R != Records.size(); ++R) {
      Out += "  {";
      for (size_t F = 0; F != Records[R].size(); ++F) {
        if (F)
          Out += ", ";
        Out += "\"" + escape(Records[R][F].first) +
               "\": " + Records[R][F].second;
      }
      Out += R + 1 != Records.size() ? "},\n" : "}\n";
    }
    return Out + "]\n";
  }

  /// Writes \ref str to \p Path; \returns false (with a stderr note) on
  /// I/O failure so benches can surface it without aborting the run.
  bool writeTo(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write JSON report to %s\n", Path.c_str());
      return false;
    }
    const std::string Body = str();
    const bool Ok = std::fwrite(Body.data(), 1, Body.size(), F) ==
                    Body.size();
    std::fclose(F);
    return Ok;
  }

  /// Mirrors the support::trace registry into this report: one record
  /// per counter ({"counter": name, "value": N}) and one per histogram
  /// ({"histogram": name, "count", "sum_us", "min_us", "max_us"}).
  /// Benches that run their measured section inside a metrics-only
  /// trace::Session call this after Session::finish() so the report
  /// carries the engine/kernel counters alongside the timing rows.
  JsonReport &appendTraceRegistry() {
    for (const auto &[Name, Value] : trace::counterSnapshot())
      beginRecord().field("counter", Name).field("value", Value);
    for (const trace::HistogramSnapshot &H : trace::histogramSnapshot())
      beginRecord()
          .field("histogram", H.Name)
          .field("count", H.Count)
          .field("sum_us", H.Sum)
          .field("min_us", H.Min)
          .field("max_us", H.Max);
    return *this;
  }

private:
  static std::string escape(const std::string &S) {
    std::string Out;
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    return Out;
  }

  std::vector<std::vector<std::pair<std::string, std::string>>> Records;
};

} // namespace wiresort::bench

#endif // WIRESORT_BENCH_BENCHUTIL_H
