//===- bench/bench_scalability.cpp - Section 5.5 complexity curves --------===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// Demonstrates the asymptotic claims of Section 5.5 empirically:
//
//  * 5.5.1 — module sort inference is O(|inputs| * |edges|): timing
//    sweeps over gate count (fixed inputs) and over input count (fixed
//    gates) should both look linear.
//  * 5.5.2 — whole-circuit checking is O(|conns|^2) worst case for the
//    literal Definition 3.1 pairwise check, while the production SCC
//    check is linear in connections; both are measured on growing
//    forwarding-FIFO chains (every connection port-sorted, so nothing is
//    discharged early).
//  * Mega-scale (docs/SCALE.md) — instance-count sweeps over the
//    gen::MegaScale presets, 60 to 1M flattened instances: the whole
//    wiresort-mega path, timed as generation, serial Stage-1, SCC
//    Stage-3, Circuit::seal, the fingerprint and teardown. Stage 1
//    tracks unique modules, not flat instances; seal, the fingerprint
//    and teardown track the top's ports.
//  * Summary codec — encode/decode throughput of a mega preset's
//    summaries as a wire summary stream, gated on a structurallyEqual
//    round trip.
//
// Also measures the ablation called out in DESIGN.md: pairwise vs SCC.
//
// `--json <path>` mirrors every table row into a machine-readable report
// (BENCH_scalability.json at the repo root is a committed snapshot;
// tools/run_bench.sh refreshes it), with the trace registry's counters
// appended so engine.*/wire.* land next to the timings.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "analysis/SortInference.h"
#include "analysis/SummaryEngine.h"
#include "analysis/SummaryIO.h"
#include "analysis/WellConnected.h"
#include "gen/Fifo.h"
#include "gen/MegaScale.h"
#include "gen/Random.h"
#include "ir/Builder.h"
#include "support/Table.h"

#include <cstdio>
#include <optional>
#include <random>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::bench;
using namespace wiresort::gen;
using namespace wiresort::ir;

int main(int ArgC, char **ArgV) {
  bool Quick = quickMode(ArgC, ArgV);
  const std::string JsonOut = jsonPath(ArgC, ArgV);
  JsonReport Json;
  // Metrics-only collection window: the engine.*/wire.* counters the
  // sweeps below bump are appended to the JSON report at the end.
  trace::Session Metrics(trace::SessionOptions{"", /*CollectSpans=*/false});

  // --- 5.5.1: inference time vs gate count --------------------------------
  std::printf("=== Section 5.5.1: inference scales with module size "
              "===\n\n");
  {
    Table T({"Gates (approx)", "Edges", "Infer (ms)", "ms / kGate"});
    for (uint16_t DepthLog2 : {4, 6, 8, 10, 12}) {
      if (Quick && DepthLog2 > 8)
        break;
      Design D;
      ModuleId Id =
          D.addModule(makeFifo({64, DepthLog2, /*Forwarding=*/true}));
      GateLevelRun Run = runGateLevel(D, Id);
      T.addRow({Table::withCommas(Run.PrimGates),
                Table::withCommas(Run.Gates.Nets.size()),
                Table::secondsStr(Run.InferSeconds * 1e3, 2),
                Table::secondsStr(1e6 * Run.InferSeconds /
                                      double(Run.PrimGates),
                                  3)});
      Json.beginRecord()
          .field("sweep", "inference_vs_gates")
          .field("prim_gates", static_cast<uint64_t>(Run.PrimGates))
          .field("edges", static_cast<uint64_t>(Run.Gates.Nets.size()))
          .field("infer_seconds", Run.InferSeconds);
    }
    T.print();
    std::printf("(ms/kGate roughly flat => linear in module size)\n\n");
  }

  // --- 5.5.1: inference time vs input count -------------------------------
  // Deterministic worst-case shape: every input combinationally reaches
  // one shared cone of fixed size, so total work is |inputs| * |edges|
  // exactly as Section 5.5.1 states.
  std::printf("=== Section 5.5.1: inference scales with input count "
              "===\n\n");
  {
    Table T({"Inputs", "Cone gates", "Infer (ms)", "us / input"});
    const uint16_t ConeLength = Quick ? 2000 : 20000;
    for (uint16_t Inputs : {8, 16, 32, 64, 128}) {
      Builder B("sweep_in" + std::to_string(Inputs));
      V Acc = B.lit(0, 1);
      for (uint16_t I = 0; I != Inputs; ++I)
        Acc = B.xorv(Acc, B.input("x" + std::to_string(I), 1));
      for (uint16_t G = 0; G != ConeLength; ++G)
        Acc = B.notv(Acc);
      B.output("y", Acc);
      Design D;
      D.addModule(B.finish());
      Timer T2;
      std::map<ModuleId, ModuleSummary> Out;
      if (analyzeDesign(D, Out).hasError())
        return 1;
      double Ms = T2.milliseconds();
      T.addRow({std::to_string(Inputs), std::to_string(ConeLength),
                Table::secondsStr(Ms, 3),
                Table::secondsStr(1e3 * Ms / Inputs, 2)});
      Json.beginRecord()
          .field("sweep", "inference_vs_inputs")
          .field("inputs", static_cast<uint64_t>(Inputs))
          .field("cone_gates", static_cast<uint64_t>(ConeLength))
          .field("infer_seconds", Ms / 1e3);
    }
    T.print();
    std::printf("(us/input roughly flat => linear in |inputs|)\n\n");
  }

  // --- 5.5.2: circuit check vs connection count ----------------------------
  std::printf("=== Section 5.5.2: circuit check scaling (pairwise vs "
              "SCC) ===\n\n");
  {
    Table T({"Instances", "Connections", "SCC (ms)", "Pairwise (ms)",
             "Pairwise/SCC"});
    Design D;
    ModuleId Fwd = D.addModule(makeFifo({8, 2, /*Forwarding=*/true}));
    std::map<ModuleId, ModuleSummary> Summaries;
    if (analyzeDesign(D, Summaries).hasError())
      return 1;

    for (size_t N : {50u, 100u, 200u, 400u, 800u}) {
      if (Quick && N > 200)
        break;
      Circuit Circ(D, "chain" + std::to_string(N));
      std::vector<InstId> Insts;
      for (size_t I = 0; I != N; ++I)
        Insts.push_back(Circ.addInstance(Fwd, "q" + std::to_string(I)));
      for (size_t I = 0; I + 1 != N; ++I) {
        Circ.connect(Insts[I], "v_o", Insts[I + 1], "v_i");
        Circ.connect(Insts[I], "data_o", Insts[I + 1], "data_i");
      }
      Timer SccTimer;
      CircuitCheckResult Scc = checkCircuit(Circ, Summaries);
      double SccMs = SccTimer.milliseconds();
      Timer PairTimer;
      CircuitCheckResult Pair = checkCircuitPairwise(Circ, Summaries);
      double PairMs = PairTimer.milliseconds();
      if (!Scc.WellConnected || !Pair.WellConnected)
        return 1;
      T.addRow({std::to_string(N),
                std::to_string(Circ.connections().size()),
                Table::secondsStr(SccMs, 3), Table::secondsStr(PairMs, 3),
                Table::speedupStr(PairMs / SccMs)});
      Json.beginRecord()
          .field("sweep", "check_pairwise_vs_scc")
          .field("instances", static_cast<uint64_t>(N))
          .field("connections",
                 static_cast<uint64_t>(Circ.connections().size()))
          .field("scc_seconds", SccMs / 1e3)
          .field("pairwise_seconds", PairMs / 1e3);
    }
    T.print();
    std::printf("(pairwise/SCC ratio grows with connections: the "
                "O(|conns|^2) worst case vs the linear production "
                "check)\n\n");
  }

  // --- Mega-scale: flat-instance sweeps ------------------------------------
  // The flat instance count is what a monolithic checker would expand;
  // the engine's cost scales with unique modules plus hierarchy nodes.
  std::printf("=== Mega-scale: generate, Stage 1, Stage 3, seal, "
              "fingerprint and teardown vs flat instances (docs/SCALE.md) "
              "===\n\n");
  {
    Table T({"Preset", "Flat instances", "Modules", "Gen (ms)",
             "Stage-1 (ms)", "Stage-3 (ms)", "Seal (ms)", "Fingerprint (ms)",
             "Teardown (ms)"});
    std::vector<std::string> Presets = {"ci", "10k", "100k"};
    if (!Quick) {
      Presets.push_back("100k-noc");
      Presets.push_back("100k-fabric");
      Presets.push_back("1m");
    }
    for (const std::string &Name : Presets) {
      MegaScaleParams P = *megaScalePreset(Name);
      // Held in optionals so that teardown is timed on its own.
      std::optional<Design> D(std::in_place);
      std::optional<Circuit> Circ;
      Timer GenT;
      Circ.emplace(buildMegaScaleCircuit(*D, P));
      double GenMs = GenT.milliseconds();

      // Serial Stage 1 (cache off: every run measures cold work).
      SummaryEngine Serial(EngineConfig{1, false});
      std::map<ModuleId, ModuleSummary> Summaries;
      Timer SerialT;
      support::Status SerialVerdict = Serial.analyze(*D, Summaries);
      double SerialMs = SerialT.milliseconds();
      if (SerialVerdict.hasError())
        return 1;

      // Stage-3 over the top composition (production SCC check).
      Timer CheckT;
      CircuitCheckResult Scc = checkCircuit(*Circ, Summaries);
      double CheckMs = CheckT.milliseconds();
      if (!Scc.WellConnected)
        return 1;

      // The top circuit sealed into one module (ir::Circuit::seal):
      // wiresort-mega's step before the fingerprint and flat count.
      Timer SealT;
      ModuleId Top = Circ->seal();
      double SealMs = SealT.milliseconds();
      const uint64_t Flat = flatInstanceCount(*D, Top);
      const size_t Modules = D->numModules();
      Timer FingerprintT;
      const std::string Fingerprint = fingerprint(*D, Top);
      double FingerprintMs = FingerprintT.milliseconds();

      Timer TeardownT;
      Summaries.clear();
      Circ.reset();
      D.reset();
      double TeardownMs = TeardownT.milliseconds();
      T.addRow({Name, Table::withCommas(Flat), std::to_string(Modules),
                Table::secondsStr(GenMs, 3), Table::secondsStr(SerialMs, 3),
                Table::secondsStr(CheckMs, 3), Table::secondsStr(SealMs, 3),
                Table::secondsStr(FingerprintMs, 3),
                Table::secondsStr(TeardownMs, 3)});
      Json.beginRecord()
          .field("sweep", "mega_scale")
          .field("preset", Name)
          .field("flat_instances", Flat)
          .field("modules", static_cast<uint64_t>(Modules))
          .field("fingerprint", Fingerprint)
          .field("gen_seconds", GenMs / 1e3)
          .field("serial_stage1_seconds", SerialMs / 1e3)
          .field("stage3_seconds", CheckMs / 1e3)
          .field("seal_seconds", SealMs / 1e3)
          .field("fingerprint_seconds", FingerprintMs / 1e3)
          .field("teardown_seconds", TeardownMs / 1e3);
    }
    T.print();
    std::printf("(Stage-1 cost tracks unique modules, not flat instances: "
                "the paper's per-module summary factoring at "
                "1M-instance scale)\n");
  }

  // --- Summary codec throughput: wire summary stream ------------------------
  // Encode a mega-scale preset's summaries as a StreamKind::Summaries
  // stream (one ModuleSummary record per module, the `.wsort` body
  // codec), then drain it with a Reader, gated on decoding structurally
  // equal summaries. Decode resolves every port name against the design,
  // so this row tracks name-lookup cost on wide interfaces.
  std::printf("\n=== Summary codec throughput: wire summary stream "
              "(docs/FORMATS.md) ===\n\n");
  {
    MegaScaleParams P = *megaScalePreset(Quick ? "ci" : "10k");
    Design D;
    buildMegaScale(D, P);
    SummaryEngine Serial(EngineConfig{1, true});
    std::map<ModuleId, ModuleSummary> Out;
    if (Serial.analyze(D, Out).hasError())
      return 1;

    const int Reps = Quick ? 3 : 5;
    double EncodeS = -1.0, DecodeS = -1.0;
    std::string Stream;
    for (int Rep = 0; Rep != Reps; ++Rep) {
      Timer T2;
      support::wire::Writer W;
      W.beginStream(support::wire::StreamKind::Summaries, 1);
      for (const auto &[Id, S] : Out) {
        W.beginRecord(support::wire::RecordKind::ModuleSummary);
        analysis::detail::encodeSummaryBody(W, D.module(Id), S);
        W.endRecord();
      }
      W.finish();
      std::string Bytes = W.take();
      double S = T2.seconds();
      EncodeS = EncodeS < 0.0 ? S : std::min(EncodeS, S);
      Stream = std::move(Bytes);
    }
    for (int Rep = 0; Rep != Reps; ++Rep) {
      std::map<ModuleId, ModuleSummary> Decoded;
      Timer T2;
      support::wire::Reader R(Stream);
      if (!R.readHeader())
        return 1;
      const ModuleIndex Modules(D);
      support::wire::Reader::Record Rec;
      for (;;) {
        support::wire::Reader::Item It = R.next(Rec);
        if (It == support::wire::Reader::Item::End)
          break;
        if (It != support::wire::Reader::Item::Record) {
          std::fprintf(stderr, "codec throughput: damaged stream\n");
          return 1;
        }
        if (Rec.Kind != support::wire::RecordKind::ModuleSummary)
          continue;
        support::wire::Reader::Cursor C(Rec, R);
        ModuleSummary S;
        std::string Why;
        if (!analysis::detail::decodeSummaryBody(C, D, Modules, S, Why)) {
          std::fprintf(stderr, "codec throughput: %s\n", Why.c_str());
          return 1;
        }
        Decoded[S.Id] = std::move(S);
      }
      double S = T2.seconds();
      // Identical-results gate: a fast decode that loses information
      // may not report a number.
      if (Decoded.size() != Out.size())
        return 1;
      for (const auto &[Id, Ref] : Out)
        if (!structurallyEqual(Ref, Decoded.at(Id)))
          return 1;
      DecodeS = DecodeS < 0.0 ? S : std::min(DecodeS, S);
    }

    const double Mb = double(Stream.size()) / 1e6;
    Table T({"Direction", "Records", "Bytes", "Best (ms)", "MB/s"});
    T.addRow({"encode", Table::withCommas(Out.size()),
              Table::withCommas(Stream.size()),
              Table::secondsStr(EncodeS * 1e3, 3),
              Table::secondsStr(Mb / EncodeS, 1)});
    T.addRow({"decode", Table::withCommas(Out.size()),
              Table::withCommas(Stream.size()),
              Table::secondsStr(DecodeS * 1e3, 3),
              Table::secondsStr(Mb / DecodeS, 1)});
    T.print();
    std::printf("(best of %d, gated on structurallyEqual round-trip)\n",
                Reps);
    Json.beginRecord()
        .field("sweep", "wire_summary_codec")
        .field("records", static_cast<uint64_t>(Out.size()))
        .field("bytes", static_cast<uint64_t>(Stream.size()))
        .field("encode_seconds", EncodeS)
        .field("decode_seconds", DecodeS)
        .field("encode_mb_s", Mb / EncodeS)
        .field("decode_mb_s", Mb / DecodeS);
  }

  (void)Metrics.finish();
  if (!JsonOut.empty()) {
    Json.appendTraceRegistry();
    if (Json.writeTo(JsonOut))
      std::printf("\nJSON report written to %s\n", JsonOut.c_str());
  }
  return 0;
}
