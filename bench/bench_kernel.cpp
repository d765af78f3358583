//===- bench/bench_kernel.cpp - Serial BFS vs bit-parallel Stage-1 --------===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// Head-to-head of the two Stage-1 reachability implementations over the
// bit-blasted corpus (the paper's Tables 1-2 methodology: modules are
// lowered to primitive gates before inference, so port counts are wire
// bits, not RTL vectors). Both columns are kernel-only: each repetition
// builds the comb graph (CombGraph::build) outside the timed region,
// and the timed region is the per-module graph analysis Stage-1 performs
// after that:
//
//  * serial — the seed implementation: CsrGraph::findCycle for the
//    combinational-loop check plus one allocating BFS per input port
//    (CombGraph::reachableOutputPorts, kept as the differential oracle),
//    neither of which freezes the graph;
//  * kernel — one CSR freeze (the ascending-ids proof plus a local
//    repair of descending edges orders the graph and settles the loop
//    verdict; docs/KERNEL.md) shared by CombGraph::findCombLoop and the
//    bit-parallel closure (CombGraph::allOutputPortSets, up to 512 input
//    ports per sweep).
//
// Kernel rows carry a per-phase breakdown (freeze / frontier discovery /
// OR-sweep) read from the kernel.* trace histograms, so a regression is
// attributable to a phase, not just a module.
//
// A second section sweeps the flat instance-adjacency graph of the
// gen::MegaScale presets — ~100k nodes for the `100k` preset — with
// 8-word (512-lane) rows against a 1-word (64-lane) baseline. The wide
// rows must reproduce the baseline's reachability bitset bit for bit
// before their timing is reported; tools/run_bench.sh commits the JSON
// as BENCH_kernel.json (reading guide: docs/SCALE.md).
//
// Both Stage-1 paths must produce identical loop verdicts and port sets;
// the bench refuses to report numbers otherwise. Sub-millisecond modules
// are re-run enough times for the clock to resolve. `--json <path>`
// mirrors the rows into a machine-readable report.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "analysis/Reachability.h"
#include "gen/Catalog.h"
#include "gen/Fifo.h"
#include "gen/MegaScale.h"
#include "support/CsrGraph.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "synth/Lower.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::bench;
using namespace wiresort::gen;
using namespace wiresort::ir;

namespace {

/// Sums of the kernel's per-phase timing histograms (docs/KERNEL.md) at
/// one instant; subtract two snapshots to attribute a timed region.
struct PhaseSums {
  uint64_t FreezeUs = 0;
  uint64_t FrontierUs = 0;
  uint64_t SweepUs = 0;
};

PhaseSums phaseSums() {
  PhaseSums P;
  for (const trace::HistogramSnapshot &H : trace::histogramSnapshot()) {
    if (H.Name == "kernel.freeze_us")
      P.FreezeUs = H.Sum;
    else if (H.Name == "kernel.frontier_us")
      P.FrontierUs = H.Sum;
    else if (H.Name == "kernel.sweep_us")
      P.SweepUs = H.Sum;
  }
  return P;
}

PhaseSums operator-(const PhaseSums &A, const PhaseSums &B) {
  return {A.FreezeUs - B.FreezeUs, A.FrontierUs - B.FrontierUs,
          A.SweepUs - B.SweepUs};
}

struct KernelRun {
  size_t Gates = 0;
  size_t Inputs = 0;
  size_t Outputs = 0;
  double SerialSeconds = 0.0;
  double KernelSeconds = 0.0;
  /// Per-rep kernel-phase attribution, microseconds.
  double FreezeUs = 0.0;
  double FrontierUs = 0.0;
  double SweepUs = 0.0;
  bool Identical = false;
};

/// The gate netlist's comb edges, as CombGraph::build lists them for a
/// module without instances.
CsrGraph netlistGraph(const Module &Gates) {
  std::vector<CsrGraph::Edge> Edges;
  for (const Net &N : Gates.Nets)
    for (WireId In : Gates.netInputs(N))
      Edges.emplace_back(In, N.Output);
  for (const Memory &Mem : Gates.Memories)
    if (!Mem.SyncRead)
      Edges.emplace_back(Mem.RAddr, Mem.RData);
  return CsrGraph(Gates.numWires(), Edges);
}

/// The serial Stage-1 analysis over an already-built comb graph (and
/// \p Shape, the same edges for the loop check): the seed's loop check
/// plus one BFS per input port. Nothing here freezes.
std::map<WireId, std::vector<WireId>> serialStage1(const Module &Gates,
                                                   const CombGraph &CG,
                                                   const CsrGraph &Shape,
                                                   bool &Loop) {
  Loop = Shape.findCycle().has_value();
  std::map<WireId, std::vector<WireId>> Sets;
  for (WireId In : Gates.Inputs)
    Sets[In] = CG.reachableOutputPorts(In);
  return Sets;
}

/// Times both cold Stage-1 paths over the gate-level form of \p M.
///
/// Every repetition rebuilds the comb graph outside the timed region so
/// the kernel path pays its freeze cold each time; repetitions are scaled
/// until the faster path accumulates enough time for the clock.
KernelRun runModule(const Module &M) {
  Design D;
  ModuleId Id = D.addModule(M);
  Module Gates = synth::lower(D, Id);

  KernelRun Run;
  for (const Net &N : Gates.Nets)
    Run.Gates += N.Operation != Op::Buf;
  Run.Inputs = Gates.Inputs.size();
  Run.Outputs = Gates.Outputs.size();

  const std::map<ModuleId, analysis::ModuleSummary> NoSubs;

  // Correctness gate first: identical port sets and loop verdicts.
  bool SerialLoop = false;
  std::map<WireId, std::vector<WireId>> Serial, Batched;
  {
    CombGraph CG = CombGraph::build(Gates, NoSubs);
    Serial = serialStage1(Gates, CG, netlistGraph(Gates), SerialLoop);
  }
  {
    CombGraph CG = CombGraph::build(Gates, NoSubs);
    const bool KernelLoop = CG.findCombLoop().has_value();
    Batched = CG.allOutputPortSets();
    Run.Identical = Serial == Batched && SerialLoop == KernelLoop;
  }
  if (!Run.Identical)
    return Run;

  // Calibrate the repetition count on the kernel path (the faster one),
  // then time both paths over the same number of cold runs.
  int Reps = 1;
  {
    CombGraph CG = CombGraph::build(Gates, NoSubs);
    Timer T;
    (void)CG.findCombLoop();
    (void)CG.allOutputPortSets();
    const double Once = T.seconds();
    Reps = static_cast<int>(
        std::clamp(0.02 / std::max(Once, 1e-7), 1.0, 2000.0));
  }

  Timer T;
  for (int R = 0; R != Reps; ++R) {
    CombGraph CG = CombGraph::build(Gates, NoSubs);
    const CsrGraph Shape = netlistGraph(Gates);
    T.restart();
    bool Loop;
    (void)serialStage1(Gates, CG, Shape, Loop);
    Run.SerialSeconds += T.seconds();
  }
  const PhaseSums Before = phaseSums();
  for (int R = 0; R != Reps; ++R) {
    CombGraph CG = CombGraph::build(Gates, NoSubs);
    T.restart();
    (void)CG.findCombLoop();
    (void)CG.allOutputPortSets();
    Run.KernelSeconds += T.seconds();
  }
  const PhaseSums Phase = phaseSums() - Before;
  Run.SerialSeconds /= Reps;
  Run.KernelSeconds /= Reps;
  Run.FreezeUs = double(Phase.FreezeUs) / Reps;
  Run.FrontierUs = double(Phase.FrontierUs) / Reps;
  Run.SweepUs = double(Phase.SweepUs) / Reps;
  return Run;
}

std::string phaseStr(const KernelRun &R) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.0f/%.0f/%.0f", R.FreezeUs, R.FrontierUs,
                R.SweepUs);
  return Buf;
}

void addRow(Table &T, JsonReport &Json, const std::string &Name,
            const KernelRun &R) {
  T.addRow({Name, Table::withCommas(R.Gates),
            std::to_string(R.Inputs) + "/" + std::to_string(R.Outputs),
            Table::secondsStr(R.SerialSeconds, 6),
            Table::secondsStr(R.KernelSeconds, 6), phaseStr(R),
            Table::speedupStr(R.SerialSeconds / R.KernelSeconds)});
  Json.beginRecord()
      .field("module", Name)
      .field("prim_gates", static_cast<uint64_t>(R.Gates))
      .field("inputs", static_cast<uint64_t>(R.Inputs))
      .field("outputs", static_cast<uint64_t>(R.Outputs))
      .field("serial_stage1_seconds", R.SerialSeconds)
      .field("kernel_stage1_seconds", R.KernelSeconds)
      .field("kernel_freeze_us", R.FreezeUs)
      .field("kernel_frontier_us", R.FrontierUs)
      .field("kernel_sweep_us", R.SweepUs)
      .field("speedup", R.SerialSeconds / R.KernelSeconds);
}

// --- MegaScale flat-graph row-width sweep ----------------------------------

/// The flat instance-adjacency graph of a (sealed) hierarchical design:
/// one node per flat instance (plus the top), an edge from each instance
/// to every direct sub-instance, and a driver->sink edge for every local
/// wire shared by two sibling instances' port bindings, replicated at
/// every level of the expansion. For the MegaScale presets this
/// reproduces the stitched grid/torus/chain at full flat scale — the
/// graph shape the kernel meets when a composition is checked whole.
CsrGraph flatInstanceGraph(const Design &D, ModuleId Top,
                           std::vector<uint32_t> &ByDepth) {
  const uint32_t N = static_cast<uint32_t>(1 + flatInstanceCount(D, Top));
  std::vector<CsrGraph::Edge> G;
  uint32_t Next = 0;
  std::vector<std::vector<uint32_t>> Levels;

  struct Rec {
    const Design &D;
    std::vector<CsrGraph::Edge> &G;
    uint32_t &Next;
    std::vector<std::vector<uint32_t>> &Levels;
    void operator()(ModuleId Id, uint32_t Self, uint32_t Depth) const {
      const Module &M = D.module(Id);
      if (Levels.size() <= Depth)
        Levels.resize(Depth + 1);
      Levels[Depth].push_back(Self);
      // Local wire -> driving child node; sinks resolved in a second
      // pass so binding order cannot matter.
      std::map<WireId, uint32_t> Driver;
      std::vector<std::pair<WireId, uint32_t>> Sinks;
      for (const SubInstance &Sub : M.Instances) {
        const uint32_t Child = ++Next;
        G.emplace_back(Self, Child);
        const Module &Def = D.module(Sub.Def);
        for (const auto &[Port, Local] : Sub.Bindings) {
          if (Def.isOutput(Port))
            Driver.emplace(Local, Child);
          else
            Sinks.emplace_back(Local, Child);
        }
        (*this)(Sub.Def, Child, Depth + 1);
      }
      for (const auto &[Local, Sink] : Sinks) {
        auto It = Driver.find(Local);
        if (It != Driver.end() && It->second != Sink)
          G.emplace_back(It->second, Sink);
      }
    }
  };
  Rec{D, G, Next, Levels}(Top, 0, 0);
  ByDepth.clear();
  for (const std::vector<uint32_t> &L : Levels)
    ByDepth.insert(ByDepth.end(), L.begin(), L.end());
  return CsrGraph(N, G);
}

struct MegaSweepResult {
  double SweepSeconds = 0.0; // full 512-source closure, per rep
  double FreezeUs = 0.0;
  double FrontierUs = 0.0;
  double SweepPhaseUs = 0.0;
  /// Chunk-major reachability bits: Bits[Chunk][Node bit lane] flattened,
  /// the canonical form two row widths are compared on.
  std::vector<uint64_t> Bits;
};

/// Sweeps \p Sources (chunked to the kernel's lane count) over \p Csr
/// with \p LaneWords-word rows and returns timing plus the full
/// reachability bitset.
MegaSweepResult megaSweep(const CsrGraph &Csr,
                          const std::vector<uint32_t> &Sources,
                          uint32_t LaneWords, int Reps) {
  MegaSweepResult R;
  ReachabilityKernel Kernel(Csr, LaneWords);
  const uint32_t Lanes = Kernel.laneCount();

  const PhaseSums Before = phaseSums();
  Timer T;
  for (int Rep = 0; Rep != Reps; ++Rep)
    for (size_t Base = 0; Base < Sources.size(); Base += Lanes) {
      const uint32_t Count = static_cast<uint32_t>(
          std::min<size_t>(Lanes, Sources.size() - Base));
      Kernel.sweep(Sources.data() + Base, Count);
    }
  R.SweepSeconds = T.seconds() / Reps;
  const PhaseSums Phase = phaseSums() - Before;

  // Untimed verification pass: record the bits in source-chunk-of-64
  // major order so every LaneWords run yields the same canonical vector
  // for the identity gate.
  for (size_t Base = 0; Base < Sources.size(); Base += Lanes) {
    const uint32_t Count = static_cast<uint32_t>(
        std::min<size_t>(Lanes, Sources.size() - Base));
    Kernel.sweep(Sources.data() + Base, Count);
    for (uint32_t Word = 0; Word != (Count + 63) / 64; ++Word)
      for (uint32_t Node = 0; Node != Csr.numNodes(); ++Node)
        R.Bits.push_back(Kernel.row(Node)[Word]);
  }
  R.FreezeUs = double(Phase.FreezeUs) / Reps;
  R.FrontierUs = double(Phase.FrontierUs) / Reps;
  R.SweepPhaseUs = double(Phase.SweepUs) / Reps;
  return R;
}

/// One JSON record of the row-width comparison.
void addMegaRecord(JsonReport &Json, const std::string &Preset, uint32_t N,
                   size_t Edges, uint32_t LaneWords, uint32_t Sources,
                   const MegaSweepResult &R, double Speedup,
                   const char *Identical) {
  Json.beginRecord()
      .field("sweep", "mega_scale_lanes")
      .field("preset", Preset)
      .field("nodes", static_cast<uint64_t>(N))
      .field("edges", static_cast<uint64_t>(Edges))
      .field("lane_words", static_cast<uint64_t>(LaneWords))
      .field("sources", static_cast<uint64_t>(Sources))
      .field("sweep_seconds", R.SweepSeconds)
      .field("kernel_frontier_us", R.FrontierUs)
      .field("kernel_sweep_us", R.SweepPhaseUs)
      .field("speedup_vs_l1", Speedup)
      .field("identical", Identical);
}

bool megaScaleSection(Table &T, JsonReport &Json, bool Quick) {
  const std::vector<std::string> Presets =
      Quick ? std::vector<std::string>{"ci"}
            : std::vector<std::string>{"ci", "10k", "100k"};
  for (const std::string &Name : Presets) {
    MegaScaleParams P = *megaScalePreset(Name);
    Design D;
    MegaScaleDesign Mega = buildMegaScale(D, P);
    std::vector<uint32_t> ByDepth;
    CsrGraph Csr = flatInstanceGraph(D, Mega.Top, ByDepth);
    Csr.freeze();

    // 512 sources, shallowest instances first: the composition roots
    // (top, clusters, then tiles), whose closures share the stitched
    // grid and everything under it. That is the shape the multi-word
    // rows exist for — many sources over one downstream cone, the
    // whole-composition analogue of a module's input ports — where
    // single-word sweeps re-traverse the shared cone once per 64-source
    // chunk. Deep payload leaves have tiny disjoint closures and would
    // measure pure row-width overhead instead.
    const uint32_t N = Csr.numNodes();
    const uint32_t Want = std::min<uint32_t>(N, 512);
    std::vector<uint32_t> Sources(ByDepth.begin(), ByDepth.begin() + Want);

    // 1-word baseline: the pre-multi-word kernel shape — eight 64-lane
    // sweeps instead of one 512-lane sweep.
    int Reps = 1;
    {
      Timer Cal;
      MegaSweepResult Once = megaSweep(Csr, Sources, 1, 1);
      (void)Once;
      Reps = static_cast<int>(
          std::clamp(0.5 / std::max(Cal.seconds(), 1e-6), 1.0, 100.0));
    }
    const MegaSweepResult Base = megaSweep(Csr, Sources, 1, Reps);
    T.addRow({Name, Table::withCommas(N), Table::withCommas(Csr.numEdges()),
              "1", Table::secondsStr(Base.SweepSeconds, 6),
              Table::speedupStr(1.0)});
    addMegaRecord(Json, Name, N, Csr.numEdges(), 1, Want, Base, 1.0,
                  "baseline");

    // The widest row, reported only after its bitset matches the
    // baseline exactly.
    const uint32_t Wide = ReachabilityKernel::MaxLaneWords;
    const MegaSweepResult R = megaSweep(Csr, Sources, Wide, Reps);
    if (R.Bits != Base.Bits) {
      std::fprintf(stderr, "%s: L%u bitset diverges from the L1 baseline!\n",
                   Name.c_str(), Wide);
      return false;
    }
    const double Speedup = Base.SweepSeconds / R.SweepSeconds;
    T.addRow({Name, Table::withCommas(N), Table::withCommas(Csr.numEdges()),
              std::to_string(Wide), Table::secondsStr(R.SweepSeconds, 6),
              Table::speedupStr(Speedup)});
    addMegaRecord(Json, Name, N, Csr.numEdges(), Wide, Want, R, Speedup,
                  "true");
  }
  return true;
}

} // namespace

int main(int ArgC, char **ArgV) {
  const bool Quick = quickMode(ArgC, ArgV);
  const std::string JsonOut = jsonPath(ArgC, ArgV);

  // Metrics-only session so the kernel.* histograms collect for the
  // per-phase columns without span bookkeeping in the timed regions.
  trace::SessionOptions MetricsOpts;
  MetricsOpts.CollectSpans = false;
  trace::Session Metrics(MetricsOpts);

  std::printf("=== Stage-1 reachability: serial (findCycle + per-port BFS) "
              "vs bit-parallel CSR kernel ===\n"
              "(gate-level modules, cold per run; kernel-only: both columns "
              "exclude CombGraph::build; both paths verified identical "
              "before any row is reported; phases are freeze/frontier/sweep "
              "microseconds per run)\n\n");

  Table T({"Module", "Prim gates", "In/Out ports", "Serial excl. build (s)",
           "Kernel excl. build (s)", "Phases f/fr/s (us)", "Speedup"});
  JsonReport Json;

  auto report = [&](const std::string &Name, const Module &M) {
    KernelRun R = runModule(M);
    if (!R.Identical) {
      std::printf("%s: serial and kernel Stage-1 diverge!\n", Name.c_str());
      return false;
    }
    addRow(T, Json, Name, R);
    return true;
  };

  size_t Count = 0;
  for (const CatalogEntry &E : catalog()) {
    if (Quick && ++Count > 8)
      break;
    if (!report(E.Name, E.Build()))
      return 1;
  }

  // Wide combinational modules: >=64 input bits whose closures span most
  // of the gate network, so the serial path pays |inputs| full BFS
  // traversals where the kernel pays ceil(|inputs|/512) sweeps. This is
  // the workload the bit-parallel kernel exists for.
  struct WideEntry {
    std::string Name;
    Module M;
  };
  std::vector<WideEntry> Wide;
  Wide.push_back({"mux_comb_w64_n16", makeMuxComb(64, 16)});
  if (!Quick) {
    Wide.push_back({"crossbar_w32_p8", makeCrossbar(32, 8)});
    Wide.push_back({"crossbar_w64_p16", makeCrossbar(64, 16)});
    Wide.push_back({"popcount_w64", makePopcount(64)});
    Wide.push_back({"majority_w64", makeMajority(64)});
    Wide.push_back({"checksum_w64", makeChecksum(64)});
    Wide.push_back({"gray_decode_w64", makeGrayCoder(64, /*Decode=*/true)});
    Wide.push_back({"prio_enc_n64", makePriorityEncoder(64)});
  }
  for (const WideEntry &E : Wide)
    if (!report(E.Name, E.M))
      return 1;

  // The large bit-blasted forwarding FIFOs: ~70 input bits over a
  // register-dominated netlist. Closures here are small (state absorbs
  // reachability), so Stage-1 is bound by the loop check / freeze — the
  // kernel's job on these is to not regress while the wide modules win.
  for (uint16_t DepthLog2 : {6, 8, 10}) {
    if (Quick && DepthLog2 > 6)
      break;
    if (!report("fifo_fwd_w64_d2^" + std::to_string(DepthLog2),
                makeFifo({64, DepthLog2, /*Forwarding=*/true})))
      return 1;
  }

  T.print();

  // MegaScale flat-graph closure by row width: one ~100k-node graph,
  // 512 sources, 1-word baseline vs 8-word rows, gated on bitset
  // identity (docs/SCALE.md).
  std::printf("\n=== MegaScale flat-graph 512-source closure by row width "
              "===\n(speedups are against the 1-lane-word baseline; the "
              "8-word bitset is verified identical to it)\n\n");
  Table MegaT({"Preset", "Nodes", "Edges", "Lane words", "Closure (s)",
               "Speedup"});
  if (!megaScaleSection(MegaT, Json, Quick))
    return 1;
  MegaT.print();

  (void)Metrics.finish();
  if (!JsonOut.empty() && Json.writeTo(JsonOut))
    std::printf("\nJSON report written to %s\n", JsonOut.c_str());
  return 0;
}
