//===- bench/bench_table1_basejump.cpp - Table 1 + Section 5.1 corpus -----===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// Regenerates Table 1 — the wire sorts, port sets, primitive-gate counts,
// and inference times of the FIFO, PISO, SIPO, and cache DMA — plus the
// Section 5.1 corpus-level aggregates (modules analyzed, average gates,
// average ports, average inference time). As in the paper, inference is
// timed over the synthesized (bit-blasted) form of each module.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include "gen/CacheDma.h"
#include "gen/Catalog.h"
#include "gen/Fifo.h"
#include "gen/ShiftReg.h"
#include "support/Table.h"

#include <cstdio>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::bench;
using namespace wiresort::ir;

namespace {

void reportModule(const char *Label, Module M) {
  Design D;
  ModuleId Id = D.addModule(std::move(M));
  GateLevelRun Run = runGateLevel(D, Id);
  // Sorts and port sets are reported at RTL granularity (vector-level),
  // matching Table 1's presentation.
  std::map<ModuleId, ModuleSummary> Rtl;
  if (analysis::analyzeDesign(D, Rtl).hasError()) {
    std::printf("%s: combinational loop?!\n", Label);
    return;
  }
  const Module &Def = D.module(Id);
  const ModuleSummary &S = Rtl.at(Id);

  std::printf("%s  (prim. gates %s, inference %.3f s)\n", Label,
              Table::withCommas(Run.PrimGates).c_str(), Run.InferSeconds);
  Table T({"Dir", "Wire Name", "Sort", "Port Set"});
  for (WireId In : Def.Inputs)
    T.addRow({"in", Def.wire(In).Name, sortAbbrev(S.sortOf(In)),
              portSetString(Def, S.outputPortSet(In))});
  for (WireId Out : Def.Outputs)
    T.addRow({"out", Def.wire(Out).Name, sortAbbrev(S.sortOf(Out)),
              portSetString(Def, S.inputPortSet(Out))});
  T.print();
  std::printf("\n");
}

} // namespace

int main(int ArgC, char **ArgV) {
  bool Quick = quickMode(ArgC, ArgV);
  std::printf("=== Table 1: wire sorts of the BaseJump STL subset ===\n\n");

  reportModule("First-In First-Out Queue",
               gen::makeFifo({64, static_cast<uint16_t>(Quick ? 4 : 10),
                              /*Forwarding=*/false}));
  reportModule("Forwarding FIFO Queue (Figure 2 variant)",
               gen::makeFifo({64, static_cast<uint16_t>(Quick ? 4 : 10),
                              /*Forwarding=*/true}));
  reportModule("Parallel-In Serial-Out Shift Reg. (pre-fix)",
               gen::makePiso({8, 8, /*Fixed=*/false}));
  reportModule("Parallel-In Serial-Out Shift Reg. (post-fix)",
               gen::makePiso({8, 8, /*Fixed=*/true}));
  reportModule("Serial-In Parallel-Out SR", gen::makeSipo({8, 8}));
  reportModule("Cache DMA", gen::makeCacheDma({32, 16, 4, 3}));

  // --- Section 5.1 corpus sweep -------------------------------------------
  // The sweep runs through one shared SummaryEngine: the first pass is
  // cold (every module inferred), the second demonstrates the
  // content-addressed cache — unchanged modules cost a structural hash
  // plus a lookup, which is the engine's re-check story (docs/ENGINE.md).
  std::printf("=== Section 5.1 corpus sweep ===\n");
  const std::vector<gen::CatalogEntry> Corpus = gen::catalog();
  SummaryEngine Engine; // Default thread count, shared cache.
  Table T({"Corpus", "Modules", "Avg gates", "Max gates", "Avg ports",
           "Avg infer (ms)", "Cache hits"});
  for (const char *Pass : {"catalog cold", "catalog warm"}) {
    size_t Modules = 0;
    size_t TotalGates = 0, TotalPorts = 0;
    double TotalSeconds = 0.0;
    size_t MaxGates = 0, Hits = 0;
    for (const gen::CatalogEntry &E : Corpus) {
      Design D;
      ModuleId Id = D.addModule(E.Build());
      GateLevelRun Run = runGateLevel(D, Id, &Engine);
      Hits += Run.CacheHits;
      ++Modules;
      TotalGates += Run.PrimGates;
      TotalPorts += D.module(Id).numPorts();
      TotalSeconds += Run.InferSeconds;
      if (Run.PrimGates > MaxGates)
        MaxGates = Run.PrimGates;
    }
    T.addRow({Pass, std::to_string(Modules),
              Table::withCommas(TotalGates / Modules),
              Table::withCommas(MaxGates),
              std::to_string(TotalPorts / Modules),
              Table::secondsStr(1e3 * TotalSeconds / Modules, 3),
              std::to_string(Hits)});
  }
  T.print();
  std::printf("\n(paper: 533 instantiations of 144 unique BaseJump "
              "modules, avg 19,981 gates, avg 6 ports, avg 361 ms at "
              "gate level)\n");
  return 0;
}
