//===- examples/quickstart.cpp - Five-minute tour of the library ----------===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// Build a module with the PyRTL-style Builder, infer its wire sorts, wire
// a small circuit, and check well-connectedness — the full Stage 1/2/3
// pipeline of Section 3.5 in one file.
//
//===----------------------------------------------------------------------===//

#include "wiresort.h"

#include <cstdio>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

int main() {
  Design D;

  // --- Stage 0: describe hardware ----------------------------------------
  // A normal FIFO (the "universal interface") and a forwarding FIFO,
  // identical at the port level — only the sorts tell them apart.
  ModuleId Normal = D.addModule(gen::makeFifo({32, 4, false}));
  ModuleId Fwd = D.addModule(gen::makeFifo({32, 4, true}));

  // --- Stage 1: per-module sort inference ---------------------------------
  std::map<ModuleId, ModuleSummary> Summaries;
  if (wiresort::support::Status Loop = analyzeDesign(D, Summaries);
      Loop.hasError()) {
    std::printf("module-internal loop: %s\n", Loop.describe().c_str());
    return 1;
  }
  for (ModuleId Id : {Normal, Fwd}) {
    const Module &M = D.module(Id);
    std::printf("%s:\n", M.Name.c_str());
    for (WireId In : M.Inputs)
      std::printf("  input  %-8s %s\n", std::string(M.wireName(In)).c_str(),
                  sortName(Summaries.at(Id).sortOf(In)));
    for (WireId Out : M.Outputs)
      std::printf("  output %-8s %s\n", std::string(M.wireName(Out)).c_str(),
                  sortName(Summaries.at(Id).sortOf(Out)));
  }

  // --- Stages 2 and 3: compose and check ----------------------------------
  Circuit Circ(D, "two_queues");
  InstId Producer = Circ.addInstance(Fwd, "producer_q");
  InstId Consumer = Circ.addInstance(Normal, "consumer_q");
  Circ.connect(Producer, "v_o", Consumer, "v_i");
  Circ.connect(Producer, "data_o", Consumer, "data_i");
  Circ.connect(Consumer, "ready_o", Producer, "yumi_i");

  CircuitCheckResult Result = checkCircuit(Circ, Summaries);
  std::printf("\ncircuit '%s': %s (%zu connections safe by sorts alone, "
              "%zu needed the whole-circuit check)\n",
              Circ.name().c_str(),
              Result.WellConnected ? "well-connected" : "LOOPED",
              Result.SafeBySort, Result.NeedsCheck);
  return Result.WellConnected ? 0 : 1;
}
