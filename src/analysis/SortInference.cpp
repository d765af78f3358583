//===- analysis/SortInference.cpp - Stage-1 sort inference ----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SortInference.h"


#include <algorithm>
#include <cassert>
#include <set>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

InferenceResult
analysis::inferSummary(const Design &D, ModuleId Id,
                       const std::map<ModuleId, ModuleSummary>
                           &SubSummaries,
                       const support::Deadline *DL) {
  const Module &M = D.module(Id);
  auto cancelled = [&] {
    return support::Diag(support::DiagCode::WS601_CANCELLED,
                         "inference of module '" + M.Name +
                             "' cancelled by deadline")
        .withNote("module", M.Name);
  };
  if (DL && DL->expired())
    return cancelled();
  CombGraph CG = CombGraph::build(M, SubSummaries);

  // A module whose internals (or instance summaries) form a cycle can
  // never be summarized; report the loop instead.
  if (std::optional<support::Diag> Loop = CG.findCombLoop())
    return *std::move(Loop);

  ModuleSummary Summary;
  Summary.Id = Id;
  Summary.ModuleName = M.Name;

  // Forward pass, batched 64 input ports per machine word: ceil(K/64)
  // sweeps over the frozen CSR edge array instead of K BFS traversals
  // (bit-identical to the per-port BFS; see docs/KERNEL.md). The sweeps
  // poll the deadline; a fired one abandons the module.
  auto Sets = CG.allOutputPortSets(DL);
  if (!Sets)
    return cancelled();
  Summary.OutputPortSets = *std::move(Sets);

  // Output sets by inversion — no second traversal (Section 5.5.1).
  for (WireId Out : M.Outputs)
    Summary.InputPortSets[Out] = {};
  for (const auto &[In, Outs] : Summary.OutputPortSets)
    for (WireId Out : Outs)
      Summary.InputPortSets[Out].push_back(In);
  for (auto &[Out, Ins] : Summary.InputPortSets)
    std::sort(Ins.begin(), Ins.end());

  // Section 3.7 subsorts for the sync ports. Read the batched results
  // through at(): the sets were fully populated above, and mutating
  // operator[] on a read would grow the map on a port-id typo instead of
  // failing loudly.
  for (WireId In : M.Inputs) {
    if (!Summary.OutputPortSets.at(In).empty())
      Summary.SubSorts[In] = SubSort::None;
    else
      Summary.SubSorts[In] = CG.feedsStateDirectly(In) ? SubSort::Direct
                                                       : SubSort::Indirect;
  }
  for (WireId Out : M.Outputs) {
    if (!Summary.InputPortSets.at(Out).empty())
      Summary.SubSorts[Out] = SubSort::None;
    else
      Summary.SubSorts[Out] = CG.drivenByStateDirectly(Out)
                                  ? SubSort::Direct
                                  : SubSort::Indirect;
  }

  return Summary;
}

support::Status
analysis::analyzeDesign(const Design &D,
                        std::map<ModuleId, ModuleSummary> &Out,
                        const std::map<ModuleId, ModuleSummary> &Ascribed) {
  std::optional<std::vector<ModuleId>> Order = D.topologicalModuleOrder();
  assert(Order && "module instantiation must be acyclic");

  // Analyze every module whose dependencies all summarized; skip (and
  // taint) dependents of failures. Collecting per-module diagnostics and
  // sorting by module id afterwards makes the list independent of the
  // traversal order, which is the determinism contract SummaryEngine's
  // parallel schedule is held to.
  std::set<ModuleId> Failed;
  std::vector<std::pair<ModuleId, support::Diag>> Found;
  for (ModuleId Id : *Order) {
    auto AscribedIt = Ascribed.find(Id);
    if (AscribedIt != Ascribed.end()) {
      Out[Id] = AscribedIt->second;
      continue;
    }
    bool DepFailed = false;
    for (const SubInstance &Inst : D.module(Id).Instances)
      if (Failed.count(Inst.Def))
        DepFailed = true;
    if (DepFailed) {
      Failed.insert(Id);
      continue;
    }
    InferenceResult Result = inferSummary(D, Id, Out);
    if (!Result) {
      Failed.insert(Id);
      for (const support::Diag &Dg : Result.diags())
        Found.emplace_back(Id, Dg);
      continue;
    }
    Out[Id] = std::move(*Result);
  }

  std::stable_sort(Found.begin(), Found.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });
  support::Status S;
  for (auto &[Id, Dg] : Found)
    S.add(std::move(Dg));
  return S;
}
