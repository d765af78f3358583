//===- analysis/Ascription.cpp - Designer sort annotations ----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Ascription.h"

#include <algorithm>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

const char *analysis::sortName(Sort S) {
  switch (S) {
  case Sort::ToSync:
    return "to-sync";
  case Sort::ToPort:
    return "to-port";
  case Sort::FromSync:
    return "from-sync";
  case Sort::FromPort:
    return "from-port";
  }
  return "?";
}

const char *analysis::sortAbbrev(Sort S) {
  switch (S) {
  case Sort::ToSync:
    return "TS";
  case Sort::ToPort:
    return "TP";
  case Sort::FromSync:
    return "FS";
  case Sort::FromPort:
    return "FP";
  }
  return "?";
}

support::DiagList
analysis::checkAscriptions(const Module &M, const ModuleSummary &Summary,
                           const std::vector<Ascription> &Declared) {
  support::DiagList Mismatches;
  auto report = [&](WireId Port, std::string Msg) {
    Mismatches.add(
        support::Diag(support::DiagCode::WS102_ASCRIPTION_MISMATCH,
                      std::move(Msg))
            .withNote("module", M.Name)
            .withNote("port", M.wire(Port).Name));
  };

  for (const Ascription &A : Declared) {
    const WireName PortName = M.wireName(A.Port);
    Sort Computed = Summary.sortOf(A.Port);
    if (Computed != A.DeclaredSort) {
      report(A.Port, "port '" + PortName + "' declared " +
                         sortName(A.DeclaredSort) + " but computed " +
                         sortName(Computed));
      continue;
    }
    if (!isSyncSort(Computed)) {
      std::vector<WireId> DeclaredSet = A.DeclaredPortSet;
      std::sort(DeclaredSet.begin(), DeclaredSet.end());
      const std::vector<WireId> &ComputedSet =
          isInputSort(Computed) ? Summary.outputPortSet(A.Port)
                                : Summary.inputPortSet(A.Port);
      if (!DeclaredSet.empty() && DeclaredSet != ComputedSet)
        report(A.Port,
               "port '" + PortName + "' declared port set differs from "
               "the computed one");
      continue;
    }
    if (A.DeclaredSubSort != SubSort::None &&
        A.DeclaredSubSort != Summary.subSortOf(A.Port))
      report(A.Port, "port '" + PortName + "' declared subsort differs "
                     "from the computed one");
  }
  return Mismatches;
}

support::Expected<ModuleSummary>
analysis::summaryFromAscriptions(const Module &M, ModuleId Id,
                                 const std::vector<Ascription> &Declared) {
  ModuleSummary Summary;
  Summary.Id = Id;
  Summary.ModuleName = M.Name;

  auto fail = [&](const std::string &Msg) {
    return support::Diag(support::DiagCode::WS103_ASCRIPTION_INCOMPLETE,
                         Msg)
        .withNote("module", M.Name);
  };

  auto findAscription = [&](WireId Port) -> const Ascription * {
    for (const Ascription &A : Declared)
      if (A.Port == Port)
        return &A;
    return nullptr;
  };

  for (WireId In : M.Inputs) {
    const Ascription *A = findAscription(In);
    if (!A) {
      return fail("opaque module '" + M.Name + "': input '" +
                  M.wire(In).Name + "' lacks an ascription");
    }
    if (!isInputSort(A->DeclaredSort)) {
      return fail("opaque module '" + M.Name + "': input '" +
                  M.wire(In).Name + "' ascribed an output sort");
    }
    std::vector<WireId> Set = A->DeclaredPortSet;
    std::sort(Set.begin(), Set.end());
    if (A->DeclaredSort == Sort::ToPort && Set.empty()) {
      return fail("opaque module '" + M.Name + "': to-port input '" +
                  M.wire(In).Name +
                  "' needs an explicit output-port-set");
    }
    if (A->DeclaredSort == Sort::ToSync)
      Set.clear();
    Summary.OutputPortSets[In] = std::move(Set);
    Summary.SubSorts[In] = A->DeclaredSort == Sort::ToSync
                               ? (A->DeclaredSubSort == SubSort::None
                                      ? SubSort::Indirect
                                      : A->DeclaredSubSort)
                               : SubSort::None;
  }

  for (WireId Out : M.Outputs)
    Summary.InputPortSets[Out] = {};

  for (const auto &[In, Outs] : Summary.OutputPortSets) {
    for (WireId Out : Outs) {
      if (Summary.InputPortSets.find(Out) == Summary.InputPortSets.end()) {
        return fail("opaque module '" + M.Name +
                    "': output-port-set names a non-output wire");
      }
      Summary.InputPortSets[Out].push_back(In);
    }
  }
  for (auto &[Out, Ins] : Summary.InputPortSets)
    std::sort(Ins.begin(), Ins.end());

  for (WireId Out : M.Outputs) {
    const Ascription *A = findAscription(Out);
    if (!A) {
      return fail("opaque module '" + M.Name + "': output '" +
                  M.wire(Out).Name + "' lacks an ascription");
    }
    Sort Derived =
        Summary.InputPortSets[Out].empty() ? Sort::FromSync : Sort::FromPort;
    if (A->DeclaredSort != Derived) {
      return fail("opaque module '" + M.Name + "': output '" +
                  M.wire(Out).Name + "' ascribed " +
                  sortName(A->DeclaredSort) +
                  " but the input ascriptions imply " + sortName(Derived));
    }
    if (Derived == Sort::FromPort && !A->DeclaredPortSet.empty()) {
      std::vector<WireId> DeclaredSet = A->DeclaredPortSet;
      std::sort(DeclaredSet.begin(), DeclaredSet.end());
      if (DeclaredSet != Summary.InputPortSets[Out]) {
        return fail("opaque module '" + M.Name + "': output '" +
                    M.wire(Out).Name + "' declared input-port-set is "
                    "inconsistent with the input ascriptions");
      }
    }
    Summary.SubSorts[Out] = Derived == Sort::FromSync
                                ? (A->DeclaredSubSort == SubSort::None
                                       ? SubSort::Indirect
                                       : A->DeclaredSubSort)
                                : SubSort::None;
  }
  return Summary;
}
