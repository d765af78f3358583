//===- analysis/Summary.h - Per-module interface summaries ------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ModuleSummary is the paper's Stage-1 artifact (Section 3.5): every
/// port annotated with its sort, and every to-port/from-port wire with its
/// output-port-set / input-port-set. A summary is everything downstream
/// circuit checking ever needs — module internals stay opaque afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_ANALYSIS_SUMMARY_H
#define WIRESORT_ANALYSIS_SUMMARY_H

#include "analysis/Sorts.h"
#include "ir/Ids.h"

#include <map>
#include <string>
#include <vector>

namespace wiresort::analysis {

/// Stage-1 interface annotation of one module definition.
struct ModuleSummary {
  ir::ModuleId Id = ir::InvalidId;
  std::string ModuleName;

  /// output-ports(M, win) per input port (sorted, deduplicated). Inputs
  /// with an empty set are to-sync.
  std::map<ir::WireId, std::vector<ir::WireId>> OutputPortSets;

  /// input-ports(M, wout) per output port (sorted, deduplicated). Outputs
  /// with an empty set are from-sync.
  std::map<ir::WireId, std::vector<ir::WireId>> InputPortSets;

  /// Section 3.7 subsort per port (only sync ports are Direct/Indirect).
  std::map<ir::WireId, SubSort> SubSorts;

  /// \returns the sort of port \p Port (which must be an interface wire
  /// recorded in this summary).
  Sort sortOf(ir::WireId Port) const {
    auto In = OutputPortSets.find(Port);
    if (In != OutputPortSets.end())
      return In->second.empty() ? Sort::ToSync : Sort::ToPort;
    auto Out = InputPortSets.find(Port);
    return Out->second.empty() ? Sort::FromSync : Sort::FromPort;
  }

  SubSort subSortOf(ir::WireId Port) const {
    auto It = SubSorts.find(Port);
    return It == SubSorts.end() ? SubSort::None : It->second;
  }

  const std::vector<ir::WireId> &outputPortSet(ir::WireId Input) const {
    return OutputPortSets.at(Input);
  }
  const std::vector<ir::WireId> &inputPortSet(ir::WireId Output) const {
    return InputPortSets.at(Output);
  }
};

/// Structural equality of two summaries: every field Stage-2/3 checking
/// can observe. The determinism suite demands it of serial, parallel,
/// and cache-served inference.
inline bool structurallyEqual(const ModuleSummary &A,
                              const ModuleSummary &B) {
  return A.Id == B.Id && A.ModuleName == B.ModuleName &&
         A.OutputPortSets == B.OutputPortSets &&
         A.InputPortSets == B.InputPortSets && A.SubSorts == B.SubSorts;
}

} // namespace wiresort::analysis

#endif // WIRESORT_ANALYSIS_SUMMARY_H
