//===- analysis/Incremental.cpp - Design-time incremental checks ----------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Incremental.h"

#include <set>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {
/// DFS frame used by the path-reconstructing search.
struct Frame {
  PortRef Ref;
  size_t NextSucc = 0;
};
} // namespace

bool IncrementalChecker::reaches(PortRef Start, PortRef Target,
                                 std::vector<PortRef> *Path) const {
  std::set<uint64_t> Seen;
  std::vector<Frame> Stack{Frame{Start}};
  Seen.insert(nodeKey(Start));

  auto successorsOf = [&](PortRef Ref) {
    std::vector<PortRef> Out;
    const ModuleSummary &Summary =
        Summaries->at(Circ->instances()[Ref.Inst].Def);
    auto SummaryIt = Summary.OutputPortSets.find(Ref.Port);
    if (SummaryIt != Summary.OutputPortSets.end()) {
      for (WireId OutPort : SummaryIt->second)
        Out.push_back(PortRef{Ref.Inst, OutPort});
    } else {
      auto ConnIt = Fwd.find(nodeKey(Ref));
      if (ConnIt != Fwd.end())
        Out = ConnIt->second;
    }
    return Out;
  };

  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.Ref == Target) {
      if (Path) {
        Path->clear();
        for (const Frame &G : Stack)
          Path->push_back(G.Ref);
      }
      return true;
    }
    std::vector<PortRef> Succ = successorsOf(F.Ref);
    if (F.NextSucc >= Succ.size()) {
      Stack.pop_back();
      continue;
    }
    PortRef Next = Succ[F.NextSucc++];
    if (Seen.insert(nodeKey(Next)).second)
      Stack.push_back(Frame{Next});
  }
  return false;
}

bool IncrementalChecker::forwardHitsToPort(PortRef Start) const {
  std::set<uint64_t> Seen{nodeKey(Start)};
  std::vector<PortRef> Work{Start};
  while (!Work.empty()) {
    PortRef Ref = Work.back();
    Work.pop_back();
    const ModuleSummary &Summary =
        Summaries->at(Circ->instances()[Ref.Inst].Def);
    auto SummaryIt = Summary.OutputPortSets.find(Ref.Port);
    if (SummaryIt != Summary.OutputPortSets.end()) {
      // An input port; to-port iff its output-port-set is nonempty.
      if (!SummaryIt->second.empty())
        return true;
      continue;
    }
    auto ConnIt = Fwd.find(nodeKey(Ref));
    if (ConnIt == Fwd.end())
      continue;
    for (PortRef Next : ConnIt->second)
      if (Seen.insert(nodeKey(Next)).second)
        Work.push_back(Next);
  }
  return false;
}

bool IncrementalChecker::backwardHitsFromPort(PortRef Start) const {
  std::set<uint64_t> Seen{nodeKey(Start)};
  std::vector<PortRef> Work{Start};
  while (!Work.empty()) {
    PortRef Ref = Work.back();
    Work.pop_back();
    const ModuleSummary &Summary =
        Summaries->at(Circ->instances()[Ref.Inst].Def);
    auto SummaryIt = Summary.InputPortSets.find(Ref.Port);
    if (SummaryIt != Summary.InputPortSets.end()) {
      // An output port; from-port iff its input-port-set is nonempty.
      if (!SummaryIt->second.empty())
        return true;
      continue;
    }
    auto ConnIt = Bwd.find(nodeKey(Ref));
    if (ConnIt == Bwd.end())
      continue;
    for (PortRef Prev : ConnIt->second)
      if (Seen.insert(nodeKey(Prev)).second)
        Work.push_back(Prev);
  }
  return false;
}

IncrementalChecker::Step
IncrementalChecker::addConnection(const Connection &C) {
  Step Result;

  // The forward walk from the target must cross into module summaries, so
  // register the edge first; the trigger condition below is evaluated on
  // the circuit including the new connection, as in Section 4.
  Fwd[nodeKey(C.From)].push_back(C.To);
  Bwd[nodeKey(C.To)].push_back(C.From);

  // Section 4 trigger: forward reach includes a to-port input and
  // backward reach includes a from-port output.
  if (!forwardHitsToPort(C.To) || !backwardHitsFromPort(C.From)) {
    ++ChecksSkipped;
    return Result;
  }
  Result.CheckTriggered = true;
  ++ChecksTriggered;

  // Any loop introduced by the new connection must pass through it, so it
  // exists iff the target reaches back to the source.
  std::vector<PortRef> Path;
  if (reaches(C.To, C.From, &Path)) {
    support::Diag Diag(support::DiagCode::WS101_COMB_LOOP,
                       "connection closes a combinational loop");
    for (PortRef Ref : Path)
      Diag.addHop(Circ->instances()[Ref.Inst].Name,
                  Circ->defOf(Ref.Inst).wire(Ref.Port).Name);
    Result.Diags.add(std::move(Diag));
  }
  return Result;
}
