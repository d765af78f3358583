//===- analysis/WellConnected.cpp - Circuit-level checking ----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/WellConnected.h"

#include "support/Trace.h"

#include <cassert>

namespace {

/// Shared Stage-2 bookkeeping for both circuit checkers.
wiresort::trace::Counter &safeBySortCounter() {
  static wiresort::trace::Counter &C =
      wiresort::trace::counter("analysis.safe_by_sort");
  return C;
}
wiresort::trace::Counter &needsCheckCounter() {
  static wiresort::trace::Counter &C =
      wiresort::trace::counter("analysis.needs_check");
  return C;
}

} // namespace

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

ConnectionSafety
analysis::classifyConnection(const Circuit &Circ,
                             const std::map<ModuleId, ModuleSummary>
                                 &Summaries,
                             const Connection &C) {
  const ModuleSummary &FromSummary =
      Summaries.at(Circ.instances()[C.From.Inst].Def);
  const ModuleSummary &ToSummary =
      Summaries.at(Circ.instances()[C.To.Inst].Def);
  if (FromSummary.sortOf(C.From.Port) == Sort::FromSync ||
      ToSummary.sortOf(C.To.Port) == Sort::ToSync)
    return ConnectionSafety::SafeBySort;
  return ConnectionSafety::NeedsCircuitCheck;
}

PortGraph PortGraph::build(const Circuit &Circ,
                           const std::map<ModuleId, ModuleSummary>
                               &Summaries) {
  trace::Span BuildSpan("analysis.port_graph", "analysis");
  BuildSpan.note("circuit", Circ.name());
  PortGraph PG;
  const auto &Insts = Circ.instances();
  PG.Numbering = PortNumbering(Circ);
  PG.Refs.reserve(PG.Numbering.size());
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const Module &Def = Circ.defOf(Inst);
    for (WireId Port : Def.Inputs)
      PG.Refs.push_back(PortRef{Inst, Port});
    for (WireId Port : Def.Outputs)
      PG.Refs.push_back(PortRef{Inst, Port});
  }

  // Summary edges: input -> each member of its output-port-set.
  std::vector<CsrGraph::Edge> Edges;
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst) {
    const ModuleSummary &Summary = Summaries.at(Insts[Inst].Def);
    for (const auto &[In, Outs] : Summary.OutputPortSets) {
      uint32_t InNode = PG.nodeOf(PortRef{Inst, In});
      for (WireId Out : Outs)
        Edges.emplace_back(InNode, PG.nodeOf(PortRef{Inst, Out}));
    }
  }

  // Connection edges.
  for (const Connection &C : Circ.connections())
    Edges.emplace_back(PG.nodeOf(C.From), PG.nodeOf(C.To));

  // Freeze for the Stage-3 closure kernel: one ordering pass up front
  // (the ascending-ids proof plus a local repair of descending edges;
  // Tarjan only if the port graph turns out cyclic) that also settles
  // checkCircuit's loop verdict. The pairwise checker then sweeps 64
  // ports per word over the CSR arrays.
  PG.Csr = CsrGraph(PG.Refs.size(), Edges);
  PG.Csr.freeze();
  return PG;
}

bool PortGraph::transitivelyAffects(PortRef W1, PortRef W2) const {
  return Csr.reachableFrom(nodeOf(W1))[nodeOf(W2)];
}

namespace {

/// Per-instance summary pointers, resolved once per circuit so the
/// per-connection loops below stop paying a map lookup per endpoint.
std::vector<const ModuleSummary *>
instanceSummaries(const Circuit &Circ,
                  const std::map<ModuleId, ModuleSummary> &Summaries) {
  const auto &Insts = Circ.instances();
  std::vector<const ModuleSummary *> Result(Insts.size());
  for (InstId Inst = 0; Inst != Insts.size(); ++Inst)
    Result[Inst] = &Summaries.at(Insts[Inst].Def);
  return Result;
}

/// classifyConnection over pre-resolved summary pointers.
ConnectionSafety
classifyCached(const std::vector<const ModuleSummary *> &InstSummary,
               const Connection &C) {
  if (InstSummary[C.From.Inst]->sortOf(C.From.Port) == Sort::FromSync ||
      InstSummary[C.To.Inst]->sortOf(C.To.Port) == Sort::ToSync)
    return ConnectionSafety::SafeBySort;
  return ConnectionSafety::NeedsCircuitCheck;
}

/// Is the port graph restricted to the needs-check connections \p
/// Checked acyclic? Its nodes are those connections' endpoints, its
/// edges those connections plus the summary edges among the endpoints.
///
/// It has a cycle iff the whole port graph does. Port-graph cycles
/// alternate summary edges (input -> output) and connection edges
/// (output -> input). An output with an incoming summary edge has a
/// non-empty input-port-set, so it is not from-sync; an input with an
/// outgoing summary edge has a non-empty output-port-set, so it is not
/// to-sync. So every connection on a cycle needs checking (Property 1
/// read backwards) and the cycle survives the restriction. This relies
/// on each summary's InputPortSets being the inversion of its
/// OutputPortSets: inference builds them that way,
/// checkSummaryConsistency enforces it on decoded summaries, and
/// Ascription enforces it on opaque modules.
bool neededPortsAcyclic(const Circuit &Circ,
                        const std::vector<const ModuleSummary *> &InstSummary,
                        const std::vector<uint32_t> &Checked) {
  const auto &Conns = Circ.connections();
  const PortNumbering Numbering(Circ);
  // Port number -> subgraph node. Nodes keep the port numbers' order, so
  // an edge ascends here iff it ascends in the full port graph and the
  // freeze repairs no more than it would there.
  std::vector<uint32_t> NodeOf(Numbering.size(), InvalidId);
  for (uint32_t I : Checked) {
    NodeOf[Numbering.number(Conns[I].From)] = 0;
    NodeOf[Numbering.number(Conns[I].To)] = 0;
  }
  uint32_t NumNodes = 0;
  for (uint32_t &Node : NodeOf)
    if (Node != InvalidId)
      Node = NumNodes++;

  // Each input is driven at most once, so this visits every input node,
  // and with it every summary edge of the subgraph, exactly once.
  std::vector<CsrGraph::Edge> Edges;
  for (uint32_t I : Checked) {
    const Connection &C = Conns[I];
    const uint32_t InNode = NodeOf[Numbering.number(C.To)];
    Edges.emplace_back(NodeOf[Numbering.number(C.From)], InNode);
    for (WireId Out : InstSummary[C.To.Inst]->outputPortSet(C.To.Port)) {
      const uint32_t OutNode = NodeOf[Numbering.number({C.To.Inst, Out})];
      if (OutNode != InvalidId)
        Edges.emplace_back(InNode, OutNode);
    }
  }
  CsrGraph G(NumNodes, Edges);
  G.freeze();
  return G.isAcyclic();
}

} // namespace

CircuitCheckResult
analysis::checkCircuit(const Circuit &Circ,
                       const std::map<ModuleId, ModuleSummary> &Summaries) {
  trace::Span CheckSpan("analysis.check_circuit", "analysis");
  CheckSpan.note("circuit", Circ.name());
  CircuitCheckResult Result;

  const std::vector<const ModuleSummary *> InstSummary =
      instanceSummaries(Circ, Summaries);
  const auto &Conns = Circ.connections();
  std::vector<uint32_t> Checked;
  for (uint32_t I = 0; I != Conns.size(); ++I) {
    if (classifyCached(InstSummary, Conns[I]) == ConnectionSafety::SafeBySort)
      ++Result.SafeBySort;
    else
      Checked.push_back(I);
  }
  Result.NeedsCheck = Checked.size();
  safeBySortCounter().add(Result.SafeBySort);
  needsCheckCounter().add(Result.NeedsCheck);

  if (Checked.empty() || neededPortsAcyclic(Circ, InstSummary, Checked)) {
    Result.WellConnected = true;
  } else {
    // A loop exists. Only this error path builds the whole port graph,
    // so the witness is the one its walk finds.
    PortGraph PG = PortGraph::build(Circ, Summaries);
    std::optional<std::vector<uint32_t>> Cycle = PG.csr().findCycle();
    assert(Cycle && "restricted port graph is cyclic but the whole is not");
    support::Diag Diag(support::DiagCode::WS101_COMB_LOOP,
                       "combinational loop in circuit '" + Circ.name() +
                           "'");
    for (uint32_t Node : *Cycle) {
      PortRef Ref = PG.refOf(Node);
      Diag.addHop(Circ.instances()[Ref.Inst].Name,
                  Circ.defOf(Ref.Inst).wire(Ref.Port).Name);
    }
    Result.Diags.add(std::move(Diag));
    Result.WellConnected = false;
  }
  return Result;
}

bool analysis::isWellConnectedPair(const PortGraph &PG, const Circuit &Circ,
                                   const std::map<ModuleId, ModuleSummary>
                                       &Summaries,
                                   const Connection &C) {
  const ModuleSummary &FromSummary =
      Summaries.at(Circ.instances()[C.From.Inst].Def);
  const ModuleSummary &ToSummary =
      Summaries.at(Circ.instances()[C.To.Inst].Def);
  // For all w1 in input-ports(M1, wout), w2 in output-ports(M2, win):
  // require w2 does not transitively affect w1 (Definition 3.1). The w2
  // closures run 64-per-word through the bit-parallel kernel instead of
  // one BFS per w2.
  const std::vector<WireId> &W2s = ToSummary.outputPortSet(C.To.Port);
  const std::vector<WireId> &W1s = FromSummary.inputPortSet(C.From.Port);
  if (W2s.empty() || W1s.empty())
    return true;
  static thread_local ReachabilityKernel::Scratch SweepScratch;
  ReachabilityKernel Kernel(PG.csr(), SweepScratch,
                            ReachabilityKernel::laneWordsFor(W2s.size()));
  const uint32_t Lanes = Kernel.laneCount();
  const uint32_t LaneWords = Kernel.laneWords();
  std::vector<uint32_t> Sources;
  Sources.reserve(std::min<size_t>(Lanes, W2s.size()));
  for (size_t Base = 0; Base < W2s.size(); Base += Lanes) {
    const size_t Count = std::min<size_t>(Lanes, W2s.size() - Base);
    Sources.clear();
    for (size_t K = 0; K != Count; ++K)
      Sources.push_back(PG.nodeOf(PortRef{C.To.Inst, W2s[Base + K]}));
    Kernel.sweep(Sources.data(), static_cast<uint32_t>(Count));
    for (WireId W1 : W1s) {
      const uint64_t *Row = Kernel.row(PG.nodeOf(PortRef{C.From.Inst, W1}));
      for (uint32_t Word = 0; Word != LaneWords; ++Word)
        if (Row[Word] != 0)
          return false;
    }
  }
  return true;
}

CircuitCheckResult
analysis::checkCircuitPairwise(const Circuit &Circ,
                               const std::map<ModuleId, ModuleSummary>
                                   &Summaries) {
  trace::Span CheckSpan("analysis.check_circuit", "analysis");
  CheckSpan.note("circuit", Circ.name()).note("mode", "pairwise");
  CircuitCheckResult Result;
  PortGraph PG = PortGraph::build(Circ, Summaries);
  const std::vector<const ModuleSummary *> InstSummary =
      instanceSummaries(Circ, Summaries);
  const auto &Conns = Circ.connections();

  // Stage 2 plus query collection: one (connection, w2) query per member
  // of each checked connection's output-port-set. All queries across all
  // connections share the kernel's chunked sweeps, so the whole pairwise
  // pass costs ceil(|queries|/64) passes over the port graph's edges.
  struct PairQuery {
    uint32_t Conn;
    uint32_t SrcNode;
  };
  std::vector<PairQuery> Queries;
  std::vector<uint8_t> Failed(Conns.size(), 0);
  for (uint32_t I = 0; I != Conns.size(); ++I) {
    const Connection &C = Conns[I];
    if (classifyCached(InstSummary, C) == ConnectionSafety::SafeBySort) {
      ++Result.SafeBySort;
      continue;
    }
    ++Result.NeedsCheck;
    for (WireId W2 : InstSummary[C.To.Inst]->outputPortSet(C.To.Port))
      Queries.push_back({I, PG.nodeOf(PortRef{C.To.Inst, W2})});
  }
  safeBySortCounter().add(Result.SafeBySort);
  needsCheckCounter().add(Result.NeedsCheck);

  static thread_local ReachabilityKernel::Scratch SweepScratch;
  ReachabilityKernel Kernel(PG.csr(), SweepScratch,
                            ReachabilityKernel::laneWordsFor(Queries.size()));
  const uint32_t Lanes = Kernel.laneCount();
  std::vector<uint32_t> Sources;
  for (size_t Base = 0; Base < Queries.size(); Base += Lanes) {
    const size_t Count = std::min<size_t>(Lanes, Queries.size() - Base);
    Sources.clear();
    for (size_t K = 0; K != Count; ++K)
      Sources.push_back(Queries[Base + K].SrcNode);
    Kernel.sweep(Sources.data(), static_cast<uint32_t>(Count));
    // Queries for one connection are contiguous, so decode by runs of
    // equal Conn: the (w1 node, kernel row) lookups hoist out of the
    // per-lane loop, and a whole run's lanes are tested against each w1
    // row with word masks instead of per-bit probes.
    for (size_t RunLo = 0; RunLo != Count;) {
      const uint32_t ConnIdx = Queries[Base + RunLo].Conn;
      size_t RunHi = RunLo + 1;
      while (RunHi != Count && Queries[Base + RunHi].Conn == ConnIdx)
        ++RunHi;
      if (Failed[ConnIdx]) {
        RunLo = RunHi;
        continue;
      }
      const Connection &C = Conns[ConnIdx];
      const ModuleSummary &FromSummary = *InstSummary[C.From.Inst];
      for (WireId W1 : FromSummary.inputPortSet(C.From.Port)) {
        const uint64_t *Row =
            Kernel.row(PG.nodeOf(PortRef{C.From.Inst, W1}));
        const uint32_t WordBits = ReachabilityKernel::WordBits;
        bool Hit = false;
        for (size_t Word = RunLo / WordBits;
             Word != (RunHi + WordBits - 1) / WordBits && !Hit; ++Word) {
          uint64_t Keep = ~uint64_t{0};
          if (Word == RunLo / WordBits)
            Keep &= ~uint64_t{0} << (RunLo % WordBits);
          if (Word == (RunHi - 1) / WordBits && RunHi % WordBits != 0)
            Keep &= ~uint64_t{0} >> (WordBits - RunHi % WordBits);
          Hit = (Row[Word] & Keep) != 0;
        }
        if (Hit) {
          Failed[ConnIdx] = 1;
          break;
        }
      }
      RunLo = RunHi;
    }
  }

  Result.WellConnected = true;
  for (uint32_t I = 0; I != Conns.size(); ++I) {
    if (!Failed[I])
      continue;
    Result.WellConnected = false;
    const Connection &C = Conns[I];
    Result.Diags.add(
        support::Diag(support::DiagCode::WS101_COMB_LOOP,
                      "connection is not well-connected")
            .withHop(Circ.instances()[C.From.Inst].Name,
                     Circ.defOf(C.From.Inst).wire(C.From.Port).Name)
            .withHop(Circ.instances()[C.To.Inst].Name,
                     Circ.defOf(C.To.Inst).wire(C.To.Port).Name));
  }
  return Result;
}
