//===- support/CsrGraph.h - CSR graph + bit-parallel reach ------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one directed-graph type, a compressed-sparse-row graph,
/// plus a bit-parallel multi-source reachability kernel (see
/// docs/KERNEL.md).
///
/// Construction packs (From, To) edges into two flat arrays in one
/// stable counting pass, so every node keeps its successors in the order
/// their edges were listed. That order is what makes the graph
/// algorithms' answers reproducible: \ref CsrGraph::findCycle (the WS101
/// and WS401 witnesses), \ref CsrGraph::topoSort (Kahn, FIFO: the
/// simulator's evaluation order) and \ref CsrGraph::reachableFrom all
/// work on the packed arrays as built. The edges come from a vector, or
/// straight from the caller's own arrays through a callback that lists
/// them twice (once to count, once to fill), so Stage 1 never builds an
/// edge list.
///
/// \ref CsrGraph::freeze then settles the graph's order once, in place,
/// for the closure sweeps Stage-1 inference and Stage 3 run. Synthesized
/// netlists create wires in dependency order, so freeze usually proves
/// node ids are already topological; the few descending edges that do
/// occur (late-bound output-port wires) are repaired locally by
/// topologically ordering just their downstream closure, which also
/// settles acyclicity. Only genuinely cyclic graphs pay for a Tarjan
/// pass, whose SCC ids come out reverse-topological.
///
/// Freezing also settles the KERNEL LAYOUT: a second CSR over "sweep
/// positions" — condensation blocks renumbered so that every edge goes
/// from a lower position to a higher one. Repaired acyclic graphs use
/// the repair order as is (non-repaired nodes by ascending id, then the
/// repair set topologically); cyclic graphs use reversed Tarjan ids. The
/// permutation is applied and inverted internally (\ref
/// ReachabilityKernel maps public node ids through it on seed and
/// lookup), so NO public id ever changes. On the common all-ascending
/// acyclic graph the layout is the identity and aliases the forward CSR
/// at zero cost.
///
/// \ref ReachabilityKernel answers "which of these K sources reach node
/// n?" for up to 512 sources per sweep: an L-word lane row (L = 1, 2, 4
/// or 8 uint64_t, fixed per kernel) per block in one flat row-major
/// scratch arena, seeded with the sources' bits and OR-folded over
/// successors in one topological pass of plain word loops. Sweeps are
/// sparse — only blocks actually reachable from the chunk's sources are
/// visited, tracked in a frontier bitmap plus a dirty list that doubles
/// as the sparse reset set — so a sweep over a register-dominated graph
/// costs the size of the reached region, not of the whole module. No
/// per-source allocation anywhere, and scratch can be shared across
/// kernels (one \ref ReachabilityKernel::Scratch per thread, not per
/// module).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_CSRGRAPH_H
#define WIRESORT_SUPPORT_CSRGRAPH_H

#include "support/Deadline.h"

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace wiresort {

/// A directed graph over node indices [0, numNodes()), stored as CSR.
///
/// Nodes are dense integers so callers map their own entities (wires,
/// ports, gates, modules) to indices. Parallel edges and self-edges are
/// kept; they are harmless to every algorithm here.
///
/// The structure is fixed at construction. \ref freeze adds the order,
/// acyclicity verdict, SCC condensation and kernel layout that \ref
/// isAcyclic, the component queries and \ref ReachabilityKernel read;
/// \ref findCycle, \ref topoSort and \ref reachableFrom need no freeze.
class CsrGraph {
public:
  /// One directed edge, (From, To).
  using Edge = std::pair<uint32_t, uint32_t>;

  CsrGraph() : FwdRow(1, 0) {}

  /// Packs \p Edges over nodes [0, \p NumNodes) in one stable counting
  /// pass: each node's successors keep the order of its edges in \p
  /// Edges. So when \p Edges is sorted by source, CSR edge i is
  /// Edges[i] (see \ref edgeBegin).
  CsrGraph(size_t NumNodes, const std::vector<Edge> &Edges)
      : CsrGraph(NumNodes, [&Edges](auto &&Emit) {
          for (const auto &[From, To] : Edges)
            Emit(From, To);
        }) {}

  /// Packs the edges \p ListEdges lists over nodes [0, \p NumNodes), as
  /// the edge-list constructor packs a vector: \p ListEdges(Emit) must
  /// call Emit(From, To) once per edge, in the same order each time it
  /// is called, and it is called twice.
  template <typename ListEdges>
    requires std::invocable<ListEdges &, void (*)(uint32_t, uint32_t)>
  CsrGraph(size_t NumNodes, ListEdges &&List) : FwdRow(NumNodes + 1, 0) {
    // Count, then prefix-sum so FwdRow[n] is where node n's row starts.
    List([&](uint32_t From, [[maybe_unused]] uint32_t To) {
      assert(From < NumNodes && To < NumNodes && "edge endpoint out of range");
      ++FwdRow[From + 1];
    });
    for (size_t Node = 0; Node != NumNodes; ++Node)
      FwdRow[Node + 1] += FwdRow[Node];
    FwdCol.resize(FwdRow[NumNodes]);
    // Fill in listing order, advancing FwdRow[From] as row From's
    // cursor, so every row keeps its edges' order. Each cursor ends
    // where its row ends, which is where the next row starts: shifting
    // the array right by one restores the row starts.
    List([this](uint32_t From, uint32_t To) { FwdCol[FwdRow[From]++] = To; });
    std::copy_backward(FwdRow.begin(), FwdRow.end() - 1, FwdRow.end());
    FwdRow[0] = 0;
  }

  /// Settles the graph's order, acyclicity and kernel layout, in place.
  /// Idempotent: only the first call does work, and only it counts as a
  /// freeze (the kernel.freeze span and kernel.freeze* metrics).
  void freeze();

  size_t numNodes() const { return FwdRow.size() - 1; }

  size_t numEdges() const { return FwdCol.size(); }

  std::span<const uint32_t> successors(uint32_t Node) const {
    return {FwdCol.data() + FwdRow[Node], FwdCol.data() + FwdRow[Node + 1]};
  }

  /// Index of \p Node's first edge in the packed edge array; its edges
  /// are [edgeBegin(Node), edgeBegin(Node + 1)).
  uint32_t edgeBegin(uint32_t Node) const { return FwdRow[Node]; }

  /// Finds one cycle and returns it as a node sequence (first node is
  /// repeated logically, not physically): a self-loop if there is one,
  /// else a walk inside the first nontrivial SCC. \returns std::nullopt
  /// when the graph is acyclic.
  std::optional<std::vector<uint32_t>> findCycle() const;

  /// Topological order (Kahn's algorithm, FIFO: ready nodes leave in
  /// the order they became ready, initially by ascending id).
  /// \returns std::nullopt if the graph has a cycle.
  std::optional<std::vector<uint32_t>> topoSort() const;

  /// Forward-reachable node set from \p Start (including \p Start),
  /// returned as a dense boolean mask.
  std::vector<bool> reachableFrom(uint32_t Start) const;

  /// True iff the graph has no cycle (equivalently: no SCC of size > 1
  /// and no self-edge). Settled by \ref freeze, so this is a
  /// combinational-loop verdict for free.
  bool isAcyclic() const {
    assert(Frozen && "freeze() settles acyclicity");
    return Acyclic;
  }

  /// Number of strongly connected components. Acyclic graphs have the
  /// identity condensation (every node its own component) without ever
  /// running Tarjan.
  uint32_t numComponents() const {
    return isAcyclic() ? static_cast<uint32_t>(numNodes()) : NumComps;
  }

  /// SCC id of \p Node (the node itself when \ref isAcyclic). For cyclic
  /// graphs, ids follow Tarjan's numbering: reverse topological order of
  /// the condensation, i.e. for every edge u -> v crossing components,
  /// componentOf(v) < componentOf(u).
  uint32_t componentOf(uint32_t Node) const {
    return isAcyclic() ? Node : Comp[Node];
  }

  /// The nodes of component \p C, grouped at freeze time. Only available
  /// on cyclic graphs — acyclic condensations are the identity and never
  /// materialize member lists.
  std::span<const uint32_t> componentNodes(uint32_t C) const {
    assert(!isAcyclic() && "acyclic condensations are the identity");
    return {CompNodes.data() + CompRow[C], CompNodes.data() + CompRow[C + 1]};
  }

  /// Condensation block \p Block's sweep position (identity unless the
  /// layout was materialized). Node ids map via componentOf first.
  uint32_t kernelPos(uint32_t Block) const {
    return KernelPos.empty() ? Block : KernelPos[Block];
  }

private:
  /// Tarjan's strongly connected components (iterative; safe on
  /// million-node graphs). \returns node -> component id, ids assigned
  /// in reverse topological order of the condensation.
  std::vector<uint32_t> tarjanScc(uint32_t &NumComponents) const;

  // Forward CSR: FwdRow has numNodes()+1 offsets into FwdCol.
  std::vector<uint32_t> FwdRow, FwdCol;
  bool Frozen = false;
  bool Acyclic = true;
  /// Cyclic only: node -> component, plus nodes grouped by component.
  std::vector<uint32_t> Comp;
  std::vector<uint32_t> CompRow, CompNodes;
  uint32_t NumComps = 0;

  /// Kernel (sweep) layout: a CSR over sweep positions, where position
  /// p holds condensation block KernelPos^-1(p) and every edge goes to
  /// a strictly greater position. All three stay EMPTY for the identity
  /// layout (all-ascending acyclic graphs: node ids are already
  /// topological, so the forward CSR doubles as the kernel CSR at zero
  /// cost). A repaired acyclic graph takes its repair order as is: non-R
  /// nodes by ascending id, then the repair set R topologically. A
  /// cyclic graph takes reversed Tarjan ids; its intra-block (same-SCC)
  /// edges are dropped and cross-block parallel edges deduplicated, so
  /// cyclic sweeps never touch componentNodes.
  std::vector<uint32_t> KernelPos;
  std::vector<uint32_t> KernelRow, KernelCol;

  const uint32_t *kernelRowData() const {
    return KernelRow.empty() ? FwdRow.data() : KernelRow.data();
  }
  const uint32_t *kernelColData() const {
    return KernelRow.empty() ? FwdCol.data() : KernelCol.data();
  }

  friend class ReachabilityKernel;
};

/// Bit-parallel multi-source reachability over a frozen \ref CsrGraph.
///
/// One \ref sweep computes the forward closure of up to laneCount()
/// source nodes simultaneously: afterwards, lane k of \p Node's row
/// (\ref bit, or \ref mask / \ref row for word access) is set iff
/// Sources[k] reaches \p Node — with the same convention as
/// CsrGraph::reachableFrom, so a source always reaches itself. Callers
/// with more sources block them into chunks and sweep per chunk; \ref
/// laneWordsFor picks the widest sensible row for a source count.
///
/// Scratch lives in a \ref Scratch arena — one lane row per
/// condensation block in a single flat row-major array, a frontier
/// bitmap, and the dirty/worklist vectors — either owned by the kernel
/// or borrowed from the caller so repeated kernel constructions (one
/// per module in Stage-1 inference) reuse one allocation per thread.
/// Each sweep discovers the blocks reachable from its sources,
/// propagates lane rows over exactly those in topological (kernel
/// position) order, and sparsely resets them on the next sweep via the
/// dirty list. The kernel is exact on cyclic graphs: rows live on the
/// condensation, so every member of an SCC shares its component's
/// closure.
class ReachabilityKernel {
public:
  /// Lanes per row word.
  static constexpr uint32_t WordBits = 64;
  /// Widest supported row: 8 words = 512 source lanes.
  static constexpr uint32_t MaxLaneWords = 8;

  /// Reusable sweep scratch. Kernel-independent storage: construct one
  /// per thread and pass it to every kernel that thread builds — each
  /// kernel re-prepares (and right-sizes) it without shrinking
  /// capacity, so steady-state Stage-1 inference performs no scratch
  /// allocation at all on a thread that outlives one analyze() call
  /// (its caller, which infers each round's largest module); a
  /// SummaryEngine pool's workers live for one call and start empty. A
  /// Scratch may back only one live kernel at a time.
  struct Scratch {
    Scratch() = default;
    Scratch(const Scratch &) = delete;
    Scratch &operator=(const Scratch &) = delete;

  private:
    friend class ReachabilityKernel;
    /// Lane rows, NumBlocks x LaneWords row-major.
    std::vector<uint64_t> Mask;
    /// Discovery bitmap, one bit per block.
    std::vector<uint64_t> Frontier;
    /// Blocks touched by the previous sweep: the sparse reset set.
    std::vector<uint32_t> Dirty;
    /// Discovery worklist, reused across sweeps.
    std::vector<uint32_t> Work;
  };

  /// Self-contained kernel with \p LaneWords-word rows (1, 2, 4 or 8).
  /// \p G must be frozen (asserted) and outlive the kernel.
  explicit ReachabilityKernel(const CsrGraph &G, uint32_t LaneWords = 1)
      : ReachabilityKernel(G, OwnScratch, LaneWords) {}

  /// Kernel borrowing \p S (see \ref Scratch). \p G must be frozen;
  /// \p G and \p S must outlive the kernel.
  ReachabilityKernel(const CsrGraph &G, Scratch &S, uint32_t LaneWords = 1);

  ReachabilityKernel(const ReachabilityKernel &) = delete;
  ReachabilityKernel &operator=(const ReachabilityKernel &) = delete;

  /// The widest useful row for sweeping \p SourceCount sources:
  /// ceil(SourceCount/64) rounded up to 1, 2, 4 or 8 words, and 8 beyond
  /// 512 sources. More words than sources waste OR bandwidth; fewer
  /// cost extra sweeps.
  static uint32_t laneWordsFor(size_t SourceCount);

  uint32_t laneWords() const { return L; }
  /// Sources per sweep: laneWords() * 64.
  uint32_t laneCount() const { return L * WordBits; }

  /// Computes the closure of \p Sources[0..Count) (Count <=
  /// laneCount()), replacing any previous sweep's results. \returns
  /// true on completion. With an active \p DL the sweep polls it on
  /// entry and every 4096 blocks of each phase (plus the kernel.cancel
  /// failpoint) and returns false when it fires — the kernel's scratch
  /// stays reusable but the current rows are meaningless and must be
  /// discarded. A null \p DL (the default, and every pre-deadline
  /// caller) never aborts.
  bool sweep(const uint32_t *Sources, uint32_t Count,
             const support::Deadline *DL = nullptr);

  /// Post-sweep: \p Node's lane row, laneWords() words. Lane k (bit
  /// k%64 of word k/64) is set iff Sources[k] reaches \p Node
  /// (inclusive of Node == Sources[k]). The pointer is stable for the
  /// kernel's lifetime — hoist it out of per-lane decode loops instead
  /// of re-deriving it per bit test.
  const uint64_t *row(uint32_t Node) const {
    return S->Mask.data() + std::size_t(posOf(Node)) * L;
  }

  /// Post-sweep: lanes 0..63 of \p Node's row. The whole row when
  /// laneWords() == 1 (the historical single-word interface).
  uint64_t mask(uint32_t Node) const { return row(Node)[0]; }

  /// Post-sweep: does Sources[Lane] reach \p Node?
  bool bit(uint32_t Node, uint32_t Lane) const {
    return (row(Node)[Lane / WordBits] >> (Lane % WordBits)) & 1;
  }

private:
  uint32_t posOf(uint32_t Node) const {
    return G->kernelPos(G->componentOf(Node));
  }

  const CsrGraph *G;
  Scratch *S;
  uint32_t L;
  uint32_t NumBlocks;
  /// Backing store for the self-contained constructor; unused (empty)
  /// when scratch is borrowed.
  Scratch OwnScratch;
};

} // namespace wiresort

#endif // WIRESORT_SUPPORT_CSRGRAPH_H
