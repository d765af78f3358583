//===- support/CsrGraph.cpp - CSR graph + bit-parallel reach --------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "support/CsrGraph.h"

#include "support/FailPoint.h"
#include "support/Trace.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace wiresort;

namespace {
constexpr uint32_t Unvisited = UINT32_MAX;
} // namespace

void CsrGraph::freeze() {
  if (Frozen)
    return;
  Frozen = true;
  static trace::Counter &Freezes = trace::counter("kernel.freezes");
  static trace::Counter &Repairs =
      trace::counter("kernel.freeze_repairs");
  static trace::Histogram &FreezeUs = trace::histogram("kernel.freeze_us");
  trace::Span FreezeSpan("kernel.freeze", "kernel");
  const bool Timed = trace::countersEnabled();
  const uint64_t T0 = Timed ? trace::detail::nowNs() : 0;
  Freezes.add();
  const size_t N = numNodes();
  FreezeSpan.note("nodes", static_cast<uint64_t>(N));

  // The targets of descending edges are the only ones the order can trip
  // on.
  std::vector<uint32_t> DescTargets;
  for (uint32_t Node = 0; Node != N; ++Node)
    for (uint32_t Succ : successors(Node))
      if (Succ <= Node)
        DescTargets.push_back(Succ);

  // Synthesized netlists create wires in dependency order, so comb edges
  // usually ascend — node ids then ARE a topological order, the graph is
  // proven acyclic by the scan above, and the kernel layout is the
  // identity: the forward CSR doubles as the kernel CSR at zero cost.
  // Every cycle must contain a descending edge, so an all-ascending
  // graph needs no further proof.
  if (DescTargets.empty()) {
    if (Timed)
      FreezeUs.record((trace::detail::nowNs() - T0) / 1000);
    return;
  }
  // Descending edges defeated the identity-order proof; every one is a
  // repair the near-sorted pass (or Tarjan fallback) must absorb.
  Repairs.add(DescTargets.size());

  // Near-sorted repair: only nodes downstream of a descending edge can
  // be mis-placed by the identity order. That repair set R (the forward
  // closure of the descending-edge targets) is successor-closed, so a
  // valid order is "non-R nodes by ascending id, then R topologically":
  // edges inside non-R ascend (a descending one would put its target in
  // R), edges leaving non-R land in R, and edges inside R never escape.
  // Any cycle lies entirely inside R, so ordering R alone also settles
  // acyclicity — on a netlist with a handful of late-bound output wires
  // this replaces a full Kahn pass with work proportional to |R|.
  bool Cyclic = false;
  std::vector<uint32_t> TopoOrder;
  {
    std::vector<uint8_t> InR(N, 0);
    std::vector<uint32_t> RNodes, Work;
    auto enter = [&](uint32_t Node) {
      if (!InR[Node]) {
        InR[Node] = 1;
        RNodes.push_back(Node);
        Work.push_back(Node);
      }
    };
    for (uint32_t Target : DescTargets)
      enter(Target);
    while (!Work.empty()) {
      const uint32_t Node = Work.back();
      Work.pop_back();
      for (uint32_t Succ : successors(Node))
        enter(Succ);
    }

    // In-R in-degrees: edges from outside R are satisfied by the time R
    // starts, so only R-internal edges (whose sources are all in R,
    // successor-closedness again) gate a node's readiness.
    std::vector<uint32_t> InDegR(N, 0);
    for (uint32_t Node : RNodes)
      for (uint32_t Succ : successors(Node))
        ++InDegR[Succ];
    std::vector<uint32_t> ROrder;
    ROrder.reserve(RNodes.size());
    for (uint32_t Node : RNodes)
      if (InDegR[Node] == 0)
        ROrder.push_back(Node);
    for (size_t At = 0; At != ROrder.size(); ++At)
      for (uint32_t Succ : successors(ROrder[At]))
        if (--InDegR[Succ] == 0)
          ROrder.push_back(Succ);
    Cyclic = ROrder.size() != RNodes.size();

    if (!Cyclic) {
      // A valid topological order, used below as the kernel layout.
      TopoOrder.reserve(N);
      for (uint32_t Node = 0; Node != N; ++Node)
        if (!InR[Node])
          TopoOrder.push_back(Node);
      TopoOrder.insert(TopoOrder.end(), ROrder.begin(), ROrder.end());
    }
  }

  if (!Cyclic) {
    // Blocked kernel layout, acyclic repaired case. The repair order is
    // already a valid total order (every edge position-ascending): non-R
    // nodes keep ascending netlist ids — the order they were created in,
    // so row/col accesses stay as sequential as the identity case — and
    // the repair set is appended topologically. Using it directly keeps
    // the layout pass at one O(N + E) kernel-CSR fill; a longest-path
    // level sort buys nothing the sweep can measure and costs ~5x the
    // rest of freeze on register-dominated graphs.
    KernelPos.resize(N);
    for (uint32_t P = 0; P != N; ++P)
      KernelPos[TopoOrder[P]] = P;
    KernelRow.reserve(N + 1);
    KernelRow.push_back(0);
    KernelCol.resize(FwdCol.size());
    for (uint32_t P = 0, At = 0; P != N; ++P) {
      for (uint32_t Succ : successors(TopoOrder[P]))
        KernelCol[At++] = KernelPos[Succ];
      KernelRow.push_back(At);
    }
    if (Timed)
      FreezeUs.record((trace::detail::nowNs() - T0) / 1000);
    return;
  }

  // Cyclic: condense once with Tarjan. Component ids come out in reverse
  // topological order of the condensation, and the member nodes are
  // grouped for the kernel-layout pass and witness decoding.
  Acyclic = false;
  Comp = tarjanScc(NumComps);
  CompRow.assign(NumComps + 1, 0);
  for (uint32_t CompId : Comp)
    ++CompRow[CompId + 1];
  for (uint32_t CompId = 0; CompId != NumComps; ++CompId)
    CompRow[CompId + 1] += CompRow[CompId];
  CompNodes.resize(N);
  {
    std::vector<uint32_t> Next(CompRow.begin(), CompRow.end() - 1);
    for (uint32_t Node = 0; Node != N; ++Node)
      CompNodes[Next[Comp[Node]]++] = Node;
  }

  // Blocked kernel layout, cyclic case: position = reversed Tarjan id
  // (Tarjan ids are reverse-topological, so reversing makes every
  // cross-component edge position-ascending). The kernel CSR collapses
  // each SCC to one row — intra-block edges dropped, parallel
  // cross-block edges deduplicated with a stamp — so sweeps never
  // re-walk componentNodes or re-OR a successor per member edge.
  KernelPos.resize(NumComps);
  for (uint32_t CompId = 0; CompId != NumComps; ++CompId)
    KernelPos[CompId] = NumComps - 1 - CompId;
  KernelRow.reserve(NumComps + 1);
  KernelRow.push_back(0);
  std::vector<uint32_t> Stamp(NumComps, UINT32_MAX);
  for (uint32_t P = 0; P != NumComps; ++P) {
    for (uint32_t Node : componentNodes(NumComps - 1 - P))
      for (uint32_t Succ : successors(Node)) {
        const uint32_t Q = KernelPos[Comp[Succ]];
        if (Q != P && Stamp[Q] != P) {
          Stamp[Q] = P;
          KernelCol.push_back(Q);
        }
      }
    KernelRow.push_back(static_cast<uint32_t>(KernelCol.size()));
  }
  if (Timed)
    FreezeUs.record((trace::detail::nowNs() - T0) / 1000);
}

std::vector<uint32_t> CsrGraph::tarjanScc(uint32_t &NumComponents) const {
  const size_t N = numNodes();
  std::vector<uint32_t> Index(N, Unvisited);
  std::vector<uint32_t> LowLink(N, 0);
  std::vector<bool> OnStack(N, false);
  std::vector<uint32_t> Component(N, Unvisited);
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 0;
  NumComponents = 0;

  // Iterative Tarjan: each frame records the node and the position of
  // its next edge so the DFS can resume after returning from a child.
  struct Frame {
    uint32_t Node;
    uint32_t EdgePos;
  };
  std::vector<Frame> CallStack;

  for (uint32_t Root = 0; Root != N; ++Root) {
    if (Index[Root] != Unvisited)
      continue;
    CallStack.push_back({Root, FwdRow[Root]});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;

    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      if (F.EdgePos != FwdRow[F.Node + 1]) {
        uint32_t Child = FwdCol[F.EdgePos++];
        if (Index[Child] == Unvisited) {
          Index[Child] = LowLink[Child] = NextIndex++;
          Stack.push_back(Child);
          OnStack[Child] = true;
          CallStack.push_back({Child, FwdRow[Child]});
        } else if (OnStack[Child] && Index[Child] < LowLink[F.Node]) {
          LowLink[F.Node] = Index[Child];
        }
        continue;
      }
      // All successors done: maybe pop an SCC, then return to parent.
      if (LowLink[F.Node] == Index[F.Node]) {
        uint32_t Member;
        do {
          Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          Component[Member] = NumComponents;
        } while (Member != F.Node);
        ++NumComponents;
      }
      uint32_t Done = F.Node;
      CallStack.pop_back();
      if (!CallStack.empty()) {
        uint32_t Parent = CallStack.back().Node;
        if (LowLink[Done] < LowLink[Parent])
          LowLink[Parent] = LowLink[Done];
      }
    }
  }
  return Component;
}

std::optional<std::vector<uint32_t>> CsrGraph::findCycle() const {
  // Self-loop: the smallest possible cycle.
  for (uint32_t Node = 0; Node != numNodes(); ++Node)
    for (uint32_t Succ : successors(Node))
      if (Succ == Node)
        return std::vector<uint32_t>{Node};

  uint32_t NumComponents = 0;
  std::vector<uint32_t> Component = tarjanScc(NumComponents);
  std::vector<uint32_t> Size(NumComponents, 0);
  for (uint32_t C : Component)
    ++Size[C];

  // Otherwise find a node in a nontrivial SCC and walk within the SCC
  // until a node repeats; the walk can never escape an SCC if we only
  // follow intra-SCC edges.
  for (uint32_t Start = 0; Start != numNodes(); ++Start) {
    if (Size[Component[Start]] <= 1)
      continue;
    std::vector<uint32_t> Path;
    std::vector<uint32_t> PosInPath(numNodes(), Unvisited);
    uint32_t Cur = Start;
    while (true) {
      if (PosInPath[Cur] != Unvisited)
        return std::vector<uint32_t>(Path.begin() + PosInPath[Cur],
                                     Path.end());
      PosInPath[Cur] = static_cast<uint32_t>(Path.size());
      Path.push_back(Cur);
      uint32_t Next = Unvisited;
      for (uint32_t Succ : successors(Cur)) {
        if (Component[Succ] == Component[Cur]) {
          Next = Succ;
          break;
        }
      }
      assert(Next != Unvisited && "nontrivial SCC node lacks intra-SCC edge");
      Cur = Next;
    }
  }
  return std::nullopt;
}

std::optional<std::vector<uint32_t>> CsrGraph::topoSort() const {
  const size_t N = numNodes();
  std::vector<uint32_t> InDegree(N, 0);
  for (uint32_t Succ : FwdCol)
    ++InDegree[Succ];

  // Order doubles as the FIFO queue: a node is appended when it becomes
  // ready and leaves in that order.
  std::vector<uint32_t> Order;
  Order.reserve(N);
  for (uint32_t Node = 0; Node != N; ++Node)
    if (InDegree[Node] == 0)
      Order.push_back(Node);
  for (size_t At = 0; At != Order.size(); ++At)
    for (uint32_t Succ : successors(Order[At]))
      if (--InDegree[Succ] == 0)
        Order.push_back(Succ);
  if (Order.size() != N)
    return std::nullopt;
  return Order;
}

std::vector<bool> CsrGraph::reachableFrom(uint32_t Start) const {
  std::vector<bool> Seen(numNodes(), false);
  std::vector<uint32_t> Work{Start};
  Seen[Start] = true;
  while (!Work.empty()) {
    uint32_t Node = Work.back();
    Work.pop_back();
    for (uint32_t Succ : successors(Node)) {
      if (!Seen[Succ]) {
        Seen[Succ] = true;
        Work.push_back(Succ);
      }
    }
  }
  return Seen;
}

namespace {

/// Blocks each sweep phase processes between deadline polls: the
/// kernel's deadline granularity (docs/ROBUSTNESS.md).
constexpr uint32_t PollGrain = 4096;

/// The deadline poll, amortized: a clock read per block would dominate
/// the sweep, so an active deadline costs one decrement of the phase's
/// \p Budget per block and a clock read (plus the kernel.cancel
/// failpoint, which simulates expiry deterministically) every PollGrain
/// blocks. A null deadline costs one predicted branch. \returns true
/// when the phase must abort.
bool pollExpired(const support::Deadline *DL, uint32_t &Budget) {
  if (!DL || --Budget != 0)
    return false;
  Budget = PollGrain;
  return DL->expired() || WS_FAILPOINT("kernel.cancel");
}

/// ORs position P's L-word lane row into each successor's row. Kernel
/// CSR guarantees every successor position is strictly greater than P,
/// so the source row is never a destination and its words are loaded
/// once.
template <uint32_t L>
void propagateBlock(uint64_t *Mask, const uint32_t *Row, const uint32_t *Col,
                    uint32_t P) {
  const uint32_t Begin = Row[P], End = Row[P + 1];
  if (Begin == End)
    return;
  uint64_t Src[L];
  for (uint32_t I = 0; I != L; ++I)
    Src[I] = Mask[std::size_t(P) * L + I];
  for (uint32_t Idx = Begin; Idx != End; ++Idx) {
    uint64_t *Dst = Mask + std::size_t(Col[Idx]) * L;
    for (uint32_t I = 0; I != L; ++I)
      Dst[I] |= Src[I];
  }
}

/// Phase 2 at row width L: propagates lane rows over the discovered
/// positions in ascending (= topological) order. Dense passes peel the
/// frontier bitmap a word at a time; sparse passes walk the sorted
/// discovery list. \returns false when \p DL fires mid-pass.
template <uint32_t L>
bool propagate(uint64_t *Mask, const uint32_t *Row, const uint32_t *Col,
               const std::vector<uint64_t> &Frontier,
               const std::vector<uint32_t> &SortedDirty, bool Dense,
               const support::Deadline *DL) {
  uint32_t Budget = PollGrain;
  if (!Dense) {
    for (uint32_t P : SortedDirty) {
      if (pollExpired(DL, Budget))
        return false;
      propagateBlock<L>(Mask, Row, Col, P);
    }
    return true;
  }
  for (std::size_t W = 0; W != Frontier.size(); ++W)
    for (uint64_t Bits = Frontier[W]; Bits != 0; Bits &= Bits - 1) {
      if (pollExpired(DL, Budget))
        return false;
      propagateBlock<L>(Mask, Row, Col,
                        static_cast<uint32_t>(W * 64 + std::countr_zero(Bits)));
    }
  return true;
}

} // namespace

ReachabilityKernel::ReachabilityKernel(const CsrGraph &G, Scratch &S,
                                       uint32_t LaneWords)
    : G(&G), S(&S), L(LaneWords), NumBlocks(G.numComponents()) {
  assert((LaneWords == 1 || LaneWords == 2 || LaneWords == 4 ||
          LaneWords == 8) &&
         "lane rows are 1, 2, 4 or 8 words");
  // assign() reuses capacity: with a per-thread Scratch this is a
  // memset, not a malloc, for every module after the largest.
  S.Mask.assign(std::size_t(NumBlocks) * L, 0);
  S.Frontier.assign((NumBlocks + 63) / 64, 0);
  S.Dirty.clear();
  S.Work.clear();
}

uint32_t ReachabilityKernel::laneWordsFor(size_t SourceCount) {
  if (SourceCount <= WordBits)
    return 1;
  if (SourceCount <= 2 * WordBits)
    return 2;
  if (SourceCount <= 4 * WordBits)
    return 4;
  return MaxLaneWords;
}

bool ReachabilityKernel::sweep(const uint32_t *Sources, uint32_t Count,
                               const support::Deadline *DL) {
  assert(Count <= laneCount() &&
         "a sweep carries at most laneWords()*64 source lanes");
  static trace::Counter &Sweeps = trace::counter("kernel.sweeps");
  static trace::Counter &WordsSwept =
      trace::counter("kernel.words_swept");
  static trace::Counter &FrontierBlocks =
      trace::counter("kernel.frontier_blocks");
  static trace::Counter &DensePasses =
      trace::counter("kernel.sweeps_dense");
  static trace::Counter &SparsePasses =
      trace::counter("kernel.sweeps_sparse");
  static trace::Histogram &FrontierUs =
      trace::histogram("kernel.frontier_us");
  static trace::Histogram &SweepUs = trace::histogram("kernel.sweep_us");
  Sweeps.add();
  const bool Timed = trace::countersEnabled();

  // Sparse reset of the previous sweep's footprint: between sweeps the
  // lane rows and the frontier bitmap are all-zero except at Dirty
  // positions.
  for (uint32_t P : S->Dirty) {
    uint64_t *Row = S->Mask.data() + std::size_t(P) * L;
    for (uint32_t I = 0; I != L; ++I)
      Row[I] = 0;
    S->Frontier[P / 64] &= ~(uint64_t{1} << (P % 64));
  }
  S->Dirty.clear();
  if (DL && (DL->expired() || WS_FAILPOINT("kernel.cancel")))
    return false;
  if (Count == 0)
    return true;

  // Phase 1 (frontier): seed the lane bits and discover every block
  // reachable from the sources, entirely in kernel position space over
  // the blocked CSR. Dirty doubles as the reset list for the next
  // sweep; the bitmap is the dense pass's iteration order.
  const uint64_t TF0 = Timed ? trace::detail::nowNs() : 0;
  const uint32_t *Row = G->kernelRowData();
  const uint32_t *Col = G->kernelColData();
  uint64_t *Mask = S->Mask.data();
  auto visit = [&](uint32_t P) {
    uint64_t &W = S->Frontier[P / 64];
    const uint64_t Bit = uint64_t{1} << (P % 64);
    if (!(W & Bit)) {
      W |= Bit;
      S->Dirty.push_back(P);
      S->Work.push_back(P);
    }
  };
  for (uint32_t K = 0; K != Count; ++K) {
    const uint32_t P = posOf(Sources[K]);
    Mask[std::size_t(P) * L + K / WordBits] |= uint64_t{1}
                                               << (K % WordBits);
    visit(P);
  }
  uint32_t Budget = PollGrain;
  while (!S->Work.empty()) {
    if (pollExpired(DL, Budget)) {
      S->Work.clear(); // The worklist is reused; leave it empty on abort.
      return false;
    }
    const uint32_t P = S->Work.back();
    S->Work.pop_back();
    for (uint32_t Idx = Row[P]; Idx != Row[P + 1]; ++Idx)
      visit(Col[Idx]);
  }
  FrontierBlocks.add(S->Dirty.size());
  // One L-word lane row per discovered block is what phase 2 settles.
  WordsSwept.add(S->Dirty.size() * L);
  if (Timed) {
    const uint64_t TF1 = trace::detail::nowNs();
    FrontierUs.record((TF1 - TF0) / 1000);
  }

  // Phase 2 (sweep): propagate lane rows over exactly the discovered
  // positions in ascending (= topological) position order. When the
  // sources reach most of the graph, scanning the frontier bitmap beats
  // sorting the discovery list; when they reach a sliver, sorting the
  // sliver wins.
  const uint64_t TS0 = Timed ? trace::detail::nowNs() : 0;
  const bool Dense = S->Dirty.size() >= NumBlocks / 8;
  if (Dense) {
    DensePasses.add();
  } else {
    SparsePasses.add();
    std::sort(S->Dirty.begin(), S->Dirty.end());
  }
  const auto Pass = L == 1   ? &propagate<1>
                    : L == 2 ? &propagate<2>
                    : L == 4 ? &propagate<4>
                             : &propagate<8>;
  const bool Ok = Pass(Mask, Row, Col, S->Frontier, S->Dirty, Dense, DL);
  if (Timed && Ok)
    SweepUs.record((trace::detail::nowNs() - TS0) / 1000);
  return Ok;
}
