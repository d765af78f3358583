//===- tests/support/CsrGraphTest.cpp - CSR freeze + kernel tests ---------===//
//
// Part of the wiresort project. Pins the bit-parallel reachability kernel
// (support/CsrGraph.h) to the per-source BFS of the test-only adjacency
// list in RefGraph.h:
// on every graph, for every source, at every row width L in {1, 2, 4, 8},
// the kernel's rows must equal the BFS sets bit for bit. Randomized
// coverage spans 200+ seeded DAGs and cyclic graphs; directed cases cover
// the empty graph, self-loops, the source counts around every row-width
// boundary, and the deadline poll inside both phases of a dense and a
// sparse sweep.
//
// tools/run_tests.sh reruns this binary under sanitizers, so keep it
// self-contained.
//
//===----------------------------------------------------------------------===//

#include "support/CsrGraph.h"

#include "support/FailPoint.h"
#include "support/RefGraph.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <vector>

using namespace wiresort;
using wiresort::test::RefGraph;
using Edges = std::vector<CsrGraph::Edge>;

namespace {

CsrGraph frozen(size_t NumNodes, const Edges &E) {
  CsrGraph G(NumNodes, E);
  G.freeze();
  return G;
}

/// Sweeps \p Sources through a kernel at every row width L in {1, 2, 4,
/// 8}, chunked by laneCount(), and checks each node's whole row word for
/// word against the oracle's BFS from each of the chunk's sources. Lanes
/// past the chunk's source count must stay clear.
void expectKernelMatchesBfs(size_t N, const Edges &E,
                            const std::vector<uint32_t> &Sources) {
  const RefGraph G(N, E);
  std::vector<std::vector<bool>> Oracle;
  for (uint32_t Src : Sources)
    Oracle.push_back(G.reachableFrom(Src));
  const CsrGraph Csr = frozen(N, E);
  for (uint32_t LaneWords : {1u, 2u, 4u, 8u}) {
    ReachabilityKernel Kernel(Csr, LaneWords);
    for (size_t Base = 0; Base < Sources.size(); Base += Kernel.laneCount()) {
      const uint32_t Count = static_cast<uint32_t>(
          std::min<size_t>(Kernel.laneCount(), Sources.size() - Base));
      ASSERT_TRUE(Kernel.sweep(Sources.data() + Base, Count));
      for (uint32_t Node = 0; Node != G.numNodes(); ++Node) {
        std::vector<uint64_t> Want(LaneWords, 0);
        for (uint32_t K = 0; K != Count; ++K)
          if (Oracle[Base + K][Node])
            Want[K / ReachabilityKernel::WordBits] |=
                uint64_t{1} << (K % ReachabilityKernel::WordBits);
        const uint64_t *Row = Kernel.row(Node);
        EXPECT_EQ(std::vector<uint64_t>(Row, Row + LaneWords), Want)
            << "L=" << LaneWords << " first source " << Sources[Base]
            << " node " << Node;
      }
    }
  }
}

/// Nodes 0 to \p N - 1, all of them as sources.
std::vector<uint32_t> allNodes(size_t N) {
  std::vector<uint32_t> Nodes(N);
  std::iota(Nodes.begin(), Nodes.end(), 0);
  return Nodes;
}

/// Sweeps every node of the graph as a source.
void expectKernelMatchesBfs(size_t N, const Edges &E) {
  expectKernelMatchesBfs(N, E, allNodes(N));
}

Edges randomGraph(std::mt19937 &Rng, bool Dag, uint32_t &N) {
  std::uniform_int_distribution<uint32_t> NodeCount(1, 70);
  N = NodeCount(Rng);
  Edges G;
  std::uniform_int_distribution<uint32_t> Node(0, N - 1);
  std::uniform_int_distribution<uint32_t> EdgeCount(0, 3 * N);
  // DAG mode orients edges along a random node permutation, not along
  // node ids: acyclic by construction yet full of descending-id edges,
  // so the freeze cannot take its ascending-ids shortcut and the repair
  // ordering gets exercised with a large repair set.
  std::vector<uint32_t> Pos(N);
  std::iota(Pos.begin(), Pos.end(), 0);
  std::shuffle(Pos.begin(), Pos.end(), Rng);
  for (uint32_t I = 0, E = EdgeCount(Rng); I != E; ++I) {
    uint32_t From = Node(Rng), To = Node(Rng);
    if (Dag) {
      if (Pos[From] == Pos[To])
        continue;
      if (Pos[From] > Pos[To])
        std::swap(From, To);
    }
    G.emplace_back(From, To);
  }
  return G;
}

} // namespace

TEST(CsrGraphTest, EmptyGraphFreezes) {
  CsrGraph Csr = frozen(0, {});
  EXPECT_EQ(Csr.numNodes(), 0u);
  EXPECT_EQ(Csr.numEdges(), 0u);
  EXPECT_EQ(Csr.numComponents(), 0u);
  // A kernel over the empty graph accepts an empty sweep.
  ReachabilityKernel Kernel(Csr);
  Kernel.sweep(nullptr, 0);
}

TEST(CsrGraphTest, CsrMirrorsAdjacencyAndCachesEdgeCount) {
  const Edges E = {{0, 1}, {0, 2}, {2, 3},
                   {3, 2},  // Cycle.
                   {4, 4},  // Self-loop.
                   {0, 1}}; // Parallel edge survives the freeze.
  const RefGraph G(5, E);
  CsrGraph Csr = frozen(5, E);
  EXPECT_EQ(Csr.numNodes(), 5u);
  EXPECT_EQ(Csr.numEdges(), E.size());

  for (uint32_t Node = 0; Node != 5; ++Node) {
    std::vector<uint32_t> Succs(Csr.successors(Node).begin(),
                                Csr.successors(Node).end());
    EXPECT_EQ(Succs, G.Succs[Node]) << "node " << Node;
  }
}

TEST(CsrGraphTest, FreezeIsIdempotent) {
  // Only the first freeze does work and counts; the second leaves the
  // layout, the verdict and the kernel.freeze* metrics alone.
  trace::SessionOptions MetricsOnly;
  MetricsOnly.CollectSpans = false;
  trace::Session Metrics(MetricsOnly);
  trace::Counter &Freezes = trace::counter("kernel.freezes");
  trace::Counter &Repairs = trace::counter("kernel.freeze_repairs");
  CsrGraph Csr(4, {{0, 1}, {1, 2}, {2, 1}, {3, 0}});
  const uint64_t FreezesBefore = Freezes.value();
  const uint64_t RepairsBefore = Repairs.value();
  Csr.freeze();
  EXPECT_EQ(Freezes.value(), FreezesBefore + 1);
  EXPECT_EQ(Repairs.value(), RepairsBefore + 2);
  const uint32_t Comps = Csr.numComponents();
  Csr.freeze();
  EXPECT_EQ(Freezes.value(), FreezesBefore + 1);
  EXPECT_EQ(Repairs.value(), RepairsBefore + 2);
  EXPECT_FALSE(Csr.isAcyclic());
  EXPECT_EQ(Csr.numComponents(), Comps);
  expectKernelMatchesBfs(4, {{0, 1}, {1, 2}, {2, 1}, {3, 0}});
}

TEST(CsrGraphTest, AcyclicGraphsHaveIdentityCondensation) {
  // Acyclic freezes never run Tarjan: every node is its own component —
  // both on the ascending-ids shortcut and on the repair path.
  const Edges Ascending = {{0, 1}, {1, 2}, {0, 3}};
  // Descending-id edges force the repair ordering.
  const Edges Shuffled = {{3, 1}, {1, 0}, {3, 2}};
  for (const Edges *E : {&Ascending, &Shuffled}) {
    CsrGraph Csr = frozen(4, *E);
    EXPECT_TRUE(Csr.isAcyclic());
    EXPECT_EQ(Csr.numComponents(), 4u);
    for (uint32_t Node = 0; Node != 4; ++Node)
      EXPECT_EQ(Csr.componentOf(Node), Node);
    expectKernelMatchesBfs(4, *E);
  }
}

TEST(CsrGraphTest, NearSortedGraphRepairsDescendingTail) {
  // Mostly-ascending netlist shape: a long ascending chain plus a couple
  // of descending edges whose targets have further successors, so the
  // repair set is a small non-trivial region rather than the whole graph.
  Edges G;
  for (uint32_t Node = 0; Node != 5; ++Node)
    G.emplace_back(Node, Node + 1);
  G.emplace_back(6, 2); // Descending; 2 and its chain join the repair set.
  G.emplace_back(7, 0); // Descending onto the chain head.
  G.emplace_back(5, 7); // Ascending feed into a descending-edge source.
  EXPECT_FALSE(frozen(8, G).isAcyclic()); // 0..5 -> 7 -> 0 closes a cycle.

  Edges H;
  for (uint32_t Node = 0; Node != 5; ++Node)
    H.emplace_back(Node, Node + 1);
  H.emplace_back(6, 2); // Descending but acyclic: 2 never reaches 6.
  H.emplace_back(6, 7);
  EXPECT_TRUE(frozen(8, H).isAcyclic());
  expectKernelMatchesBfs(8, H);
}

TEST(CsrGraphTest, ComponentsGroupTheCycle) {
  CsrGraph Csr = frozen(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  EXPECT_FALSE(Csr.isAcyclic());
  EXPECT_EQ(Csr.numComponents(), 3u);
  EXPECT_EQ(Csr.componentOf(1), Csr.componentOf(2));
  EXPECT_NE(Csr.componentOf(0), Csr.componentOf(1));
  // Tarjan ids are reverse-topological: successors get smaller ids.
  EXPECT_LT(Csr.componentOf(3), Csr.componentOf(1));
  EXPECT_LT(Csr.componentOf(1), Csr.componentOf(0));
  EXPECT_EQ(Csr.componentNodes(Csr.componentOf(1)).size(), 2u);
}

TEST(CsrGraphTest, SelfLoopGraphMatchesBfs) {
  expectKernelMatchesBfs(3, {{0, 0}, {0, 1}});
}

TEST(CsrGraphTest, SingleNodeNoEdgesReachesOnlyItself) {
  expectKernelMatchesBfs(1, {});
}

TEST(CsrGraphTest, ChunkBoundarySourceCounts) {
  // Source counts straddling every row-width boundary: 63/64/65 (one
  // word), 127/128/129 (two words -> four) and 511/512/513 (the 8-word,
  // 512-lane ceiling; 513 forces a second sweep). Each runs at every
  // row width, laneWordsFor(N) included, so narrower rows chunk the same
  // sources into more sweeps. A layered fan graph gives every source a
  // distinct closure so lane mix-ups cannot cancel out.
  for (uint32_t NumSources :
       {63u, 64u, 65u, 127u, 128u, 129u, 511u, 512u, 513u}) {
    const uint32_t N = NumSources + 40;
    Edges G;
    std::mt19937 Rng(NumSources);
    std::uniform_int_distribution<uint32_t> Sink(NumSources, N - 1);
    for (uint32_t S = 0; S != NumSources; ++S) {
      G.emplace_back(S, Sink(Rng));
      G.emplace_back(S, Sink(Rng));
    }
    for (uint32_t Node = NumSources; Node + 1 != N; ++Node)
      if (Rng() % 2)
        G.emplace_back(Node, Node + 1);
    expectKernelMatchesBfs(N, G, allNodes(NumSources));
  }
}

TEST(CsrGraphTest, LaneWordsForThresholds) {
  // ceil(sources / 64) words, rounded up to 1, 2, 4 or 8 and capped at 8.
  const std::pair<size_t, uint32_t> Cases[] = {
      {1, 1},   {64, 1},  {65, 2},  {128, 2},   {129, 4},
      {256, 4}, {257, 8}, {512, 8}, {100000, 8}};
  for (const auto &[Sources, Words] : Cases)
    EXPECT_EQ(ReachabilityKernel::laneWordsFor(Sources), Words)
        << Sources << " sources";
}

TEST(CsrGraphTest, ScratchReuseAcrossSweepsIsClean) {
  // A second sweep over disjoint sources must not inherit lanes from the
  // first: sweep once from a node reaching everything, then from an
  // isolated node, and demand an empty lane everywhere else.
  CsrGraph Csr = frozen(4, {{0, 1}, {1, 2}});
  ReachabilityKernel Kernel(Csr);
  const uint32_t First[] = {0};
  Kernel.sweep(First, 1);
  EXPECT_EQ(Kernel.mask(2), 1u);
  const uint32_t Second[] = {3};
  Kernel.sweep(Second, 1);
  EXPECT_EQ(Kernel.mask(0), 0u);
  EXPECT_EQ(Kernel.mask(2), 0u);
  EXPECT_EQ(Kernel.mask(3), 1u);
}

TEST(CsrGraphTest, RandomDagsMatchPerSourceBfs) {
  std::mt19937 Rng(101);
  for (int Trial = 0; Trial != 100; ++Trial) {
    uint32_t N;
    const Edges G = randomGraph(Rng, /*Dag=*/true, N);
    expectKernelMatchesBfs(N, G);
  }
}

TEST(CsrGraphTest, RandomCyclicGraphsMatchPerSourceBfs) {
  std::mt19937 Rng(202);
  for (int Trial = 0; Trial != 100; ++Trial) {
    uint32_t N;
    const Edges G = randomGraph(Rng, /*Dag=*/false, N);
    expectKernelMatchesBfs(N, G);
  }
}

TEST(CsrGraphTest, DenseStronglyConnectedGraphSharesClosure) {
  // One big SCC: every node reaches every node, so after any sweep every
  // node's mask must carry every seeded lane.
  const uint32_t N = 80;
  Edges G;
  for (uint32_t I = 0; I != N; ++I)
    G.emplace_back(I, (I + 1) % N);
  CsrGraph Csr = frozen(N, G);
  EXPECT_EQ(Csr.numComponents(), 1u);
  ReachabilityKernel Kernel(Csr);
  std::vector<uint32_t> Sources(ReachabilityKernel::WordBits);
  std::iota(Sources.begin(), Sources.end(), 0);
  Kernel.sweep(Sources.data(), ReachabilityKernel::WordBits);
  for (uint32_t Node = 0; Node != N; ++Node)
    EXPECT_EQ(Kernel.mask(Node), ~uint64_t{0});
}

TEST(CsrGraphTest, DeadlinePollInsideDenseAndSparseSweeps) {
  // A chain from node 0 reaches 3 * 4096 + 100 blocks, so each sweep
  // phase polls three times. Alone, the chain reaches every block and
  // takes the dense pass; padded with eight times as many isolated
  // nodes it reaches under an eighth of the blocks and takes the sparse
  // pass. A live deadline turns the polls on; kernel.cancel is hit once
  // at sweep entry and then at every poll, so with P polls per phase
  // nth(3) fires at discovery's second poll and nth(P + 3) at the
  // propagation pass's second poll.
  constexpr uint32_t PollGrain = 4096;
  constexpr uint32_t Reached = 3 * PollGrain + 100;
  constexpr uint32_t PollsPerPhase = Reached / PollGrain;
  trace::SessionOptions MetricsOnly;
  MetricsOnly.CollectSpans = false;
  trace::Session Metrics(MetricsOnly);
  trace::Counter &FrontierBlocks = trace::counter("kernel.frontier_blocks");
  trace::Counter &Dense = trace::counter("kernel.sweeps_dense");
  trace::Counter &Sparse = trace::counter("kernel.sweeps_sparse");
  support::failpoint::Site &Cancel = support::failpoint::site("kernel.cancel");
  const support::Deadline Live = support::Deadline::afterMs(0);
  ASSERT_TRUE(Live.active());
  const uint32_t Head[] = {0};

  for (const bool DenseShape : {true, false}) {
    const uint32_t N = DenseShape ? Reached : 9 * Reached;
    Edges Chain;
    for (uint32_t Node = 0; Node + 1 != Reached; ++Node)
      Chain.emplace_back(Node, Node + 1);
    const RefGraph G(N, Chain);
    const CsrGraph Csr = frozen(N, Chain);
    ReachabilityKernel::Scratch Scratch;
    ReachabilityKernel Kernel(Csr, Scratch);
    trace::Counter &Pass = DenseShape ? Dense : Sparse;

    for (const uint32_t Nth : {3u, PollsPerPhase + 3}) {
      const bool InDiscovery = Nth <= 1 + PollsPerPhase;
      SCOPED_TRACE(std::string(DenseShape ? "dense" : "sparse") +
                   " shape, nth(" + std::to_string(Nth) + ")");
      const uint64_t BlocksBefore = FrontierBlocks.value();
      const uint64_t PassesBefore = Dense.value() + Sparse.value();
      const uint64_t PassBefore = Pass.value();
      ASSERT_TRUE(support::failpoint::configure(
                      "kernel.cancel=nth(" + std::to_string(Nth) + ")")
                      .empty());
      EXPECT_FALSE(Kernel.sweep(Head, 1, &Live));
      EXPECT_EQ(Cancel.hits(), Nth);
      EXPECT_EQ(Cancel.fires(), 1u);
      if (InDiscovery) {
        // Discovery never finished: no frontier, no propagation pass.
        EXPECT_EQ(FrontierBlocks.value(), BlocksBefore);
        EXPECT_EQ(Dense.value() + Sparse.value(), PassesBefore);
      } else {
        EXPECT_EQ(FrontierBlocks.value(), BlocksBefore + Reached);
        EXPECT_EQ(Pass.value(), PassBefore + 1);
        EXPECT_EQ(Dense.value() + Sparse.value(), PassesBefore + 1);
      }
      support::failpoint::disarmAll();

      // The aborted sweep left the shared scratch reusable: a sweep from
      // near the chain's end sees none of its rows or worklist.
      const uint32_t Tail[] = {Reached - 100};
      const uint64_t BlocksBeforeRetry = FrontierBlocks.value();
      ASSERT_TRUE(Kernel.sweep(Tail, 1, &Live));
      EXPECT_EQ(FrontierBlocks.value(), BlocksBeforeRetry + 100);
      const std::vector<bool> Oracle = G.reachableFrom(Tail[0]);
      for (uint32_t Node = 0; Node != G.numNodes(); ++Node)
        ASSERT_EQ(Kernel.mask(Node), Oracle[Node] ? 1u : 0u)
            << "node " << Node;
    }
  }
}
