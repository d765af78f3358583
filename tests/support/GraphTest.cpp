//===- tests/support/GraphTest.cpp - Graph algorithm tests ----------------===//
//
// Part of the wiresort project. The graph algorithms of support::CsrGraph
// — findCycle, topoSort (Kahn, FIFO), reachableFrom and the freeze's
// acyclicity verdict and Tarjan condensation — on directed cases, against
// the adjacency-list oracle in RefGraph.h on 200 seeded random graphs,
// and pinned by a digest of every findCycle and topoSort result on those
// graphs: WS101/WS401 witnesses and the simulator's evaluation order are
// these results, so a change to either algorithm's visiting order shows
// up here before it shows up in a golden.
//
// Part of kernel_tests, which tools/run_tests.sh reruns under TSan, UBSan
// and ASan.
//
//===----------------------------------------------------------------------===//

#include "support/CsrGraph.h"

#include "support/RefGraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>

using namespace wiresort;
using wiresort::test::RefGraph;
using Edges = std::vector<CsrGraph::Edge>;

namespace {

CsrGraph frozen(size_t NumNodes, const Edges &E) {
  CsrGraph G(NumNodes, E);
  G.freeze();
  return G;
}

/// The seeded random graph \p Seed: 1 to 120 nodes and up to twice as
/// many edges. Half the seeds orient every edge along a random node
/// permutation, so the graph is acyclic yet full of descending ids; the
/// other half allow any edge, self-loops and parallel edges included.
/// Only raw mt19937 words are used, which the standard fixes, so the
/// graphs (and the digest pinned below) do not depend on the library's
/// distributions.
Edges seededGraph(uint32_t Seed, uint32_t &N) {
  std::mt19937 Rng(Seed);
  N = 1 + Rng() % 120;
  const bool Dag = Rng() % 2 == 0;
  std::vector<uint32_t> Pos(N);
  std::iota(Pos.begin(), Pos.end(), 0);
  for (uint32_t I = N; I > 1; --I)
    std::swap(Pos[I - 1], Pos[Rng() % I]);
  Edges E;
  for (uint32_t I = 0, Count = Rng() % (2 * N + 1); I != Count; ++I) {
    uint32_t From = Rng() % N, To = Rng() % N;
    if (Dag && Pos[From] >= Pos[To]) {
      if (From == To)
        continue;
      std::swap(From, To);
    }
    E.emplace_back(From, To);
  }
  return E;
}

/// FNV-1a over the little-endian bytes of \p Word.
void fold(uint64_t &Hash, uint32_t Word) {
  for (int Byte = 0; Byte != 4; ++Byte) {
    Hash ^= (Word >> (8 * Byte)) & 0xff;
    Hash *= 0x100000001b3ULL;
  }
}

/// Folds an optional node sequence: its length (all ones when absent),
/// then its nodes.
void foldResult(uint64_t &Hash,
                const std::optional<std::vector<uint32_t>> &Nodes) {
  fold(Hash, Nodes ? static_cast<uint32_t>(Nodes->size()) : UINT32_MAX);
  if (Nodes)
    for (uint32_t Node : *Nodes)
      fold(Hash, Node);
}

} // namespace

TEST(GraphTest, EmptyGraphIsAcyclic) {
  CsrGraph G = frozen(0, {});
  EXPECT_TRUE(G.isAcyclic());
  EXPECT_FALSE(G.findCycle().has_value());
  ASSERT_TRUE(G.topoSort().has_value());
  EXPECT_TRUE(G.topoSort()->empty());
}

TEST(GraphTest, SingleNodeNoEdges) {
  CsrGraph G = frozen(1, {});
  EXPECT_TRUE(G.isAcyclic());
  EXPECT_EQ(G.topoSort()->size(), 1u);
}

TEST(GraphTest, SelfLoopIsACycle) {
  CsrGraph G = frozen(2, {{1, 1}});
  EXPECT_FALSE(G.isAcyclic());
  auto Cycle = G.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  EXPECT_EQ(Cycle->size(), 1u);
  EXPECT_EQ((*Cycle)[0], 1u);
  EXPECT_FALSE(G.topoSort().has_value());
}

TEST(GraphTest, ChainIsAcyclicAndTopoOrdered) {
  Edges E;
  for (uint32_t I = 0; I + 1 < 5; ++I)
    E.emplace_back(I, I + 1);
  CsrGraph G = frozen(5, E);
  EXPECT_TRUE(G.isAcyclic());
  auto Order = G.topoSort();
  ASSERT_TRUE(Order.has_value());
  std::vector<uint32_t> Pos(5);
  for (size_t I = 0; I != Order->size(); ++I)
    Pos[(*Order)[I]] = static_cast<uint32_t>(I);
  for (uint32_t I = 0; I + 1 < 5; ++I)
    EXPECT_LT(Pos[I], Pos[I + 1]);
}

TEST(GraphTest, TopoSortIsFifoKahn) {
  // 0 and 3 are ready first and leave by id; 0 frees 2 and 3 frees 1,
  // which leave in that order.
  CsrGraph G(4, {{0, 2}, {3, 1}});
  EXPECT_EQ(G.topoSort(), (std::vector<uint32_t>{0, 3, 2, 1}));
}

TEST(GraphTest, SuccessorsKeepInsertionOrder) {
  CsrGraph G(3, {{2, 0}, {0, 2}, {2, 1}, {0, 1}, {2, 0}});
  EXPECT_EQ(G.numEdges(), 5u);
  auto succs = [&](uint32_t Node) {
    return std::vector<uint32_t>(G.successors(Node).begin(),
                                 G.successors(Node).end());
  };
  EXPECT_EQ(succs(0), (std::vector<uint32_t>{2, 1}));
  EXPECT_TRUE(succs(1).empty());
  EXPECT_EQ(succs(2), (std::vector<uint32_t>{0, 1, 0}));
  EXPECT_EQ(G.edgeBegin(0), 0u);
  EXPECT_EQ(G.edgeBegin(2), 2u);
  EXPECT_EQ(G.edgeBegin(3), 5u);
}

TEST(GraphTest, TwoNodeCycleFound) {
  CsrGraph G = frozen(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  EXPECT_FALSE(G.isAcyclic());
  auto Cycle = G.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  std::set<uint32_t> Nodes(Cycle->begin(), Cycle->end());
  EXPECT_EQ(Nodes, (std::set<uint32_t>{1, 2}));
}

TEST(GraphTest, SccComponentsOfTwoCycles) {
  // 0 -> 1 -> 0 and 2 -> 3 -> 2, with 1 -> 2 bridging.
  CsrGraph G = frozen(4, {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}});
  EXPECT_EQ(G.numComponents(), 2u);
  EXPECT_EQ(G.componentOf(0), G.componentOf(1));
  EXPECT_EQ(G.componentOf(2), G.componentOf(3));
  EXPECT_NE(G.componentOf(0), G.componentOf(2));
}

TEST(GraphTest, ReachableFromFollowsOnlyOutgoingEdges) {
  CsrGraph G(4, {{0, 1}, {1, 2}, {3, 0}});
  std::vector<bool> R = G.reachableFrom(0);
  EXPECT_TRUE(R[0]);
  EXPECT_TRUE(R[1]);
  EXPECT_TRUE(R[2]);
  EXPECT_FALSE(R[3]);
}

TEST(GraphTest, DeepChainDoesNotOverflowStack) {
  // The iterative Tarjan must handle graphs deeper than the C stack.
  const uint32_t N = 500000;
  Edges E;
  for (uint32_t I = 0; I + 1 < N; ++I)
    E.emplace_back(I, I + 1);
  E.emplace_back(N - 1, 0); // One giant cycle.
  CsrGraph G = frozen(N, E);
  EXPECT_FALSE(G.isAcyclic());
  auto Cycle = G.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  EXPECT_EQ(Cycle->size(), N);
}

TEST(GraphTest, RandomGraphTopoSortAgreesWithHasCycle) {
  std::mt19937 Rng(7);
  for (int Trial = 0; Trial != 50; ++Trial) {
    std::uniform_int_distribution<uint32_t> NodeCount(1, 40);
    uint32_t N = NodeCount(Rng);
    std::uniform_int_distribution<uint32_t> Node(0, N - 1);
    std::uniform_int_distribution<uint32_t> EdgeCount(0, 3 * N);
    Edges E;
    for (uint32_t I = 0, Count = EdgeCount(Rng); I != Count; ++I)
      E.emplace_back(Node(Rng), Node(Rng));
    CsrGraph G = frozen(N, E);
    EXPECT_EQ(!G.isAcyclic(), !G.topoSort().has_value());
    EXPECT_EQ(!G.isAcyclic(), G.findCycle().has_value());
  }
}

TEST(GraphTest, FindCycleReturnsRealCycle) {
  std::mt19937 Rng(11);
  for (int Trial = 0; Trial != 30; ++Trial) {
    uint32_t N = 20;
    std::uniform_int_distribution<uint32_t> Node(0, N - 1);
    Edges E;
    for (uint32_t I = 0; I != 40; ++I)
      E.emplace_back(Node(Rng), Node(Rng));
    CsrGraph G(N, E);
    auto Cycle = G.findCycle();
    if (!Cycle)
      continue;
    // Verify each consecutive pair is an edge, wrapping around.
    for (size_t I = 0; I != Cycle->size(); ++I) {
      uint32_t From = (*Cycle)[I];
      uint32_t To = (*Cycle)[(I + 1) % Cycle->size()];
      auto Succ = G.successors(From);
      EXPECT_NE(std::find(Succ.begin(), Succ.end(), To), Succ.end())
          << "missing edge " << From << " -> " << To;
    }
  }
}

TEST(GraphTest, SeededGraphsMatchTheOracle) {
  for (uint32_t Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    uint32_t N;
    const Edges E = seededGraph(Seed, N);
    const RefGraph Ref(N, E);
    CsrGraph G(N, E);
    for (uint32_t Node = 0; Node != N; ++Node)
      ASSERT_EQ(G.reachableFrom(Node), Ref.reachableFrom(Node))
          << "from " << Node;

    const bool RefAcyclic = Ref.topoSort().has_value();
    const std::optional<std::vector<uint32_t>> Order = G.topoSort();
    ASSERT_EQ(Order.has_value(), RefAcyclic);
    if (Order) {
      // A permutation of the nodes that every edge ascends.
      std::vector<uint32_t> Pos(N, UINT32_MAX);
      for (uint32_t I = 0; I != Order->size(); ++I)
        Pos[(*Order)[I]] = I;
      ASSERT_EQ(Order->size(), N);
      ASSERT_EQ(std::count(Pos.begin(), Pos.end(), UINT32_MAX), 0);
      for (const auto &[From, To] : E)
        ASSERT_LT(Pos[From], Pos[To]) << From << " -> " << To;
    }
    G.freeze();
    EXPECT_EQ(G.isAcyclic(), RefAcyclic);
    EXPECT_EQ(G.findCycle().has_value(), !RefAcyclic);
  }
}

TEST(GraphTest, FindCycleAndTopoSortResultsArePinned) {
  // The digest of every findCycle() and then topoSort() result over the
  // 200 seeded graphs, computed with the adjacency-list graph this type
  // replaced: 71 of the graphs are cyclic and 129 acyclic. A change means
  // a different WS101/WS401 witness or simulator order somewhere.
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (uint32_t Seed = 1; Seed <= 200; ++Seed) {
    uint32_t N;
    const Edges E = seededGraph(Seed, N);
    const CsrGraph G(N, E);
    foldResult(Hash, G.findCycle());
    foldResult(Hash, G.topoSort());
  }
  EXPECT_EQ(Hash, 0x1ad71d4898393c0fULL);
}
