//===- tests/support/GraphTest.cpp - Graph algorithm tests ----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "support/Graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace wiresort;

TEST(GraphTest, EmptyGraphIsAcyclic) {
  Graph G(0);
  EXPECT_FALSE(G.hasCycle());
  EXPECT_FALSE(G.findCycle().has_value());
  ASSERT_TRUE(G.topoSort().has_value());
  EXPECT_TRUE(G.topoSort()->empty());
}

TEST(GraphTest, SingleNodeNoEdges) {
  Graph G(1);
  EXPECT_FALSE(G.hasCycle());
  EXPECT_EQ(G.topoSort()->size(), 1u);
}

TEST(GraphTest, SelfLoopIsACycle) {
  Graph G(2);
  G.addEdge(1, 1);
  EXPECT_TRUE(G.hasCycle());
  auto Cycle = G.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  EXPECT_EQ(Cycle->size(), 1u);
  EXPECT_EQ((*Cycle)[0], 1u);
  EXPECT_FALSE(G.topoSort().has_value());
}

TEST(GraphTest, ChainIsAcyclicAndTopoOrdered) {
  Graph G(5);
  for (uint32_t I = 0; I + 1 < 5; ++I)
    G.addEdge(I, I + 1);
  EXPECT_FALSE(G.hasCycle());
  auto Order = G.topoSort();
  ASSERT_TRUE(Order.has_value());
  std::vector<uint32_t> Pos(5);
  for (size_t I = 0; I != Order->size(); ++I)
    Pos[(*Order)[I]] = static_cast<uint32_t>(I);
  for (uint32_t I = 0; I + 1 < 5; ++I)
    EXPECT_LT(Pos[I], Pos[I + 1]);
}

TEST(GraphTest, TwoNodeCycleFound) {
  Graph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(2, 1);
  G.addEdge(2, 3);
  EXPECT_TRUE(G.hasCycle());
  auto Cycle = G.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  std::set<uint32_t> Nodes(Cycle->begin(), Cycle->end());
  EXPECT_EQ(Nodes, (std::set<uint32_t>{1, 2}));
}

TEST(GraphTest, SccComponentsOfTwoCycles) {
  // 0 -> 1 -> 0 and 2 -> 3 -> 2, with 1 -> 2 bridging.
  Graph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 0);
  G.addEdge(2, 3);
  G.addEdge(3, 2);
  G.addEdge(1, 2);
  uint32_t NumComponents = 0;
  std::vector<uint32_t> Comp = G.tarjanScc(NumComponents);
  EXPECT_EQ(NumComponents, 2u);
  EXPECT_EQ(Comp[0], Comp[1]);
  EXPECT_EQ(Comp[2], Comp[3]);
  EXPECT_NE(Comp[0], Comp[2]);
}

TEST(GraphTest, ReachableFromFollowsOnlyOutgoingEdges) {
  Graph G(4);
  G.addEdge(0, 1);
  G.addEdge(1, 2);
  G.addEdge(3, 0);
  std::vector<bool> R = G.reachableFrom(0);
  EXPECT_TRUE(R[0]);
  EXPECT_TRUE(R[1]);
  EXPECT_TRUE(R[2]);
  EXPECT_FALSE(R[3]);
}

TEST(GraphTest, DeepChainDoesNotOverflowStack) {
  // The iterative Tarjan must handle graphs deeper than the C stack.
  const uint32_t N = 500000;
  Graph G(N);
  for (uint32_t I = 0; I + 1 < N; ++I)
    G.addEdge(I, I + 1);
  G.addEdge(N - 1, 0); // One giant cycle.
  EXPECT_TRUE(G.hasCycle());
  auto Cycle = G.findCycle();
  ASSERT_TRUE(Cycle.has_value());
  EXPECT_EQ(Cycle->size(), N);
}

TEST(GraphTest, RandomGraphTopoSortAgreesWithHasCycle) {
  std::mt19937 Rng(7);
  for (int Trial = 0; Trial != 50; ++Trial) {
    std::uniform_int_distribution<uint32_t> NodeCount(1, 40);
    uint32_t N = NodeCount(Rng);
    Graph G(N);
    std::uniform_int_distribution<uint32_t> Node(0, N - 1);
    std::uniform_int_distribution<uint32_t> EdgeCount(0, 3 * N);
    uint32_t E = EdgeCount(Rng);
    for (uint32_t I = 0; I != E; ++I)
      G.addEdge(Node(Rng), Node(Rng));
    EXPECT_EQ(G.hasCycle(), !G.topoSort().has_value());
    EXPECT_EQ(G.hasCycle(), G.findCycle().has_value());
  }
}

TEST(GraphTest, FindCycleReturnsRealCycle) {
  std::mt19937 Rng(11);
  for (int Trial = 0; Trial != 30; ++Trial) {
    uint32_t N = 20;
    Graph G(N);
    std::uniform_int_distribution<uint32_t> Node(0, N - 1);
    for (uint32_t I = 0; I != 40; ++I)
      G.addEdge(Node(Rng), Node(Rng));
    auto Cycle = G.findCycle();
    if (!Cycle)
      continue;
    // Verify each consecutive pair is an edge, wrapping around.
    for (size_t I = 0; I != Cycle->size(); ++I) {
      uint32_t From = (*Cycle)[I];
      uint32_t To = (*Cycle)[(I + 1) % Cycle->size()];
      const auto &Succ = G.successors(From);
      EXPECT_NE(std::find(Succ.begin(), Succ.end(), To), Succ.end())
          << "missing edge " << From << " -> " << To;
    }
  }
}
