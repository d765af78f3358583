//===- tests/support/RefGraph.h - Adjacency-list graph oracle ---*- C++ -*-===//
//
// Part of the wiresort project. A deliberately plain directed graph, one
// successor vector per node, that the graph, depth and soundness suites
// check support::CsrGraph and the analyses against. It shares no code
// with src/, so a bug there cannot hide in the oracle too.
//
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_TESTS_SUPPORT_REFGRAPH_H
#define WIRESORT_TESTS_SUPPORT_REFGRAPH_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace wiresort::test {

struct RefGraph {
  explicit RefGraph(size_t NumNodes,
                    const std::vector<std::pair<uint32_t, uint32_t>> &Edges =
                        {})
      : Succs(NumNodes) {
    for (const auto &[From, To] : Edges)
      addEdge(From, To);
  }

  void addEdge(uint32_t From, uint32_t To) { Succs[From].push_back(To); }
  size_t numNodes() const { return Succs.size(); }

  /// Nodes reachable from \p Start, \p Start included.
  std::vector<bool> reachableFrom(uint32_t Start) const {
    std::vector<bool> Seen(numNodes(), false);
    std::vector<uint32_t> Work{Start};
    Seen[Start] = true;
    while (!Work.empty()) {
      uint32_t Node = Work.back();
      Work.pop_back();
      for (uint32_t Succ : Succs[Node])
        if (!Seen[Succ]) {
          Seen[Succ] = true;
          Work.push_back(Succ);
        }
    }
    return Seen;
  }

  /// Some topological order (Kahn with a LIFO ready list), or
  /// std::nullopt when the graph has a cycle.
  std::optional<std::vector<uint32_t>> topoSort() const {
    std::vector<uint32_t> InDegree(numNodes(), 0), Ready, Order;
    for (const std::vector<uint32_t> &Out : Succs)
      for (uint32_t Succ : Out)
        ++InDegree[Succ];
    for (uint32_t Node = 0; Node != numNodes(); ++Node)
      if (InDegree[Node] == 0)
        Ready.push_back(Node);
    while (!Ready.empty()) {
      Order.push_back(Ready.back());
      Ready.pop_back();
      for (uint32_t Succ : Succs[Order.back()])
        if (--InDegree[Succ] == 0)
          Ready.push_back(Succ);
    }
    if (Order.size() != numNodes())
      return std::nullopt;
    return Order;
  }

  std::vector<std::vector<uint32_t>> Succs;
};

} // namespace wiresort::test

#endif // WIRESORT_TESTS_SUPPORT_REFGRAPH_H
