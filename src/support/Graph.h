//===- support/Graph.h - Directed-graph algorithms --------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An index-based directed graph with the algorithms the analyses need:
/// Tarjan strongly-connected components (for cycle detection over port
/// graphs and gate netlists), topological ordering (for levelized
/// simulation), and shortest cycle extraction (for loop diagnostics).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_GRAPH_H
#define WIRESORT_SUPPORT_GRAPH_H

#include <cstdint>
#include <optional>
#include <vector>

namespace wiresort {

/// A directed graph over node indices [0, numNodes).
///
/// Nodes are dense integers so callers map their own entities (wires,
/// ports, gates) to indices. Edges are stored in adjacency lists; parallel
/// edges are permitted and harmless for the algorithms provided.
class Graph {
public:
  explicit Graph(size_t NumNodes = 0) : Succs(NumNodes) {}

  size_t numNodes() const { return Succs.size(); }

  void addEdge(uint32_t From, uint32_t To) { Succs[From].push_back(To); }

  const std::vector<uint32_t> &successors(uint32_t Node) const {
    return Succs[Node];
  }

  size_t numEdges() const {
    size_t N = 0;
    for (const auto &S : Succs)
      N += S.size();
    return N;
  }

  /// Computes strongly connected components with Tarjan's algorithm
  /// (iterative; safe on million-node graphs).
  ///
  /// \returns a vector mapping node -> component id; component ids are
  /// assigned in reverse topological order of the condensation.
  std::vector<uint32_t> tarjanScc(uint32_t &NumComponents) const;

  /// \returns true iff the graph contains a cycle (an SCC of size > 1, or
  /// a self-edge).
  bool hasCycle() const;

  /// Finds one cycle and returns it as a node sequence (first node is
  /// repeated logically, not physically). \returns std::nullopt when the
  /// graph is acyclic.
  std::optional<std::vector<uint32_t>> findCycle() const;

  /// Topological order of an acyclic graph. \returns std::nullopt if the
  /// graph has a cycle.
  std::optional<std::vector<uint32_t>> topoSort() const;

  /// Forward-reachable node set from \p Start (including \p Start),
  /// returned as a dense boolean mask.
  std::vector<bool> reachableFrom(uint32_t Start) const;

  /// Single membership query: does \p From reach \p To? Equivalent to
  /// reachableFrom(From)[To] (so reaches(X, X) is always true) but exits
  /// as soon as \p To is found instead of materializing the full set.
  bool reaches(uint32_t From, uint32_t To) const;

private:
  std::vector<std::vector<uint32_t>> Succs;
};

} // namespace wiresort

#endif // WIRESORT_SUPPORT_GRAPH_H
