//===- analysis/WellConnected.h - Circuit-level checking --------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stages 2 and 3 of the paper's process (Section 3.5). Stage 2 marks any
/// connection touching a from-sync output or to-sync input as safe
/// outright (Property 1). Stage 3 checks the remaining from-port ->
/// to-port connections: a complete circuit is well-connected iff every
/// from-port output is safely from-port with respect to the to-port
/// inputs it drives (Property 3).
///
/// Two equivalent checkers are provided:
///  * checkCircuit — the production path. It looks for a cycle only in
///    the port graph (instance ports as nodes, connection edges plus
///    per-module summary edges) restricted to the endpoints of the
///    connections Stage 2 leaves, which has a cycle iff the whole graph
///    does. With none left it builds no graph at all; only when the
///    restriction is cyclic does it build the whole port graph, to walk
///    the WS101 witness.
///  * checkCircuitPairwise — the literal Definition 3.1 check per
///    connection, worst case O(|conns|^2) (Section 5.5.2); kept both as
///    executable documentation of the definition and as a cross-check the
///    property tests compare against the SCC path.
///
/// Neither checker ever inspects module internals — only summaries.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_ANALYSIS_WELLCONNECTED_H
#define WIRESORT_ANALYSIS_WELLCONNECTED_H

#include "analysis/Summary.h"
#include "ir/Circuit.h"
#include "support/CsrGraph.h"
#include "support/Diag.h"

#include <map>
#include <vector>

namespace wiresort::analysis {

/// Stage-2 verdict for one connection.
enum class ConnectionSafety : uint8_t {
  /// The output is from-sync or the input is to-sync; safe regardless of
  /// the rest of the circuit (Property 1, Figure 5).
  SafeBySort,
  /// from-port -> to-port; safety depends on the whole circuit (Figure 6).
  NeedsCircuitCheck,
};

/// Classifies \p C per Property 1 using only the two ports' sorts.
ConnectionSafety classifyConnection(const ir::Circuit &Circ,
                                    const std::map<ir::ModuleId,
                                                   ModuleSummary> &Summaries,
                                    const ir::Connection &C);

/// The circuit-level dependency graph over instance ports. Nodes are
/// (instance, port) pairs; edges are circuit connections plus summary
/// edges (input -> each output in its output-port-set). The
/// TransitivelyAffects relation of Section 3.2 is reachability here.
class PortGraph {
public:
  static PortGraph build(const ir::Circuit &Circ,
                         const std::map<ir::ModuleId, ModuleSummary>
                             &Summaries);

  /// The port graph, frozen at build time: the bit-parallel closure
  /// kernel (support/CsrGraph.h) runs Stage-3 pairwise checking over it.
  const CsrGraph &csr() const { return Csr; }

  uint32_t nodeOf(ir::PortRef Ref) const { return Numbering.number(Ref); }
  ir::PortRef refOf(uint32_t Node) const { return Refs[Node]; }

  /// w1 transitively-affects w2 (w1 ~>C w2): reachability in the graph.
  bool transitivelyAffects(ir::PortRef W1, ir::PortRef W2) const;

private:
  CsrGraph Csr;
  std::vector<ir::PortRef> Refs;
  /// Node ids are the circuit's dense port numbers.
  ir::PortNumbering Numbering;
};

/// Outcome of a whole-circuit check.
struct CircuitCheckResult {
  bool WellConnected = false;
  /// WS101_COMB_LOOP diagnostics when not well-connected; each witness
  /// hop is an (instance, port) pair of the circuit.
  support::DiagList Diags;
  /// Connections proven safe by sorts alone (stage 2).
  size_t SafeBySort = 0;
  /// Connections requiring the stage-3 circuit check.
  size_t NeedsCheck = 0;
};

/// SCC-based whole-circuit check (production path).
CircuitCheckResult checkCircuit(const ir::Circuit &Circ,
                                const std::map<ir::ModuleId, ModuleSummary>
                                    &Summaries);

/// Definition 3.1: is \p C's output wire well-connected to its input wire?
/// I.e., no w2 in the input's output-port-set transitively affects any w1
/// in the output's input-port-set.
bool isWellConnectedPair(const PortGraph &PG, const ir::Circuit &Circ,
                         const std::map<ir::ModuleId, ModuleSummary>
                             &Summaries,
                         const ir::Connection &C);

/// The literal Property 3 check: every from-port output safely from-port
/// w.r.t. the to-port inputs it drives. Equivalent verdict to
/// \ref checkCircuit on complete circuits; worst case O(|conns|^2).
CircuitCheckResult
checkCircuitPairwise(const ir::Circuit &Circ,
                     const std::map<ir::ModuleId, ModuleSummary> &Summaries);

} // namespace wiresort::analysis

#endif // WIRESORT_ANALYSIS_WELLCONNECTED_H
