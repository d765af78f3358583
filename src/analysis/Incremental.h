//===- analysis/Incremental.h - Design-time incremental checks --*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 4's design-time checking policy: rather than re-checking the
/// whole circuit after every connection, a check is triggered only when a
/// newly formed connection's forward combinational reachability includes a
/// to-port input \b and its backward reachability includes a from-port
/// output. The paper notes this guarantees (1) a check never runs unless
/// a problem could potentially be found and (2) an actual problem is
/// found as soon as it exists.
///
/// Because the circuit was loop-free before the new connection, any new
/// loop must pass through it, so the triggered check reduces to "is the
/// connection's source reachable from its target".
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_ANALYSIS_INCREMENTAL_H
#define WIRESORT_ANALYSIS_INCREMENTAL_H

#include "analysis/Summary.h"
#include "ir/Circuit.h"
#include "support/Diag.h"

#include <map>
#include <string>
#include <vector>

namespace wiresort::analysis {

/// Interactive checker that observes a circuit as it is wired up.
class IncrementalChecker {
public:
  /// Verdict for one addConnection call.
  struct Step {
    /// Whether the Section 4 trigger condition fired.
    bool CheckTriggered = false;
    /// WS101_COMB_LOOP diagnostics for loops found (only possible when
    /// CheckTriggered); empty otherwise.
    support::DiagList Diags;
  };

  IncrementalChecker(const ir::Circuit &Circ,
                     const std::map<ir::ModuleId, ModuleSummary> &Summaries)
      : Circ(&Circ), Summaries(&Summaries) {}

  /// Registers \p C (which the caller has already added to the circuit)
  /// and decides whether to check. State is maintained across calls.
  Step addConnection(const ir::Connection &C);

  /// Statistics: how many connections skipped the check entirely.
  size_t numChecksTriggered() const { return ChecksTriggered; }
  size_t numChecksSkipped() const { return ChecksSkipped; }

private:
  /// Nodes are (inst, port) keys into adjacency built lazily from the
  /// summaries plus the connections seen so far.
  uint64_t nodeKey(ir::PortRef Ref) const {
    return (static_cast<uint64_t>(Ref.Inst) << 32) | Ref.Port;
  }

  /// DFS over summary edges + seen connections. \returns true if
  /// \p Target is reachable from \p Start.
  bool reaches(ir::PortRef Start, ir::PortRef Target,
               std::vector<ir::PortRef> *Path) const;

  /// Forward reachability hits some to-port input?
  bool forwardHitsToPort(ir::PortRef Start) const;
  /// Backward reachability hits some from-port output?
  bool backwardHitsFromPort(ir::PortRef Start) const;

  const ir::Circuit *Circ;
  const std::map<ir::ModuleId, ModuleSummary> *Summaries;
  /// Connections registered so far: out-port key -> in ports, and the
  /// reverse direction for backward walks.
  std::map<uint64_t, std::vector<ir::PortRef>> Fwd;
  std::map<uint64_t, std::vector<ir::PortRef>> Bwd;
  size_t ChecksTriggered = 0;
  size_t ChecksSkipped = 0;
};

} // namespace wiresort::analysis

#endif // WIRESORT_ANALYSIS_INCREMENTAL_H
