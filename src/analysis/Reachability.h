//===- analysis/Reachability.h - Intra-module comb reachability -*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's reachable(M, w) relation (Section 3.2): the set
/// of wires reachable from w through nets without passing through any
/// register. State elements are absorbing:
///
///  * register D pins and synchronous-memory pins terminate forward
///    traversal (their effects appear only next cycle);
///  * register Q pins, constants, and synchronous-memory read data are
///    sources, never pass-throughs;
///  * asynchronous-memory reads contribute a combinational RAddr -> RData
///    edge.
///
/// Submodule instances are traversed through their ModuleSummary — an
/// instance input combinationally reaches exactly the instance outputs in
/// its definition's output-port-set. This is how Section 3.1's
/// "supermodule" generalization is realized: the internals of instantiated
/// definitions are never revisited.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_ANALYSIS_REACHABILITY_H
#define WIRESORT_ANALYSIS_REACHABILITY_H

#include "analysis/Summary.h"
#include "ir/Module.h"
#include "support/CsrGraph.h"
#include "support/Diag.h"

#include <map>
#include <optional>
#include <vector>

namespace wiresort::analysis {

/// How a wire is driven; used by the Section 3.7 -direct classification.
enum class DriverKind : uint8_t {
  None,     ///< Undriven (inputs, constants treated separately).
  Const,    ///< Constant wire.
  InputPort,///< The wire is a module input.
  NetOut,   ///< Output of a net.
  RegQ,     ///< Register Q pin.
  MemSync,  ///< Synchronous-memory read data.
  MemAsync, ///< Asynchronous-memory read data (combinational).
  InstOut,  ///< Bound to a submodule instance's output port.
};

/// The combinational dependency graph of one module, with submodule
/// instances abstracted by their summaries.
class CombGraph {
public:
  /// Builds the graph. Every instance's definition must have an entry in
  /// \p SubSummaries (guaranteed when summaries are computed in
  /// dependency order; see DesignAnalysis).
  static CombGraph build(const ir::Module &M,
                         const std::map<ir::ModuleId, ModuleSummary>
                             &SubSummaries);

  /// The graph, frozen lazily on first use (node ids coincide with
  /// WireIds of the module). The freeze is shared by every query that
  /// needs the graph's structure settled: \ref findCombLoop reads its
  /// acyclicity verdict and \ref allOutputPortSets sweeps its
  /// condensation, so Stage-1 inference pays for one freeze (one
  /// ordering pass), not one per query. Not thread-safe: a CombGraph
  /// belongs to a single inference task.
  const CsrGraph &frozen() const;

  /// Forward-reachable module \b output ports from \p From, sorted.
  /// This is output-ports(M, From) when \p From is an input port.
  ///
  /// One allocating BFS per call; kept as the differential oracle the
  /// property suites pin \ref allOutputPortSets against. Production
  /// Stage-1 inference uses the batched form.
  std::vector<ir::WireId> reachableOutputPorts(ir::WireId From) const;

  /// output-ports(M, win) for every input port at once, via the
  /// bit-parallel CSR kernel (support/CsrGraph.h): the graph is frozen
  /// once and a module with K inputs costs ceil(K/64) sweeps over the
  /// edge array instead of K BFS traversals. Bit-identical to calling
  /// \ref reachableOutputPorts per input.
  std::map<ir::WireId, std::vector<ir::WireId>> allOutputPortSets() const;

  /// Deadline-aware form: the kernel polls \p DL between node batches
  /// and the call returns std::nullopt when it fires mid-module
  /// (docs/ROBUSTNESS.md) — the caller abandons the module and reports
  /// WS601. A null \p DL never cancels and matches the plain overload.
  std::optional<std::map<ir::WireId, std::vector<ir::WireId>>>
  allOutputPortSets(const support::Deadline *DL) const;

  /// \returns a WS101_COMB_LOOP diagnostic if the module (including
  /// instance summaries) contains a combinational cycle, else
  /// std::nullopt. The witness path is cyclic — hop i feeds hop i+1 and
  /// the last hop feeds the first — with each hop (ModuleName, wireName).
  /// The acyclic fast path is free once the graph is \ref frozen; the
  /// cycle walk (CsrGraph::findCycle) runs only on the error path, where
  /// a readable diagnostic is worth a second traversal.
  std::optional<support::Diag> findCombLoop() const;

  /// Section 3.7: true iff input \p In feeds only state, reached through
  /// nothing but transparent Buf nets — the to-sync-direct test. Only
  /// meaningful when \p In is to-sync.
  bool feedsStateDirectly(ir::WireId In) const;

  /// Section 3.7: true iff output \p Out is driven from state through
  /// nothing but transparent Buf nets — the from-sync-direct test. Only
  /// meaningful when \p Out is from-sync.
  bool drivenByStateDirectly(ir::WireId Out) const;

private:
  struct DriverRec {
    DriverKind Kind = DriverKind::None;
    /// NetOut: the net id. InstOut: the instance id.
    uint32_t Index = 0;
    /// InstOut: the definition's output port id.
    ir::WireId DefPort = ir::InvalidId;
  };
  /// One instance-input binding: \p Local feeds definition input
  /// \p DefPort of instance \p Inst.
  struct InstInputRec {
    ir::WireId Local;
    uint32_t Inst;
    ir::WireId DefPort;
  };

  const ir::Module *M = nullptr;
  const std::map<ir::ModuleId, ModuleSummary> *SubSummaries = nullptr;
  /// Frozen on first use; see \ref frozen.
  mutable CsrGraph G;
  std::vector<DriverRec> Drivers;
  /// Every instance-input binding, sorted by Local: the graph has no
  /// edge out of an input whose output-port-set is empty, so \ref
  /// feedsStateDirectly looks those consumers up here.
  std::vector<InstInputRec> InstInputs;
};

} // namespace wiresort::analysis

#endif // WIRESORT_ANALYSIS_REACHABILITY_H
