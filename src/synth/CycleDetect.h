//===- synth/CycleDetect.h - Netlist-level cycle detection ------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthesis-time baseline of Table 3: standard cycle detection over
/// a flat primitive-gate netlist. Finding the loop here is easy — "one
/// need only look for cycles in the netlist graph" (Section 1) — but the
/// netlist must first be produced (synth::lower) and is far larger than
/// the RTL, and the loop report names anonymous gate-level bits rather
/// than module ports.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SYNTH_CYCLEDETECT_H
#define WIRESORT_SYNTH_CYCLEDETECT_H

#include "ir/Module.h"
#include "support/Diag.h"

namespace wiresort::synth {

/// Result of gate-level cycle detection.
struct NetlistCycleResult {
  bool HasLoop = false;
  /// WS401_NETLIST_CYCLE diagnostic when a loop is found; its witness
  /// names the flat module and the gate-level wires on the cycle.
  support::DiagList Diags;
  size_t NumWires = 0;
  size_t NumGates = 0;
};

/// Runs SCC-based cycle detection over \p Flat, which must be
/// instance-free (typically the result of synth::lower). Registers and
/// synchronous memories break paths; asynchronous memory reads are
/// combinational edges.
NetlistCycleResult detectCycles(const ir::Module &Flat);

} // namespace wiresort::synth

#endif // WIRESORT_SYNTH_CYCLEDETECT_H
