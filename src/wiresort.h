//===- wiresort.h - The wiresort public facade ------------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one header downstream code includes. Everything under examples/
/// and tools/ builds against this facade alone, which is what keeps it
/// honest: any type or function a user-facing program needs must be
/// reachable from here, and internal headers are free to move as long
/// as this surface keeps compiling.
///
/// The export set, by namespace:
///
///  * \c wiresort::support — diagnostics (Diag/DiagList/Expected),
///    the CSR graph (CsrGraph + ReachabilityKernel), Timer,
///    ThreadPool, ASCII Table, Deadline/CancellationToken and the
///    failpoint fault-injection registry (docs/ROBUSTNESS.md).
///  * \c wiresort::trace — the observability layer: RAII Span timing,
///    the Counter/Histogram registry, and Session, the collection
///    window that writes Chrome trace-event JSON
///    (docs/OBSERVABILITY.md).
///  * \c wiresort::ir — wires/nets/modules, Design, Builder, Circuit,
///    structural hashing.
///  * \c wiresort::analysis — Stage-1 sort inference and summaries, the
///    parallel cached SummaryEngine (EngineConfig, plus RequestOptions
///    for per-request knobs), Stage-2/3 circuit checking, ascription,
///    incremental re-checking, sidecar I/O, depth/memory extensions,
///    Graphviz export.
///  * \c wiresort::driver — the CheckRequest/CheckResult check facade
///    (CheckService) and the resident serving layer (Server,
///    requestOnce — docs/SERVING.md).
///  * \c wiresort::parse — BLIF and structural-Verilog front ends.
///  * \c wiresort::synth — hierarchical lowering, flattening, cycle
///    detection, peephole cleanup.
///  * \c wiresort::sim — the cycle-accurate simulator and VCD writer.
///  * \c wiresort::gen — netlist generators (FIFOs, shift registers,
///    cache/DMA fabrics, the randomized design factory).
///  * \c wiresort::riscv — the RV32I core generator and instruction
///    encoders.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_WIRESORT_H
#define WIRESORT_WIRESORT_H

// Support: diagnostics, graphs, timing, threads, tables, tracing,
// robustness (deadlines/cancellation + fault injection).
#include "support/CsrGraph.h"
#include "support/Deadline.h"
#include "support/Diag.h"
#include "support/FailPoint.h"
#include "support/Socket.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "support/Wire.h"

// IR: the netlist object model.
#include "ir/Builder.h"
#include "ir/Circuit.h"
#include "ir/Design.h"
#include "ir/StructuralHash.h"

// Analysis: the paper's three stages plus extensions.
#include "analysis/Ascription.h"
#include "analysis/BaseJump.h"
#include "analysis/CheckOptions.h"
#include "analysis/Depth.h"
#include "analysis/Dot.h"
#include "analysis/Incremental.h"
#include "analysis/MemoryChecks.h"
#include "analysis/SortInference.h"
#include "analysis/SummaryEngine.h"
#include "analysis/SummaryIO.h"
#include "analysis/WellConnected.h"

// Driver: the CheckRequest -> CheckResult facade every client (CLI,
// daemon, benches) runs checks through, and the serving layer that
// keeps one CheckService resident behind a Unix-domain socket
// (docs/SERVING.md).
#include "driver/Check.h"
#include "driver/Serve.h"

// Front ends (and the matching exporters).
#include "parse/Blif.h"
#include "parse/Verilog.h"
#include "parse/VerilogReader.h"

// Synthesis-style transforms.
#include "synth/CycleDetect.h"
#include "synth/Flatten.h"
#include "synth/Lower.h"
#include "synth/Optimize.h"

// Simulation.
#include "sim/Simulator.h"
#include "sim/Vcd.h"

// Generators.
#include "gen/CacheDma.h"
#include "gen/Catalog.h"
#include "gen/Fifo.h"
#include "gen/LoopInjector.h"
#include "gen/MegaScale.h"
#include "gen/Opdb.h"
#include "gen/Random.h"
#include "gen/ShiftReg.h"

// RISC-V demo core.
#include "riscv/Cpu.h"
#include "riscv/Encoding.h"

#endif // WIRESORT_WIRESORT_H
