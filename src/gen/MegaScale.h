//===- gen/MegaScale.h - 100k..1M-instance composed designs -----*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Mega-scale workload generator (docs/SCALE.md): composes the existing
/// catalog/Fifo/LoopInjector generators into tiled manycore-style designs
/// of 100k to 1M+ flattened instances, the workload shape the paper's §4
/// composition argument was designed for (OpenPiton-style tile grids and
/// NoC-of-NoCs). The construction exploits the one property that makes
/// such sizes checkable at all — per-module summaries mean the analysis
/// cost scales with *unique* modules plus hierarchy nodes, not flattened
/// gates — while the *flat instance count* (what a monolithic checker
/// would face) multiplies through the hierarchy:
///
///   tile     = boundary FIFO + reg-slice + K payload instances
///   cluster  = boundary FIFOs + chain/grid of T tile instances
///   top      = GX x GY cluster instances, ring / torus / chain wired
///
/// Every cross-instance connection lands on a normal-FIFO or reg-slice
/// boundary port (to-sync in, from-sync out — the paper's "universal
/// interface", Table 1), so arbitrary wiring topologies, including the
/// closed ring and the torus, are loop-free by construction. The optional
/// LoopInjector mutation threads a combinational feed-through ring
/// through the top circuit, reproducing the §5.4 multi-module-loop
/// experiment at mega scale.
///
/// Generation is a pure function of MegaScaleParams: the same params
/// (including Seed) produce a structurally byte-identical Design in any
/// process, which the metamorphic and generator-determinism suites
/// rely on (fingerprint() is the cheap cross-process witness).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_GEN_MEGASCALE_H
#define WIRESORT_GEN_MEGASCALE_H

#include "ir/Circuit.h"
#include "ir/Design.h"

#include <cstdint>
#include <optional>
#include <string>

namespace wiresort::gen {

/// Parameter space of the mega-scale generator. Flat instance count is
/// roughly GridX*GridY * TilesPerCluster * (PayloadPerTile + 3); see
/// docs/SCALE.md for the presets' exact arithmetic.
struct MegaScaleParams {
  enum class Topology : uint8_t {
    /// Clusters in a grid, snake-ordered into a closed ring.
    TileGrid,
    /// Four-boundary-port clusters, 2-D torus wiring (east + south).
    NocMesh,
    /// FIFO-only payloads in deep open chains (hierarchical fabric).
    FifoFabric,
  };

  Topology Topo = Topology::TileGrid;
  /// Cluster grid at the top level (FifoFabric treats GridX*GridY as a
  /// chain length).
  uint32_t GridX = 2;
  uint32_t GridY = 2;
  /// Tile instances chained inside each cluster definition.
  uint32_t TilesPerCluster = 2;
  /// Catalog payload instances per tile definition.
  uint32_t PayloadPerTile = 3;
  /// Distinct tile definitions (seeded payload mixes).
  uint32_t TileVariants = 2;
  /// Distinct cluster definitions (seeded tile mixes).
  uint32_t ClusterVariants = 1;
  /// Boundary FIFO / reg-slice data width.
  uint16_t Width = 8;
  /// Drives every random choice; same seed, same design, any process.
  uint64_t Seed = 0;
  /// Thread a combinational feed-through ring (LoopInjector clones)
  /// through the top circuit — the design then has a multi-module
  /// combinational loop and must be diagnosed WS101 at the top module.
  bool InjectLoop = false;
  /// Instances in the injected ring (clamped to the payload pool size).
  uint32_t LoopRingLength = 4;
  /// Name of the sealed top module; also prefixes tile/cluster names so
  /// several mega designs can share one Design.
  std::string TopName = "mega_top";
};

/// What buildMegaScale produced.
struct MegaScaleDesign {
  ir::ModuleId Top = ir::InvalidId;
  /// Flattened instance count under Top (what a monolithic checker would
  /// have to expand): sum over the hierarchy of (1 + flat(def)).
  uint64_t FlatInstances = 0;
  /// Modules reachable from Top, Top included — the Stage-1 work list.
  uint64_t UniqueModules = 0;
};

/// Builds the design into \p D and seals the top circuit.
MegaScaleDesign buildMegaScale(ir::Design &D, const MegaScaleParams &P);

/// Same construction, but the top level is returned as an *unsealed*
/// Circuit for callers that drive the Stage-3 circuit check directly
/// (bench_scalability's pairwise-vs-SCC sweeps).
ir::Circuit buildMegaScaleCircuit(ir::Design &D, const MegaScaleParams &P);

/// Flattened instance count under \p Top (memoized recursion).
uint64_t flatInstanceCount(const ir::Design &D, ir::ModuleId Top);

/// Order-independent 16-hex-digit digest of every module reachable from
/// \p Top (structuralHash + name hash, folded in module-id order). Two
/// processes generating from the same params must agree byte-for-byte —
/// the generator-determinism suite's cross-process witness.
std::string fingerprint(const ir::Design &D, ir::ModuleId Top);

/// Named parameter presets ("ci", "ci-loop", "ci-noc", "ci-fabric",
/// "10k", "100k", "100k-noc", "100k-fabric", "1m"); std::nullopt for an
/// unknown name. The CI presets are small enough for 100-seed property
/// trials; the named sizes state their flat-instance floor.
std::optional<MegaScaleParams> megaScalePreset(const std::string &Name);

} // namespace wiresort::gen

#endif // WIRESORT_GEN_MEGASCALE_H
