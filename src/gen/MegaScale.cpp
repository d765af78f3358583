//===- gen/MegaScale.cpp - 100k..1M-instance composed designs -------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "gen/MegaScale.h"

#include "gen/Catalog.h"
#include "gen/Fifo.h"
#include "gen/LoopInjector.h"
#include "ir/StructuralHash.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <random>
#include <vector>

using namespace wiresort;
using namespace wiresort::gen;
using namespace wiresort::ir;

namespace {

/// The definitions one mega design draws from: a topology-specific
/// payload pool plus the two boundary shapes every level is stitched
/// with. Module names inside one pool are distinct by construction (the
/// boundary FIFO uses a depth no payload FIFO uses).
struct DefPool {
  std::vector<ModuleId> Payload;
  ModuleId BoundaryFifo = InvalidId;
  ModuleId BoundarySlice = InvalidId;
};

DefPool buildPool(Design &D, const MegaScaleParams &P) {
  DefPool Pool;
  auto add = [&](Module M) {
    Pool.Payload.push_back(D.addModule(std::move(M)));
  };
  switch (P.Topo) {
  case MegaScaleParams::Topology::FifoFabric:
    add(makeFifo({P.Width, 2, false}));
    add(makeFifo({P.Width, 4, false}));
    add(makeFifo({P.Width, 2, true}));
    add(makeSyncFifo(P.Width, 4));
    add(makeTwoFifo(P.Width));
    add(makeSkidBuffer(P.Width));
    add(makeCreditSender(P.Width, 7));
    break;
  case MegaScaleParams::Topology::NocMesh:
    add(makeRoundRobinArb(4));
    add(makePriorityEncoder(8));
    add(makeCrossbar(P.Width, 4));
    add(makeMuxComb(P.Width, 4));
    add(makeMuxReg(P.Width, 4));
    add(makeDemux(P.Width, 4));
    add(makeOneHot(3));
    add(makeSkidBuffer(P.Width));
    break;
  case MegaScaleParams::Topology::TileGrid:
    add(makeCounter(P.Width));
    add(makeLfsr(16));
    add(makeShiftChain(P.Width, 4));
    add(makeAdderPipe(P.Width, 3));
    add(makeChecksum(P.Width));
    add(makeGrayCoder(P.Width, false));
    add(makeParity(P.Width));
    add(makePopcount(P.Width));
    add(makeTimer(P.Width));
    add(makeEdgeDetect());
    break;
  }
  Pool.BoundaryFifo = D.addModule(makeFifo({P.Width, 3, false}));
  Pool.BoundarySlice = D.addModule(makeRegSlice(P.Width));
  return Pool;
}

/// Connects the producer endpoint of \p From (ports FromPfx+data_o/v_o/
/// yumi_i) to the consumer endpoint of \p To (ToPfx+data_i/v_i/ready_o).
/// The prefixes name through sealed-module promotion: a tile's FIFO
/// consumer is "rx.data_i" one level up, "t0.rx.data_i" two levels up.
void link(Circuit &C, InstId From, const std::string &FromPfx, InstId To,
          const std::string &ToPfx) {
  // Reused buffers: the top-level stitch of a 1M-instance grid runs this
  // thousands of times, and operator+ temporaries were visible in the
  // construction profile next to Circuit's (now hash-indexed) lookups.
  thread_local std::string A, B;
  auto port = [](std::string &Buf, const std::string &Pfx,
                 const char *Suffix) -> const std::string & {
    Buf.assign(Pfx);
    Buf += Suffix;
    return Buf;
  };
  C.connect(From, port(A, FromPfx, "data_o"), To, port(B, ToPfx, "data_i"));
  C.connect(From, port(A, FromPfx, "v_o"), To, port(B, ToPfx, "v_i"));
  C.connect(To, port(A, ToPfx, "ready_o"), From, port(B, FromPfx, "yumi_i"));
}

/// tile = rx FIFO -> tx reg-slice through-path + K open payload
/// instances (their ports bubble up through seal() as the open
/// supermodule idiom; only the rx/tx endpoints are ever wired above).
ModuleId buildTile(Design &D, const DefPool &Pool, const MegaScaleParams &P,
                   std::mt19937_64 &Rng, unsigned Variant) {
  Circuit C(D, P.TopName + "_tile_v" + std::to_string(Variant));
  InstId Rx = C.addInstance(Pool.BoundaryFifo, "rx");
  InstId Tx = C.addInstance(Pool.BoundarySlice, "tx");
  link(C, Rx, "", Tx, "");
  for (unsigned I = 0; I != P.PayloadPerTile; ++I)
    C.addInstance(Pool.Payload[Rng() % Pool.Payload.size()],
                  "u" + std::to_string(I));
  return C.seal();
}

/// cluster = boundary FIFO(s) + chain of tiles. NocMesh clusters carry a
/// second, independent boundary pair so the torus can wire two planes.
ModuleId buildCluster(Design &D, const DefPool &Pool,
                      const MegaScaleParams &P, std::mt19937_64 &Rng,
                      const std::vector<ModuleId> &Tiles, unsigned Variant) {
  bool Mesh = P.Topo == MegaScaleParams::Topology::NocMesh;
  Circuit C(D, P.TopName + "_cluster_v" + std::to_string(Variant));
  InstId Crx = C.addInstance(Pool.BoundaryFifo, Mesh ? "crx_w" : "crx");
  InstId Ctx = C.addInstance(Pool.BoundaryFifo, Mesh ? "ctx_e" : "ctx");

  std::vector<InstId> Ts;
  Ts.reserve(P.TilesPerCluster);
  for (unsigned I = 0; I != P.TilesPerCluster; ++I)
    Ts.push_back(C.addInstance(Tiles[Rng() % Tiles.size()],
                               "t" + std::to_string(I)));
  if (Ts.empty()) {
    link(C, Crx, "", Ctx, "");
  } else {
    link(C, Crx, "", Ts.front(), "rx.");
    for (size_t I = 0; I + 1 < Ts.size(); ++I)
      link(C, Ts[I], "tx.", Ts[I + 1], "rx.");
    link(C, Ts.back(), "tx.", Ctx, "");
  }
  if (Mesh) {
    InstId CrxN = C.addInstance(Pool.BoundaryFifo, "crx_n");
    InstId CtxS = C.addInstance(Pool.BoundaryFifo, "ctx_s");
    link(C, CrxN, "", CtxS, "");
  }
  return C.seal();
}

} // namespace

ir::Circuit gen::buildMegaScaleCircuit(Design &D, const MegaScaleParams &P) {
  // Split the seed into independent streams so tile composition does not
  // shift when, say, only the grid size changes.
  std::mt19937_64 TileRng(P.Seed ^ 0x9e3779b97f4a7c15ull);
  std::mt19937_64 ClusterRng(P.Seed ^ 0xbf58476d1ce4e5b9ull);
  std::mt19937_64 TopRng(P.Seed ^ 0x94d049bb133111ebull);

  DefPool Pool = buildPool(D, P);

  std::vector<ModuleId> Tiles;
  for (unsigned V = 0; V != std::max(1u, P.TileVariants); ++V)
    Tiles.push_back(buildTile(D, Pool, P, TileRng, V));
  std::vector<ModuleId> Clusters;
  for (unsigned V = 0; V != std::max(1u, P.ClusterVariants); ++V)
    Clusters.push_back(buildCluster(D, Pool, P, ClusterRng, Tiles, V));

  Circuit Top(D, P.TopName);
  uint32_t GX = std::max(1u, P.GridX), GY = std::max(1u, P.GridY);
  std::vector<InstId> Grid(static_cast<size_t>(GX) * GY);
  for (uint32_t Y = 0; Y != GY; ++Y)
    for (uint32_t X = 0; X != GX; ++X)
      Grid[static_cast<size_t>(Y) * GX + X] = Top.addInstance(
          Clusters[TopRng() % Clusters.size()],
          "c" + std::to_string(X) + "_" + std::to_string(Y));

  auto at = [&](uint32_t X, uint32_t Y) {
    return Grid[static_cast<size_t>(Y) * GX + X];
  };

  switch (P.Topo) {
  case MegaScaleParams::Topology::TileGrid: {
    // Snake the grid row-major and close the ring: every cluster's crx
    // has exactly one driver, and the cycle is FIFO-interrupted.
    std::vector<InstId> Order;
    Order.reserve(Grid.size());
    for (uint32_t Y = 0; Y != GY; ++Y) {
      if (Y % 2 == 0)
        for (uint32_t X = 0; X != GX; ++X)
          Order.push_back(at(X, Y));
      else
        for (uint32_t X = GX; X != 0; --X)
          Order.push_back(at(X - 1, Y));
    }
    for (size_t I = 0; I != Order.size(); ++I)
      link(Top, Order[I], "ctx.", Order[(I + 1) % Order.size()], "crx.");
    break;
  }
  case MegaScaleParams::Topology::NocMesh:
    // 2-D torus: east links along rows, south links along columns.
    for (uint32_t Y = 0; Y != GY; ++Y)
      for (uint32_t X = 0; X != GX; ++X) {
        if (GX > 1 || GY > 1) {
          link(Top, at(X, Y), "ctx_e.", at((X + 1) % GX, Y), "crx_w.");
          link(Top, at(X, Y), "ctx_s.", at(X, (Y + 1) % GY), "crx_n.");
        }
      }
    break;
  case MegaScaleParams::Topology::FifoFabric:
    // Open chain: the fabric's ends stay external ports.
    for (size_t I = 0; I + 1 < Grid.size(); ++I)
      link(Top, Grid[I], "ctx.", Grid[I + 1], "crx.");
    break;
  }

  if (P.InjectLoop && !Pool.Payload.empty()) {
    // §5.4 mutation: a ring of feed-through clones whose loop_o -> loop_i
    // cycle is combinational end to end. Clones are of *distinct* payload
    // defs so module names stay unique.
    size_t Len = std::max<size_t>(
        1, std::min<size_t>(P.LoopRingLength, Pool.Payload.size()));
    std::vector<InstId> Ring;
    for (size_t I = 0; I != Len; ++I) {
      ModuleId Clone = addFeedthrough(D, Pool.Payload[I]);
      Ring.push_back(Top.addInstance(Clone, "loopmut" + std::to_string(I)));
    }
    for (size_t I = 0; I != Ring.size(); ++I)
      Top.connect(Ring[I], "loop_o", Ring[(I + 1) % Ring.size()], "loop_i");
  }
  return Top;
}

MegaScaleDesign gen::buildMegaScale(Design &D, const MegaScaleParams &P) {
  Circuit Top = buildMegaScaleCircuit(D, P);
  MegaScaleDesign R;
  R.Top = Top.seal();
  R.FlatInstances = flatInstanceCount(D, R.Top);
  uint64_t Reachable = 0;
  {
    std::vector<bool> Seen(D.numModules(), false);
    std::vector<ModuleId> Work{R.Top};
    Seen[R.Top] = true;
    while (!Work.empty()) {
      ModuleId Id = Work.back();
      Work.pop_back();
      ++Reachable;
      for (const SubInstance &Inst : D.module(Id).Instances)
        if (!Seen[Inst.Def]) {
          Seen[Inst.Def] = true;
          Work.push_back(Inst.Def);
        }
    }
  }
  R.UniqueModules = Reachable;
  return R;
}

uint64_t gen::flatInstanceCount(const Design &D, ModuleId Top) {
  std::vector<int64_t> Memo(D.numModules(), -1);
  // The hierarchy is a DAG a few levels deep; plain recursion is fine.
  struct Rec {
    const Design &D;
    std::vector<int64_t> &Memo;
    uint64_t operator()(ModuleId Id) const {
      if (Memo[Id] >= 0)
        return static_cast<uint64_t>(Memo[Id]);
      uint64_t N = 0;
      for (const SubInstance &Inst : D.module(Id).Instances)
        N += 1 + (*this)(Inst.Def);
      Memo[Id] = static_cast<int64_t>(N);
      return N;
    }
  };
  return Rec{D, Memo}(Top);
}

std::string gen::fingerprint(const Design &D, ModuleId Top) {
  trace::Span FingerprintSpan("gen.fingerprint", "gen");
  std::vector<bool> Seen(D.numModules(), false);
  std::vector<ModuleId> Work{Top}, Reach;
  Seen[Top] = true;
  while (!Work.empty()) {
    ModuleId Id = Work.back();
    Work.pop_back();
    Reach.push_back(Id);
    for (const SubInstance &Inst : D.module(Id).Instances)
      if (!Seen[Inst.Def]) {
        Seen[Inst.Def] = true;
        Work.push_back(Inst.Def);
      }
  }
  std::sort(Reach.begin(), Reach.end());

  uint64_t H = 0x57495245534f5254ull; // "WIRESORT"
  for (ModuleId Id : Reach) {
    const Module &M = D.module(Id);
    uint64_t NameH = 1469598103934665603ull; // FNV-1a over the name.
    for (unsigned char C : M.Name)
      NameH = (NameH ^ C) * 1099511628211ull;
    H = hashCombine(H, NameH);
    H = hashCombine(H, structuralHash(M));
  }
  static const char *Hex = "0123456789abcdef";
  std::string Out(16, '0');
  for (int I = 15; I >= 0; --I) {
    Out[static_cast<size_t>(I)] = Hex[H & 0xf];
    H >>= 4;
  }
  return Out;
}

std::optional<MegaScaleParams> gen::megaScalePreset(const std::string &Name) {
  MegaScaleParams P;
  if (Name == "ci") {
    return P; // the defaults: ~60 flat instances, trials-friendly.
  }
  if (Name == "ci-loop") {
    P.InjectLoop = true;
    P.LoopRingLength = 3;
    return P;
  }
  if (Name == "ci-noc") {
    P.Topo = MegaScaleParams::Topology::NocMesh;
    return P;
  }
  if (Name == "ci-fabric") {
    P.Topo = MegaScaleParams::Topology::FifoFabric;
    P.GridX = 4;
    P.GridY = 1;
    return P;
  }
  if (Name == "10k") {
    P.GridX = P.GridY = 9;
    P.TilesPerCluster = 12;
    P.PayloadPerTile = 8;
    P.TileVariants = 3;
    P.ClusterVariants = 2;
    P.Width = 16;
    return P; // 81 * (12*11 + 2 + 1) = 10,935 flat instances.
  }
  if (Name == "100k") {
    P.GridX = P.GridY = 24;
    P.TilesPerCluster = 16;
    P.PayloadPerTile = 8;
    P.TileVariants = 4;
    P.ClusterVariants = 2;
    P.Width = 16;
    return P; // 576 * (16*11 + 2 + 1) = 103,104 flat instances.
  }
  if (Name == "100k-noc") {
    P.Topo = MegaScaleParams::Topology::NocMesh;
    P.GridX = P.GridY = 24;
    P.TilesPerCluster = 16;
    P.PayloadPerTile = 8;
    P.TileVariants = 4;
    P.ClusterVariants = 2;
    P.Width = 16;
    return P; // 576 * (16*11 + 4 + 1) = 104,256 flat instances.
  }
  if (Name == "100k-fabric") {
    P.Topo = MegaScaleParams::Topology::FifoFabric;
    P.GridX = 361;
    P.GridY = 1;
    P.TilesPerCluster = 32;
    P.PayloadPerTile = 6;
    P.TileVariants = 4;
    P.ClusterVariants = 2;
    P.Width = 16;
    return P; // 361 * (32*9 + 2 + 1) = 105,051 flat instances.
  }
  if (Name == "1m") {
    P.GridX = P.GridY = 75;
    P.TilesPerCluster = 16;
    P.PayloadPerTile = 8;
    P.TileVariants = 4;
    P.ClusterVariants = 2;
    P.Width = 16;
    return P; // 5625 * (16*11 + 2 + 1) = 1,006,875 flat instances.
  }
  return std::nullopt;
}
