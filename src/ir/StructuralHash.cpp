//===- ir/StructuralHash.cpp - Content hashing of module bodies -----------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "ir/StructuralHash.h"

#include "ir/Module.h"

#include <string_view>

using namespace wiresort;
using namespace wiresort::ir;

namespace {

/// Streaming hasher with domain-separation tags between record kinds, so
/// that e.g. "one wire, zero nets" never collides with "zero wires, one
/// net" by concatenation. Word-sized fields fold in via one splitmix-style
/// mix per word (gate-level bodies stream millions of them, so this path
/// must not loop per byte); strings use byte-wise FNV-1a.
class Hasher {
public:
  void u64(uint64_t V) { H = hashCombine(H, V); }
  void str(std::string_view S) {
    uint64_t F = 0xcbf29ce484222325ULL; // FNV offset basis.
    for (char C : S) {
      F ^= static_cast<unsigned char>(C);
      F *= 0x100000001b3ULL;
    }
    u64(S.size());
    u64(F);
  }
  void tag(uint64_t T) { u64(0xabcd0000 + T); }
  uint64_t result() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

} // namespace

uint64_t ir::structuralHash(const Module &M) {
  // Names (module, wire, memory, instance) are deliberately NOT hashed:
  // a ModuleSummary is expressed purely in WireIds, so renaming cannot
  // change it — and a cache hit patches Id/ModuleName for the requesting
  // design anyway. Leaving names out both lets identically-shaped bodies
  // share one cache entry and keeps the hash pass cheap on gate-level
  // modules with hundreds of thousands of generated wire names.
  Hasher H;

  H.tag(1);
  H.u64(M.Wires.size());
  for (const Wire &W : M.Wires) {
    H.u64(static_cast<uint64_t>(W.Kind));
    H.u64(W.Width);
    H.u64(M.constValue(W));
  }

  H.tag(2);
  H.u64(M.Nets.size());
  for (const Net &N : M.Nets) {
    H.u64(static_cast<uint64_t>(N.Operation));
    H.u64(N.NumInputs);
    for (WireId In : M.netInputs(N))
      H.u64(In);
    H.u64(N.Output);
    H.u64(N.Aux);
    // Row by row, each as its size and FNV-1a: saved cache keys are
    // these exact words.
    const CoverView Cover = M.netCover(N);
    H.u64(Cover.numRows());
    for (uint32_t R = 0; R != Cover.numRows(); ++R)
      H.str(Cover.row(R));
  }

  H.tag(3);
  H.u64(M.Registers.size());
  for (const Register &R : M.Registers) {
    H.u64(R.D);
    H.u64(R.Q);
    H.u64(R.Init);
  }

  H.tag(4);
  H.u64(M.Memories.size());
  for (const Memory &Mem : M.Memories) {
    H.u64(Mem.SyncRead);
    H.u64(Mem.AddrWidth);
    H.u64(Mem.DataWidth);
    H.u64(Mem.RAddr);
    H.u64(Mem.RData);
    H.u64(Mem.WAddr);
    H.u64(Mem.WData);
    H.u64(Mem.WEnable);
  }

  // Instances: bindings and order, but NOT Def (design-relative; see the
  // header). The SummaryEngine mixes each instance's summary key in
  // separately.
  H.tag(5);
  H.u64(M.Instances.size());
  for (const SubInstance &Inst : M.Instances) {
    H.u64(Inst.Bindings.size());
    for (const auto &[DefPort, Local] : Inst.Bindings) {
      H.u64(DefPort);
      H.u64(Local);
    }
  }

  H.tag(6);
  H.u64(M.Inputs.size());
  for (WireId In : M.Inputs)
    H.u64(In);
  H.u64(M.Outputs.size());
  for (WireId Out : M.Outputs)
    H.u64(Out);

  H.tag(7);
  H.u64(M.Contracts.size());
  for (const PortContract &C : M.Contracts) {
    H.u64(C.Port);
    H.u64(C.RequireDriverFromSyncDirect);
    H.u64(C.RequireSinkToSyncDirect);
  }

  return H.result();
}
