//===- ir/Builder.h - PyRTL-style construction EDSL -------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fluent embedded DSL for building Module definitions, mirroring the
/// PyRTL host language the paper's artifact extends: multi-bit wire
/// vectors, operator-style combinational logic, registers with feedback,
/// and memories. Every helper asserts its width discipline so malformed
/// designs fail at construction time rather than at analysis time.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_IR_BUILDER_H
#define WIRESORT_IR_BUILDER_H

#include "ir/Design.h"
#include "ir/Module.h"

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace wiresort::ir {

/// A handle to a wire under construction; cheap to copy.
struct V {
  WireId Id = InvalidId;
  uint16_t Width = 0;

  bool valid() const { return Id != InvalidId; }
};

/// Builds one Module. Typical use:
/// \code
///   Builder B("counter");
///   V En = B.input("en", 1);
///   V Q = B.regLoop("count", 8);
///   B.drive(Q, B.mux(En, B.add(Q, B.lit(1, 8)), Q));
///   B.output("count_o", Q);
///   Module M = B.finish();
/// \endcode
class Builder {
public:
  explicit Builder(std::string Name) : M(std::move(Name)) {}

  // --- Ports and literals -------------------------------------------------

  V input(const std::string &Name, uint16_t Width);
  /// Creates an output port driven by \p Src (via a transparent Buf).
  V output(const std::string &Name, V Src);
  V lit(uint64_t Value, uint16_t Width);

  // --- State ----------------------------------------------------------------

  /// Register with a known D: returns the Q wire.
  V reg(V D, const std::string &Name, uint64_t Init = 0);

  /// Declares a register whose D is supplied later with \ref drive —
  /// required for feedback (counters, FSM state). Returns the Q wire.
  V regLoop(const std::string &Name, uint16_t Width, uint64_t Init = 0);

  /// Supplies the D input of a register declared with \ref regLoop.
  void drive(V Q, V D);

  /// Adds a memory; \returns the read-data wire. Synchronous-read
  /// memories (\p SyncRead) produce reg-kind read data with no
  /// combinational RAddr dependency (paper Section 3.7).
  V memory(const std::string &Name, bool SyncRead, V RAddr, V WAddr, V WData,
           V WEnable);

  // --- Combinational operators ---------------------------------------------

  V andv(V A, V B);
  V orv(V A, V B);
  V xorv(V A, V B);
  V nandv(V A, V B);
  V norv(V A, V B);
  V xnorv(V A, V B);
  V notv(V A);
  V buf(V A);
  /// sel ? A : B; \p Sel must be 1 bit.
  V mux(V Sel, V A, V B);
  V add(V A, V B);
  V sub(V A, V B);
  V eq(V A, V B);
  V lt(V A, V B);
  /// Signed less-than over equal-width operands.
  V slt(V A, V B);
  /// Concatenation, most-significant part first.
  V concat(std::initializer_list<V> Parts);
  V concat(const std::vector<V> &Parts);
  /// Bits [Hi:Lo] of \p A.
  V slice(V A, uint16_t Hi, uint16_t Lo);
  /// Single bit \p Index of \p A.
  V bit(V A, uint16_t Index);
  V andr(V A);
  V orr(V A);
  V xorr(V A);

  // --- Width adjustment ------------------------------------------------------

  /// Zero-extends (or truncates) \p A to \p Width.
  V zext(V A, uint16_t Width);
  /// Sign-extends \p A to \p Width (>= A.Width).
  V sext(V A, uint16_t Width);

  // --- Derived combinational helpers ----------------------------------------

  /// Equality against a constant.
  V eqConst(V A, uint64_t Value);
  /// Logical shift left by a constant amount (bits shifted out dropped).
  V shlConst(V A, uint16_t Amount);
  /// Logical shift right by a constant amount.
  V shrConst(V A, uint16_t Amount);
  /// Barrel shifter: logical shift left by a variable amount.
  V shl(V A, V Amount);
  /// Barrel shifter: logical shift right; \p Arithmetic replicates the
  /// sign bit.
  V shr(V A, V Amount, bool Arithmetic = false);
  /// N-way mux: selects Cases[Sel], clamping out-of-range selects to the
  /// last case. All cases share a width; \p Sel is ceil(log2(N)) wide or
  /// wider.
  V muxN(V Sel, const std::vector<V> &Cases);
  /// Unsigned increment that wraps, a common idiom for pointers/counters.
  V inc(V A) { return add(A, lit(1, A.Width)); }

  // --- Hierarchy --------------------------------------------------------------

  /// Instantiates \p Def (which must live in the same Design the finished
  /// module will join) binding each named input port to a local wire.
  /// \returns a map from output port name to the local wire it drives.
  std::map<std::string, V>
  instantiate(const Design &D, ModuleId Def, const std::string &InstName,
              const std::map<std::string, V> &InputBindings);

  // --- Contracts (Section 3.7) -------------------------------------------------

  /// Marks an input port: its external driver must be from-sync-direct.
  void requireDriverFromSyncDirect(V Port);
  /// Marks an output port: its external sink must be to-sync-direct.
  void requireSinkToSyncDirect(V Port);

  // --- Finalization -------------------------------------------------------------

  /// Validates and returns the module. Asserts on invariant violations
  /// (construction bugs are programmer errors, per the coding standard).
  Module finish();

  /// Access to the module under construction (for advanced callers).
  Module &raw() { return M; }

private:
  V fresh(uint16_t Width, const char *Hint);
  /// "hint$N" composed into \ref NameBuf (reused across calls).
  std::string_view freshName(std::string_view Hint);
  V binary(Op Operation, V A, V B, uint16_t OutWidth);

  Module M;
  uint64_t NextTmp = 0;
  std::string NameBuf;
};

} // namespace wiresort::ir

#endif // WIRESORT_IR_BUILDER_H
