//===- ir/Net.h - Nets (gates) and operations -------------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A net is the paper's gate tuple (inputs, output, op): multiple wires in,
/// a single wire out, and a combinational operation. The operation set has
/// two strata: 1-bit primitive gates (the only ops that survive
/// synth::lower, and the ops BLIF import produces) and multi-bit RTL ops
/// produced by the Builder EDSL.
///
/// A Net record owns nothing. Its inputs and its cover live in two arrays
/// of the module that holds it (see ir::Module): every net's inputs back
/// to back in one WireId array, and every Lut's cover rows back to back in
/// one byte buffer. The record keeps the offset and count of each, so a
/// module's nets copy, move and free as three blocks, not as two heap
/// objects per net.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_IR_NET_H
#define WIRESORT_IR_NET_H

#include "ir/Ids.h"

#include <cstdint>
#include <string_view>
#include <type_traits>

namespace wiresort::ir {

/// Combinational operation computed by a net.
enum class Op : uint8_t {
  // --- Primitive gates (1-bit operands after lowering; the Builder also
  // --- applies them bitwise to equal-width vectors).
  And,
  Or,
  Xor,
  Nand,
  Nor,
  Xnor,
  Not,
  /// Identity. Used for port bindings and aliases; treated as transparent
  /// (zero combinational logic) by the -direct subsort classification.
  Buf,
  /// 2:1 multiplexer; inputs are [sel, a, b], computing sel ? a : b.
  Mux,
  /// Generic truth-table gate imported from BLIF .names; inputs are 1-bit,
  /// and the single-output cover is read through Module::netCover.
  Lut,

  // --- Multi-bit RTL operations (removed by synth::lower).
  /// Unsigned addition; operands and result share a width (carry-out is
  /// dropped).
  Add,
  /// Unsigned subtraction (two's complement; borrow dropped).
  Sub,
  /// Equality compare; result is 1 bit.
  Eq,
  /// Unsigned less-than; result is 1 bit.
  Lt,
  /// Concatenation; inputs listed most-significant first, result width is
  /// the sum of input widths.
  Concat,
  /// Bit slice [Aux + resultWidth - 1 : Aux] of the single input.
  Select,
  /// AND-reduce a vector to 1 bit.
  AndR,
  /// OR-reduce a vector to 1 bit.
  OrR,
  /// XOR-reduce a vector to 1 bit.
  XorR,
};

/// \returns a short mnemonic ("and", "mux", ...) for \p Operation.
const char *opName(Op Operation);

/// \returns true for operations that survive lowering to primitive gates.
bool isPrimitiveOp(Op Operation);

/// A gate: Output = Operation(Inputs). Module::netInputs and
/// Module::netCover read the ranges the record addresses; only Module
/// writes them (addNet, addCoverRow, replaceNet).
struct Net {
  Op Operation = Op::Buf;
  WireId Output = InvalidId;
  /// Operation-specific immediate: for Select, the low bit index.
  uint32_t Aux = 0;
  /// The net's inputs: NumInputs entries of the module's net-input array
  /// from InputOffset.
  uint32_t InputOffset = 0;
  uint32_t NumInputs = 0;
  /// For Lut: CoverRows rows of NumInputs + 1 bytes each in the module's
  /// cover buffer, from CoverOffset (see CoverView).
  uint32_t CoverOffset = 0;
  uint32_t CoverRows = 0;
};

static_assert(sizeof(Net) <= 32 && std::is_trivially_copyable_v<Net>,
              "a net record is at most 32 bytes and owns nothing");

/// One Lut's cover as Module::netCover returns it: a view of its rows,
/// valid as long as the view it came from. Each row is NumInputs + 1
/// bytes, BLIF's "<plane> <bit>" with the space dropped: the input plane,
/// one of '0', '1' or '-' per input, then the output bit '0' or '1'. So
/// "1-0 1" is stored as "1-01", and a zero-input constant-1 cover is the
/// one row "1".
///
/// BLIF gives all of a cover's rows one output bit (BLIF import refuses a
/// mix). Rows with output 1 list the ON-set: the net is 1 where some row
/// matches, else 0. Rows with output 0 list the OFF-set: the net is 0
/// where some row matches, else 1. A cover with no rows is constant 0.
class CoverView {
public:
  CoverView(std::string_view Rows, uint32_t RowBytes)
      : Rows(Rows), RowBytes(RowBytes) {}

  /// All rows, back to back.
  std::string_view bytes() const { return Rows; }
  uint32_t numRows() const {
    return static_cast<uint32_t>(Rows.size() / RowBytes);
  }
  /// Row \p I: its input plane, then its output bit.
  std::string_view row(uint32_t I) const {
    return Rows.substr(size_t(I) * RowBytes, RowBytes);
  }

  /// True when the rows list the OFF-set (their output bit is '0').
  bool isOffSet() const {
    return !Rows.empty() && Rows[RowBytes - 1] == '0';
  }

  /// The net's value when input I is \p Bit(I), for I below NumInputs:
  /// the one evaluator of a cover's meaning.
  template <typename BitFn> bool eval(BitFn Bit) const {
    for (uint32_t R = 0, E = numRows(); R != E; ++R) {
      const std::string_view Plane = row(R);
      bool Match = true;
      for (uint32_t I = 0; Match && I + 1 != RowBytes; ++I)
        Match = Plane[I] == '-' ||
                (Plane[I] == '1') == static_cast<bool>(Bit(I));
      if (Match)
        return !isOffSet();
    }
    return isOffSet();
  }

private:
  std::string_view Rows;
  uint32_t RowBytes;
};

} // namespace wiresort::ir

#endif // WIRESORT_IR_NET_H
