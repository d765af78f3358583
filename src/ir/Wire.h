//===- ir/Wire.h - Wires and wire kinds -------------------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Wire record and its kind taxonomy. Section 3.1 of the paper denotes
/// a wire w_sigma with sigma in {const, reg, in, out, basic}; WireKind is
/// the direct encoding of that set.
///
/// Wires carry a width so that designs can be described at the RTL level
/// with multi-bit "wire vectors" (as in PyRTL); see synth::lower for the
/// expansion to 1-bit primitive gates. Following Section 4 of the paper,
/// the analyses treat an N-bit wire as one unit, which over-approximates
/// per-bit dependencies but remains sound.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_IR_WIRE_H
#define WIRESORT_IR_WIRE_H

#include "ir/Ids.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace wiresort::ir {

/// The sigma tag of a wire (paper Section 3.1).
enum class WireKind : uint8_t {
  Const, ///< Produces a constant value.
  Reg,   ///< The latched output (Q pin) of a register.
  Input, ///< A module input port.
  Output,///< A module output port.
  Basic, ///< An internal wire connecting nets together.
};

/// Returns a short printable name for \p Kind ("const", "reg", ...).
const char *wireKindName(WireKind Kind);

/// A (possibly multi-bit) wire inside a module: the record Module::Wires
/// holds, one per wire. It owns no string and no value. The wire's name
/// is the byte range [NameOffset, NameOffset + NameSize) of its module's
/// name buffer, read through Module::wireName or Module::wire, so a
/// module's wires copy, move and free as one block and its names as
/// another. A Const wire's value sits in its module's constant table, at
/// ConstIndex, read through Module::wire or Module::constValue: few wires
/// are constants, so the other records carry no 8-byte value.
struct Wire {
  uint32_t NameOffset = 0;
  uint32_t NameSize = 0;
  WireKind Kind = WireKind::Basic;
  /// Bit width; the Builder enforces 1 <= Width <= 64.
  uint16_t Width = 1;
  /// Where a Const wire's value sits in its module's constant table;
  /// unused for other kinds.
  uint32_t ConstIndex = 0;
};

static_assert(sizeof(Wire) <= 16 && std::is_trivially_copyable_v<Wire>,
              "a wire record is at most 16 bytes and owns nothing");

/// A wire's name: a view of its module's name buffer. It is valid until
/// that module adds or renames a wire, or is moved or destroyed; copy it
/// into a std::string to keep it longer. It converts to std::string
/// implicitly and concatenates with std::string and C strings, so most
/// code reads it as it would a std::string.
class WireName : public std::string_view {
public:
  using std::string_view::string_view;

  operator std::string() const { return std::string(data(), size()); }

  friend std::string operator+(std::string L, WireName R) {
    L.append(R);
    return L;
  }
  friend std::string operator+(WireName L, const std::string &R) {
    return std::string(L).append(R);
  }
  friend std::string operator+(const char *L, WireName R) {
    return std::string(L).append(R);
  }
  friend std::string operator+(WireName L, const char *R) {
    return std::string(L).append(R);
  }
};

/// One wire as Module::wire returns it, by value: the record's fields, its
/// name and its value. The name is a WireName, valid as long as it is.
struct WireView {
  WireName Name;
  WireKind Kind;
  uint16_t Width;
  /// Value produced when Kind == Const, low Width bits significant; 0 for
  /// other kinds.
  uint64_t ConstValue;
};

} // namespace wiresort::ir

#endif // WIRESORT_IR_WIRE_H
