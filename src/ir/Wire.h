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
#include <iosfwd>
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
/// lives in its module's name buffer, read through Module::wireName or
/// Module::wire, so a module's wires copy, move and free as one block and
/// its names as another. A name is one part, the byte range
/// [NameOffset, NameOffset + NameSize) of the buffer, or, when Prefixed,
/// two: that range is its tail, and Index names its prefix in the
/// module's prefix table, so it reads "prefix.tail". Circuit::seal names
/// every wire it makes this way, "instance.port", with every instance's
/// name and every definition's port names written once. A Const wire's
/// value sits in its module's constant table at Index, read through
/// Module::wire or Module::constValue: few wires are constants, so the
/// other records carry no 8-byte value. A Const wire is never Prefixed.
struct Wire {
  uint32_t NameOffset = 0;
  uint32_t NameSize = 0;
  WireKind Kind = WireKind::Basic;
  /// Whether the name has a prefix, at Index in the prefix table.
  bool Prefixed = false;
  /// Bit width; the Builder enforces 1 <= Width <= 64.
  uint16_t Width = 1;
  /// Where a Const wire's value sits in its module's constant table, or
  /// where a Prefixed wire's prefix sits in its prefix table; unused
  /// otherwise.
  uint32_t Index = 0;
};

static_assert(sizeof(Wire) <= 16 && std::is_trivially_copyable_v<Wire>,
              "a wire record is at most 16 bytes and owns nothing");

/// A wire's name, as views of its module's name buffer: one part, or a
/// prefix and a tail that read "prefix.tail" (see Wire). The flag, not an
/// empty prefix, marks a two-part name, so an instance named "" still
/// names its ports ".port". A WireName is valid until that module adds
/// or renames a wire, or is moved or destroyed; copy it into a
/// std::string to keep it longer.
///
/// It compares with strings and other names, prints, converts to
/// std::string implicitly, appends to one with +=, and concatenates with
/// std::string and C strings, so most code reads it as it would a
/// std::string. It is no string_view: a caller that needs its bytes in
/// one piece renders them with std::string or +=.
class WireName {
public:
  WireName() = default;
  /// A one-part name.
  explicit WireName(std::string_view Name) : Tail(Name) {}
  /// The name "prefix.tail".
  WireName(std::string_view Prefix, std::string_view Tail)
      : Prefix(Prefix), Tail(Tail), HasPrefix(true) {}

  bool hasPrefix() const { return HasPrefix; }
  /// The part before the dot; empty for a one-part name.
  std::string_view prefix() const { return Prefix; }
  /// The part after the dot, or the whole of a one-part name.
  std::string_view tail() const { return Tail; }

  /// The rendered name's length in bytes.
  size_t size() const {
    return HasPrefix ? Prefix.size() + 1 + Tail.size() : Tail.size();
  }

  operator std::string() const {
    std::string S;
    S.reserve(size());
    S += *this;
    return S;
  }

  /// Appends the rendered name to \p L.
  friend std::string &operator+=(std::string &L, const WireName &R) {
    if (R.HasPrefix)
      L.append(R.Prefix).append(1, '.');
    return L.append(R.Tail);
  }

  /// Whether \p L renders to the bytes of \p R. C++20 derives !=, and
  /// the same comparisons with the operands swapped.
  friend bool operator==(const WireName &L, std::string_view R) {
    if (!L.HasPrefix)
      return L.Tail == R;
    return R.size() == L.size() && R.starts_with(L.Prefix) &&
           R[L.Prefix.size()] == '.' && R.ends_with(L.Tail);
  }

  friend std::string operator+(std::string L, const WireName &R) {
    L += R;
    return L;
  }
  friend std::string operator+(const WireName &L, const std::string &R) {
    std::string S = L;
    S += R;
    return S;
  }
  friend std::string operator+(const char *L, const WireName &R) {
    return std::string(L) + R;
  }
  friend std::string operator+(const WireName &L, const char *R) {
    std::string S = L;
    S += R;
    return S;
  }

private:
  std::string_view Prefix;
  std::string_view Tail;
  bool HasPrefix = false;
};

/// Whether \p L and \p R render to the same bytes.
bool operator==(const WireName &L, const WireName &R);

/// Writes the rendered name.
std::ostream &operator<<(std::ostream &OS, const WireName &N);

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
