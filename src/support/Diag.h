//===- support/Diag.h - Structured diagnostics ------------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one diagnostic model every layer reports errors through. The
/// paper's core value proposition is *better error reports at module
/// granularity* (Sections 2, 5.5): a sort violation names interface
/// ports, not post-flatten gate loops. That promise only holds if the
/// tooling renders errors with precise, structured provenance, so every
/// error-producing layer — parse, analysis, synth, sim, the CLI —
/// produces support::Diag records instead of ad-hoc strings:
///
///  * a stable \ref DiagCode (WSxxx) machine contracts can key on;
///  * a \ref Severity;
///  * an optional \ref SrcLoc (file, 1-based line and column) for
///    anything rooted in input text;
///  * an optional witness path of (instance, port) hops — the paper's
///    loop evidence, rendered "fifo1.v_i -> fwd.v_o -> ... -> fifo1.v_i";
///  * ordered key/value notes for everything else worth machining.
///
/// Results travel as \ref Expected<T> (a value or diagnostics) or as a
/// plain \ref DiagList (advisory passes that report zero or more
/// findings). Two renderers are provided: human text (caret-style when
/// the source text is at hand) and newline-delimited JSON, the contract
/// `wiresort-check --format json` is golden-tested against
/// (docs/DIAGNOSTICS.md holds the code registry).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_DIAG_H
#define WIRESORT_SUPPORT_DIAG_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wiresort::support {

/// Stable diagnostic codes. The numeric value is part of the tool's
/// machine contract (docs/DIAGNOSTICS.md): 1xx analysis, 2xx parse,
/// 3xx simulation, 4xx synthesis, 5xx CLI/IO. Never renumber; retire
/// codes by leaving a gap.
enum class DiagCode : uint16_t {
  // --- 1xx: analysis ---
  WS101_COMB_LOOP = 101,          ///< Combinational loop (module or circuit).
  WS102_ASCRIPTION_MISMATCH = 102,///< Computed sort differs from declared.
  WS103_ASCRIPTION_INCOMPLETE = 103, ///< Opaque module under-ascribed.
  WS104_CONTRACT_VIOLATION = 104, ///< Sync-memory contract violated.
  // --- 2xx: parse ---
  WS201_BLIF_SYNTAX = 201,        ///< Malformed BLIF line.
  WS202_BLIF_STRUCTURE = 202,     ///< Cross-model BLIF inconsistency.
  WS211_VERILOG_LEX = 211,        ///< Verilog lexical error.
  WS212_VERILOG_SYNTAX = 212,     ///< Verilog syntax/elaboration error.
  WS213_VERILOG_UNSUPPORTED = 213,///< Construct outside the subset.
  WS221_SUMMARY_SYNTAX = 221,     ///< Malformed .wsort summary sidecar.
  // --- 3xx: simulation ---
  WS301_SIM_BUILD = 301,          ///< Simulator construction failed.
  WS302_SIM_COMB_LOOP = 302,      ///< Module cannot be levelized.
  // --- 4xx: synthesis ---
  WS401_NETLIST_CYCLE = 401,      ///< Gate-level cycle in a flat netlist.
  // --- 5xx: CLI / IO ---
  WS501_IO_ERROR = 501,           ///< File unreadable/unwritable.
  WS502_CACHE_FORMAT = 502,       ///< --cache file is not a loadable cache.
  WS503_USAGE = 503,              ///< Bad command line.
  // --- 6xx: robustness (docs/ROBUSTNESS.md) ---
  WS601_CANCELLED = 601,          ///< Run cancelled by deadline/token.
  WS602_CACHE_IO = 602,           ///< Cache save/load I/O degraded.
  WS603_CACHE_CORRUPT = 603,      ///< Corrupt cache record quarantined.
  WS604_WORKER_PANIC = 604,       ///< Worker task threw; contained.
  // 605 (pre-v3 cache migrated in place) is retired.
  WS606_TRANSPORT_TIMEOUT = 606,  ///< Socket read/write deadline expired.
  WS607_SERVER_BUSY = 607,        ///< Admission queue full; retryable.
};

/// The stable spelling ("WS101_COMB_LOOP") used in JSON output.
const char *diagCodeName(DiagCode Code);

enum class Severity : uint8_t { Note, Warning, Error };

const char *severityName(Severity S);

/// A position in input text; lines and columns are 1-based, 0 = unknown.
struct SrcLoc {
  std::string File;
  size_t Line = 0;
  size_t Col = 0;

  bool operator==(const SrcLoc &O) const {
    return File == O.File && Line == O.Line && Col == O.Col;
  }
};

/// One hop of a loop witness: an instance (or module) name plus the port
/// (or wire) it enters through. Rendered "instance.port".
struct WitnessHop {
  std::string Instance;
  std::string Port;

  std::string label() const { return Instance + "." + Port; }
  bool operator==(const WitnessHop &O) const {
    return Instance == O.Instance && Port == O.Port;
  }
};

/// One structured diagnostic record.
class Diag {
public:
  Diag() = default;
  Diag(DiagCode Code, std::string Message,
       Severity Sev = Severity::Error)
      : Code(Code), Sev(Sev), Message(std::move(Message)) {}

  // Fluent construction; each returns *this for chaining.
  Diag &&withLoc(SrcLoc Loc) && {
    this->Loc = std::move(Loc);
    return std::move(*this);
  }
  Diag &&withHop(std::string Instance, std::string Port) && {
    Witness.push_back({std::move(Instance), std::move(Port)});
    return std::move(*this);
  }
  Diag &&withNote(std::string Key, std::string Value) && {
    Notes.emplace_back(std::move(Key), std::move(Value));
    return std::move(*this);
  }

  DiagCode code() const { return Code; }
  Severity severity() const { return Sev; }
  const std::string &message() const { return Message; }
  const std::optional<SrcLoc> &loc() const { return Loc; }
  const std::vector<WitnessHop> &witness() const { return Witness; }
  const std::vector<std::pair<std::string, std::string>> &notes() const {
    return Notes;
  }
  /// First value recorded under \p Key, or "" when absent.
  std::string note(const std::string &Key) const;

  void addHop(std::string Instance, std::string Port) {
    Witness.push_back({std::move(Instance), std::move(Port)});
  }

  /// The witness as "instance.port" labels (the shape circuitDot and the
  /// older tests consume).
  std::vector<std::string> witnessLabels() const;

  /// One-line human rendering: "file:line:col: message: a.x -> b.y ->
  /// a.x". The witness repeats its first hop to show closure, matching
  /// the paper's cyclic-path presentation.
  std::string describe() const;

  /// Structural equality over every machine-visible field; what the
  /// determinism suites compare across serial/parallel/warm runs.
  bool operator==(const Diag &O) const {
    return Code == O.Code && Sev == O.Sev && Message == O.Message &&
           Loc == O.Loc && Witness == O.Witness && Notes == O.Notes;
  }

private:
  DiagCode Code = DiagCode::WS501_IO_ERROR;
  Severity Sev = Severity::Error;
  std::string Message;
  std::optional<SrcLoc> Loc;
  std::vector<WitnessHop> Witness;
  std::vector<std::pair<std::string, std::string>> Notes;
};

/// An ordered list of diagnostics. Deliberately *not* convertible to
/// bool: the pre-refactor APIs returned std::optional where truthy meant
/// failure, so an implicit conversion here would silently flip every
/// migrated call site's polarity. Ask hasError() explicitly.
class DiagList {
public:
  DiagList() = default;
  /*implicit*/ DiagList(Diag D) { Diags.push_back(std::move(D)); }

  void add(Diag D) { Diags.push_back(std::move(D)); }
  void append(const DiagList &Other) {
    Diags.insert(Diags.end(), Other.Diags.begin(), Other.Diags.end());
  }

  bool empty() const { return Diags.empty(); }
  size_t size() const { return Diags.size(); }
  const Diag &operator[](size_t I) const { return Diags[I]; }
  Diag &operator[](size_t I) { return Diags[I]; }
  auto begin() const { return Diags.begin(); }
  auto end() const { return Diags.end(); }

  /// Any diagnostic with severity >= Error?
  bool hasError() const {
    for (const Diag &D : Diags)
      if (D.severity() == Severity::Error)
        return true;
    return false;
  }
  /// The first error-severity diagnostic (must exist).
  const Diag &firstError() const;

  /// Human rendering, one line per diagnostic.
  std::string describe() const;

  bool operator==(const DiagList &O) const { return Diags == O.Diags; }

private:
  std::vector<Diag> Diags;
};

/// Result type for passes whose only output is diagnostics.
using Status = DiagList;

/// A value or the diagnostics explaining its absence. operator bool and
/// operator* keep the std::optional feel of the pre-refactor APIs:
/// truthy means "has a value".
template <typename T> class [[nodiscard]] Expected {
public:
  /*implicit*/ Expected(T Value) : Value(std::move(Value)) {}
  /*implicit*/ Expected(Diag D) { Diags.add(std::move(D)); }
  /*implicit*/ Expected(DiagList Ds) : Diags(std::move(Ds)) {
    assert(Diags.hasError() && "valueless Expected needs an error diag");
  }

  bool hasValue() const { return Value.has_value(); }
  explicit operator bool() const { return hasValue(); }

  T &operator*() & { return *Value; }
  const T &operator*() const & { return *Value; }
  T &&operator*() && { return *std::move(Value); }
  T *operator->() { return &*Value; }
  const T *operator->() const { return &*Value; }
  T &value() & { return *Value; }
  const T &value() const & { return *Value; }

  const DiagList &diags() const { return Diags; }
  DiagList &diags() { return Diags; }
  /// Human rendering of the diagnostics (empty string on success).
  std::string describe() const { return Diags.describe(); }

private:
  std::optional<T> Value;
  DiagList Diags;
};

// --- Renderers --------------------------------------------------------------

/// Human text rendering of \p D. When \p SourceText (the full text of
/// D.loc()->File) is supplied and the diag has a location, the offending
/// line is echoed with a caret under the column:
///
///   design.blif:3:1: error[WS201_BLIF_SYNTAX]: .model expects a name
///     .model
///     ^
std::string renderText(const Diag &D,
                       const std::string *SourceText = nullptr);
std::string renderText(const DiagList &Ds,
                       const std::string *SourceText = nullptr);

/// One JSON object, one line, no trailing newline. Field order is fixed
/// (severity, code, message, then loc/witness/notes when present) so the
/// output is byte-stable for golden tests.
std::string renderJson(const Diag &D);
/// Newline-delimited JSON: renderJson per diag, one per line.
std::string renderJson(const DiagList &Ds);

} // namespace wiresort::support

#endif // WIRESORT_SUPPORT_DIAG_H
