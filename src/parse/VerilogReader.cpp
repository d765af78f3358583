//===- parse/VerilogReader.cpp - Structural Verilog import ----------------===//
//
// Part of the wiresort project.
//
// Two-phase elaboration: phase 1 collects every module's interface and
// declarations (so instantiations may reference modules defined later in
// the file); phase 2 elaborates assignments, always blocks, and
// instances into IR nets.
//
//===----------------------------------------------------------------------===//

#include "parse/VerilogReader.h"

#include "parse/VerilogLexer.h"
#include "support/FailPoint.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::parse;

namespace {

/// An elaborated expression value.
struct Value {
  WireId Wire = InvalidId;
  uint16_t Width = 0;
  /// True for unsized literals, which adapt to their context width.
  bool Unsized = false;
};

/// What one name in a module stands for.
struct NameEntry {
  static constexpr size_t NotListed = SIZE_MAX;
  /// The declared wire; InvalidId while a classic header lists the name
  /// and no declaration has come yet.
  WireId Wire = InvalidId;
  /// Declared 'reg' (a register once a nonblocking assignment drives it).
  bool IsReg = false;
  /// The declaration's initializer, 0 when it has none.
  uint64_t Init = 0;
  /// The name's token in a classic header list (token order is header
  /// order), or NotListed.
  size_t ListedAt = NotListed;
};

/// Everything known about one module between the phases.
struct ModuleShell {
  Module M;
  /// The module's name token, and each instance's name token in
  /// M.Instances order: where a refusal of the elaborated design points.
  size_t NameTok = 0;
  std::vector<size_t> InstanceToks;
  /// Token span of the module body (after the header ';').
  size_t BodyBegin = 0, BodyEnd = 0;
  /// The header is a classic (non-ANSI) name list: only the names it
  /// lists may be declared input or output in the body.
  bool Classic = false;
  /// Token spans of the body declarations phase 1 consumed, in order.
  std::vector<std::pair<size_t, size_t>> DeclSpans;
  /// Every name the module declares or its header lists (names are
  /// unique per module).
  std::unordered_map<std::string, NameEntry> Names;

  /// \returns the declaration of \p Name, or null when nothing declares
  /// it (a listed name has an entry and no wire until its declaration).
  const NameEntry *declared(const std::string &Name) const {
    auto It = Names.find(Name);
    return It == Names.end() || It->second.Wire == InvalidId ? nullptr
                                                             : &It->second;
  }
};

class Parser {
public:
  Parser(const std::vector<Token> &Toks, const std::string &FileName,
         const support::Deadline *DL = nullptr)
      : Toks(Toks), FileName(FileName), DL(DL) {}

  support::Expected<VerilogFile> run() {
    // ---- Phase 1: interfaces and declarations. ----
    while (at("module")) {
      if (cancelled())
        return takeDiags();
      if (!parseModuleShell())
        return takeDiags();
    }
    if (!atEnd()) {
      failB("expected 'module', got '" + cur().Text + "'");
      return takeDiags();
    }
    if (Shells.empty()) {
      failB("no modules found");
      return takeDiags();
    }

    // ---- Phase 2: bodies. ----
    for (ModuleShell &Shell : Shells) {
      if (cancelled())
        return takeDiags();
      if (!elaborateBody(Shell))
        return takeDiags();
    }

    VerilogFile Result;
    for (ModuleShell &Shell : Shells)
      Result.Design.addModule(std::move(Shell.M));
    Result.Top = 0;
    if (auto Err = Result.Design.validate()) {
      const ModuleShell &Shell = Shells[Err->Module];
      failBAt(Err->Instance == DesignError::NoInstance
                  ? Shell.NameTok
                  : Shell.InstanceToks[Err->Instance],
              Err->Message);
      return takeDiags();
    }
    return Result;
  }

private:
  // --- Token helpers -------------------------------------------------------

  const Token &cur() const { return Toks[Pos]; }
  bool atEnd() const { return cur().Kind == TokKind::End; }
  bool at(const std::string &Text) const {
    return cur().Kind != TokKind::Number && cur().Text == Text;
  }
  bool atPunct(const std::string &Text) const {
    return cur().Kind == TokKind::Punct && cur().Text == Text;
  }
  void advance() { ++Pos; }
  bool accept(const std::string &Text) {
    if (!at(Text))
      return false;
    advance();
    return true;
  }

  support::DiagList takeDiags() {
    assert(Diags.hasError() && "parser failed without a diagnostic");
    return std::move(Diags);
  }

  /// Deadline poll, between module shells and bodies — a module is the
  /// unit of parse work worth bounding. Fires on the parse.cancel
  /// failpoint too, which simulates expiry deterministically.
  bool cancelled() {
    if (!DL || (!DL->expired() && !WS_FAILPOINT("parse.cancel")))
      return false;
    if (Diags.empty())
      Diags.add(
          support::Diag(support::DiagCode::WS601_CANCELLED,
                        "parse cancelled by deadline")
              .withLoc(support::SrcLoc{FileName, cur().Line, cur().Col}));
    return true;
  }

  /// Records the first diagnostic at token \p At (later failures are
  /// fallout from the first) and returns false.
  bool failAt(size_t At, support::DiagCode Code, const std::string &Msg) {
    if (Diags.empty())
      Diags.add(support::Diag(Code, Msg).withLoc(
          support::SrcLoc{FileName, Toks[At].Line, Toks[At].Col}));
    return false;
  }
  bool failAs(support::DiagCode Code, const std::string &Msg) {
    return failAt(Pos, Code, Msg);
  }
  bool failB(const std::string &Msg) {
    return failAs(support::DiagCode::WS212_VERILOG_SYNTAX, Msg);
  }
  bool failBAt(size_t At, const std::string &Msg) {
    return failAt(At, support::DiagCode::WS212_VERILOG_SYNTAX, Msg);
  }
  /// A construct outside the supported subset (valid Verilog we reject).
  bool failU(const std::string &Msg) {
    return failAs(support::DiagCode::WS213_VERILOG_UNSUPPORTED, Msg);
  }

  bool expect(const std::string &Text) {
    if (accept(Text))
      return true;
    return failB("expected '" + Text + "', got '" + cur().Text + "'");
  }

  bool expectIdent(std::string &Out) {
    if (cur().Kind != TokKind::Ident)
      return failB("expected identifier, got '" + cur().Text + "'");
    Out = cur().Text;
    advance();
    return true;
  }

  // --- Phase 1 -------------------------------------------------------------

  /// Parses an optional "[hi:lo]" range; \returns width (1 if absent).
  bool parseRange(uint16_t &Width) {
    Width = 1;
    if (!atPunct("["))
      return true;
    advance();
    if (cur().Kind != TokKind::Number)
      return failB("expected range bound");
    uint64_t Hi = cur().Value;
    advance();
    if (!expect(":"))
      return false;
    if (cur().Kind != TokKind::Number)
      return failB("expected range bound");
    uint64_t Lo = cur().Value;
    advance();
    if (!expect("]"))
      return false;
    if (Lo != 0 || Hi > 63)
      return failU("only [N:0] ranges up to [63:0] are supported");
    Width = static_cast<uint16_t>(Hi + 1);
    return true;
  }

  /// Parses "input|output|wire|reg [range] name {, name}" after the
  /// direction keyword has been *identified* but not consumed. In an
  /// ANSI header a comma either continues the declaration or starts the
  /// next one, which the caller parses.
  bool parseDecl(ModuleShell &Shell, bool InHeader) {
    WireKind Kind = WireKind::Basic;
    if (accept("input"))
      Kind = WireKind::Input;
    else if (accept("output"))
      Kind = WireKind::Output;
    bool IsReg = false;
    if (accept("reg"))
      IsReg = true;
    else
      accept("wire");
    uint16_t Width;
    if (!parseRange(Width))
      return false;
    while (true) {
      std::string Name;
      const size_t NameTok = Pos;
      if (!expectIdent(Name))
        return false;
      NameEntry &Entry = Shell.Names[Name];
      if (Kind != WireKind::Basic && !InHeader &&
          Entry.ListedAt == NameEntry::NotListed)
        return failBAt(NameTok, "port '" + Name +
                                    "' is not in the port list of module '" +
                                    Shell.M.Name + "'");
      if (Entry.Wire != InvalidId)
        return failBAt(NameTok, "duplicate declaration of '" + Name + "'");
      Entry.Wire = Kind == WireKind::Input ? Shell.M.addInput(Name, Width)
                   : Kind == WireKind::Output
                       ? Shell.M.addOutput(Name, Width)
                       : Shell.M.addWire(Name, Kind, Width);
      Entry.IsReg = IsReg;
      // Optional initializer: reg q = 1'b1;
      if (atPunct("=")) {
        advance();
        if (cur().Kind != TokKind::Number)
          return failB("reg initializer must be a literal");
        Entry.Init = cur().Value;
        advance();
      }
      if (!atPunct(","))
        break;
      advance();
      if (InHeader && (at("input") || at("output")))
        return true;
    }
    return InHeader || expect(";");
  }

  bool parseModuleShell() {
    if (!expect("module"))
      return false;
    ModuleShell Shell;
    Shell.NameTok = Pos;
    if (!expectIdent(Shell.M.Name))
      return false;
    if (!IdByName.emplace(Shell.M.Name, static_cast<ModuleId>(Shells.size()))
             .second)
      return failBAt(Shell.NameTok,
                     "duplicate module '" + Shell.M.Name + "'");

    if (atPunct("(")) {
      advance();
      if (!atPunct(")")) {
        // ANSI declarations or a classic name list.
        bool Ansi = at("input") || at("output");
        if (Ansi) {
          do {
            if (!at("input") && !at("output"))
              return failB("expected port direction");
            if (!parseDecl(Shell, /*InHeader=*/true))
              return false;
          } while (!atPunct(")"));
        } else {
          // Classic: just names; directions come from body decls, and
          // the header order becomes the port order once they are in.
          Shell.Classic = true;
          while (true) {
            std::string Name;
            const size_t PortTok = Pos;
            if (!expectIdent(Name))
              return false;
            if (!Shell.Names.emplace(Name, NameEntry{.ListedAt = PortTok})
                     .second)
              return failBAt(PortTok, "port '" + Name + "' listed twice");
            if (!atPunct(","))
              break;
            advance();
          }
        }
      }
      if (!expect(")"))
        return false;
    }
    if (!expect(";"))
      return false;

    // Scan the body: consume declarations now, remember everything else
    // for phase 2 by token position.
    Shell.BodyBegin = Pos;
    size_t Depth = 0;
    while (!atEnd() && !(Depth == 0 && at("endmodule"))) {
      if (Depth == 0 && (at("input") || at("output") || at("wire") ||
                         at("reg"))) {
        // Parse declarations in place and remember their spans, which
        // phase 2's walk over the body skips.
        size_t Start = Pos;
        if (!parseDecl(Shell, /*InHeader=*/false))
          return false;
        Shell.DeclSpans.emplace_back(Start, Pos);
        continue;
      }
      if (at("begin"))
        ++Depth;
      if (at("end") && Depth > 0)
        --Depth;
      advance();
    }
    Shell.BodyEnd = Pos;
    if (!expect("endmodule"))
      return false;
    if (!orderListedPorts(Shell))
      return false;
    Shells.push_back(std::move(Shell));
    return true;
  }

  /// Puts a classic header's ports in header order. Every body
  /// input/output is listed (parseDecl refuses the others), so each
  /// listed name must resolve to one. The only walk over the name
  /// table: it sorts by token, so the table's order never shows.
  bool orderListedPorts(ModuleShell &Shell) {
    if (!Shell.Classic)
      return true;
    std::vector<std::tuple<size_t, const std::string *, WireId>> Listed;
    for (const auto &[Name, Entry] : Shell.Names)
      if (Entry.ListedAt != NameEntry::NotListed)
        Listed.emplace_back(Entry.ListedAt, &Name, Entry.Wire);
    std::sort(Listed.begin(), Listed.end());
    Module &M = Shell.M;
    M.Inputs.clear();
    M.Outputs.clear();
    for (const auto &[Tok, Name, W] : Listed) {
      if (W != InvalidId && M.isInput(W))
        M.Inputs.push_back(W);
      else if (W != InvalidId && M.isOutput(W))
        M.Outputs.push_back(W);
      else
        return failBAt(Tok, "port '" + *Name +
                                "' has no input or output declaration");
    }
    return true;
  }

  // --- Phase 2 -------------------------------------------------------------

  WireId freshWire(ModuleShell &Shell, uint16_t Width) {
    return Shell.M.addWire("$t" + std::to_string(Temp++),
                           WireKind::Basic, Width);
  }

  /// Adds a net computing \p Operation of \p Inputs into a fresh
  /// \p Width-bit wire, whose value it returns.
  Value emitNet(ModuleShell &Shell, Op Operation, std::vector<WireId> Inputs,
                uint16_t Width, uint32_t Aux = 0) {
    WireId W = freshWire(Shell, Width);
    Shell.M.addNet(Operation, Inputs, W, Aux);
    return Value{W, Width};
  }

  Value constValue(ModuleShell &Shell, uint64_t V, uint16_t Width,
                   bool Unsized) {
    WireId W = Shell.M.addWire("$c" + std::to_string(Temp++),
                               WireKind::Const, Width, V);
    return Value{W, Width, Unsized};
  }

  /// Resizes \p V to \p Width (only legal for unsized constants).
  bool adapt(ModuleShell &Shell, Value &V, uint16_t Width) {
    if (V.Width == Width)
      return true;
    if (!V.Unsized)
      return failB("width mismatch in expression");
    uint64_t Raw = Shell.M.wire(V.Wire).ConstValue;
    if (Width < 64 && Raw >= (1ull << Width))
      return failB("literal does not fit its context width");
    V = constValue(Shell, Raw, Width, false);
    return true;
  }

  /// Unifies operand widths (constants adapt) and emits a net.
  bool emitBinary(ModuleShell &Shell, Op Operation, Value &A, Value &B,
                  Value &Out) {
    if (A.Width != B.Width) {
      if (A.Unsized && !B.Unsized) {
        if (!adapt(Shell, A, B.Width))
          return false;
      } else if (B.Unsized && !A.Unsized) {
        if (!adapt(Shell, B, A.Width))
          return false;
      } else {
        return failB("width mismatch in expression");
      }
    }
    uint16_t OutW =
        (Operation == Op::Eq || Operation == Op::Lt) ? 1 : A.Width;
    Out = emitNet(Shell, Operation, {A.Wire, B.Wire}, OutW);
    return true;
  }

  /// OR-reduces to one bit (for logical operators).
  Value toBool(ModuleShell &Shell, Value V) {
    return V.Width == 1 ? V : emitNet(Shell, Op::OrR, {V.Wire}, 1);
  }

  /// Constant shift via concat/select (no variable shifts in the
  /// structural subset).
  bool emitShift(ModuleShell &Shell, bool Left, Value A, uint64_t By,
                 Value &Out) {
    if (A.Unsized)
      return failU("shift of an unsized literal");
    uint16_t W = A.Width;
    if (By >= W) {
      Out = constValue(Shell, 0, W, false);
      return true;
    }
    if (By == 0) {
      Out = A;
      return true;
    }
    WireId Zeros = Shell.M.addWire("$z" + std::to_string(Temp++),
                                   WireKind::Const,
                                   static_cast<uint16_t>(By), 0);
    // a << n keeps bits [W-n-1:0] above n zeros; a >> n keeps [W-1:n].
    Value Piece =
        emitNet(Shell, Op::Select, {A.Wire}, static_cast<uint16_t>(W - By),
                Left ? 0 : static_cast<uint32_t>(By));
    Out = emitNet(Shell, Op::Concat,
                  Left ? std::vector<WireId>{Piece.Wire, Zeros}
                       : std::vector<WireId>{Zeros, Piece.Wire},
                  W);
    return true;
  }

  // Expression grammar, lowest precedence first.
  bool parseExpr(ModuleShell &Shell, Value &Out) { // ?:
    Value Cond;
    if (!parseBinary(Shell, 0, Cond))
      return false;
    if (!atPunct("?")) {
      Out = Cond;
      return true;
    }
    advance();
    Value TrueV, FalseV;
    if (!parseExpr(Shell, TrueV))
      return false;
    if (!expect(":"))
      return false;
    if (!parseExpr(Shell, FalseV))
      return false;
    Cond = toBool(Shell, Cond);
    if (TrueV.Width != FalseV.Width) {
      if (TrueV.Unsized && !adapt(Shell, TrueV, FalseV.Width))
        return false;
      if (FalseV.Unsized && !adapt(Shell, FalseV, TrueV.Width))
        return false;
      if (TrueV.Width != FalseV.Width)
        return failB("mux arm width mismatch");
    }
    Out = emitNet(Shell, Op::Mux, {Cond.Wire, TrueV.Wire, FalseV.Wire},
                  TrueV.Width);
    return true;
  }

  /// How a binary operator builds its net from operands a and b.
  enum Form : uint8_t {
    Plain = 0,
    Logical = 1, ///< op(|a, |b): || and && reduce each operand to a bit.
    Swap = 2,    ///< op(b, a): a > b is b < a.
    Negate = 4,  ///< ~op(..): a != b is ~(a == b), a >= b is ~(a < b).
    Shift = 8,   ///< b is a number token; emitShift builds the net.
  };

  struct BinaryOp {
    const char *Text;
    /// Precedence level: 0 binds loosest; each level is left-associative.
    unsigned Level;
    Op Operation; ///< Unused by the shifts.
    uint8_t How;  ///< Form flags.
  };

  static constexpr unsigned NumLevels = 9;
  static constexpr BinaryOp BinaryOps[] = {
      {"||", 0, Op::Or, Logical},       {"&&", 1, Op::And, Logical},
      {"|", 2, Op::Or, Plain},          {"^", 3, Op::Xor, Plain},
      {"&", 4, Op::And, Plain},         {"==", 5, Op::Eq, Plain},
      {"!=", 5, Op::Eq, Negate},        {"<", 6, Op::Lt, Plain},
      {">", 6, Op::Lt, Swap},           {"<=", 6, Op::Lt, Swap | Negate},
      {">=", 6, Op::Lt, Negate},        {"<<", 7, Op::Concat, Shift},
      {">>", 7, Op::Concat, Shift},     {"+", 8, Op::Add, Plain},
      {"-", 8, Op::Sub, Plain}};

  /// \returns the operator of precedence \p Level at the cursor, if any.
  const BinaryOp *binaryOpAt(unsigned Level) const {
    if (cur().Kind != TokKind::Punct)
      return nullptr;
    for (const BinaryOp &Bin : BinaryOps)
      if (Bin.Level == Level && cur().Text == Bin.Text)
        return &Bin;
    return nullptr;
  }

  /// Parses the operators of precedence \p Level and tighter.
  bool parseBinary(ModuleShell &Shell, unsigned Level, Value &Out) {
    if (Level == NumLevels)
      return parseUnary(Shell, Out);
    if (!parseBinary(Shell, Level + 1, Out))
      return false;
    while (const BinaryOp *Bin = binaryOpAt(Level)) {
      advance();
      if (Bin->How & Shift) {
        if (cur().Kind != TokKind::Number)
          return failU("only constant shift amounts are supported");
        const uint64_t By = cur().Value;
        advance();
        if (!emitShift(Shell, Bin->Text[0] == '<', Out, By, Out))
          return false;
        continue;
      }
      Value Rhs;
      if (!parseBinary(Shell, Level + 1, Rhs))
        return false;
      if (Bin->How & Logical) {
        Out = toBool(Shell, Out);
        Rhs = toBool(Shell, Rhs);
      }
      Value &A = Bin->How & Swap ? Rhs : Out;
      Value &B = Bin->How & Swap ? Out : Rhs;
      if (!emitBinary(Shell, Bin->Operation, A, B, Out))
        return false;
      if (Bin->How & Negate)
        Out = emitNet(Shell, Op::Not, {Out.Wire}, 1);
    }
    return true;
  }

  bool parseUnary(ModuleShell &Shell, Value &Out) {
    if (atPunct("~")) {
      advance();
      if (!parseUnary(Shell, Out))
        return false;
      Out = emitNet(Shell, Op::Not, {Out.Wire}, Out.Width);
      return true;
    }
    if (atPunct("!")) {
      advance();
      if (!parseUnary(Shell, Out))
        return false;
      Out = emitNet(Shell, Op::Not, {toBool(Shell, Out).Wire}, 1);
      return true;
    }
    // Reduction operators: &x |x ^x as prefixes of a primary.
    if (atPunct("&") || atPunct("|") || atPunct("^")) {
      // Only treat as reduction when followed directly by a primary —
      // here this is always the case since binary forms are consumed at
      // higher levels before unary is reached with the operator still
      // pending.
      Op Operation = cur().Text == "&"   ? Op::AndR
                     : cur().Text == "|" ? Op::OrR
                                         : Op::XorR;
      advance();
      Value Inner;
      if (!parseUnary(Shell, Inner))
        return false;
      Out = emitNet(Shell, Operation, {Inner.Wire}, 1);
      return true;
    }
    return parsePrimary(Shell, Out);
  }

  bool parsePrimary(ModuleShell &Shell, Value &Out) {
    if (cur().Kind == TokKind::Number) {
      uint16_t Width = cur().Width ? cur().Width : 32;
      Out = constValue(Shell, cur().Value, Width, cur().Width == 0);
      advance();
      return true;
    }
    if (atPunct("(")) {
      advance();
      if (!parseExpr(Shell, Out))
        return false;
      return expect(")");
    }
    if (atPunct("{")) {
      advance();
      std::vector<Value> Parts;
      while (true) {
        Value Part;
        if (!parseExpr(Shell, Part))
          return false;
        if (Part.Unsized)
          return failB("unsized literal in concatenation");
        Parts.push_back(Part);
        if (!atPunct(","))
          break;
        advance();
      }
      if (!expect("}"))
        return false;
      uint32_t Total = 0;
      std::vector<WireId> Ids;
      for (const Value &Part : Parts) {
        Total += Part.Width;
        Ids.push_back(Part.Wire);
      }
      if (Total > 64)
        return failU("concatenation wider than 64 bits");
      Out = emitNet(Shell, Op::Concat, std::move(Ids),
                    static_cast<uint16_t>(Total));
      return true;
    }
    if (cur().Kind == TokKind::Ident) {
      const NameEntry *Entry = Shell.declared(cur().Text);
      if (!Entry)
        return failB("use of undeclared net '" + cur().Text + "'");
      advance();
      Out = Value{Entry->Wire, Shell.M.wire(Entry->Wire).Width};
      // Optional bit/part select.
      if (atPunct("[")) {
        advance();
        if (cur().Kind != TokKind::Number)
          return failU("only constant selects are supported");
        uint64_t Hi = cur().Value;
        uint64_t Lo = Hi;
        advance();
        if (atPunct(":")) {
          advance();
          if (cur().Kind != TokKind::Number)
            return failU("only constant selects are supported");
          Lo = cur().Value;
          advance();
        }
        if (!expect("]"))
          return false;
        if (Lo > Hi || Hi >= Out.Width)
          return failB("select out of range");
        Out = emitNet(Shell, Op::Select, {Out.Wire},
                      static_cast<uint16_t>(Hi - Lo + 1),
                      static_cast<uint32_t>(Lo));
      }
      return true;
    }
    return failB("expected expression, got '" + cur().Text + "'");
  }

  // --- Statements -----------------------------------------------------------

  bool elaborateAssign(ModuleShell &Shell) {
    std::string Target;
    if (!expectIdent(Target))
      return false;
    if (atPunct("["))
      return failU("bit-select assignment targets are unsupported");
    const NameEntry *Entry = Shell.declared(Target);
    if (!Entry)
      return failB("assignment to undeclared net '" + Target + "'");
    if (!expect("="))
      return false;
    Value V;
    if (!parseExpr(Shell, V))
      return false;
    if (!adapt(Shell, V, Shell.M.wire(Entry->Wire).Width))
      return false;
    Shell.M.addNet(Op::Buf, {V.Wire}, Entry->Wire);
    return expect(";");
  }

  bool elaborateRegister(ModuleShell &Shell, const std::string &Target,
                         size_t TargetTok, Value D) {
    const NameEntry *Entry = Shell.declared(Target);
    if (!Entry)
      return failBAt(TargetTok, "nonblocking assignment to undeclared '" +
                                    Target + "'");
    if (!Entry->IsReg)
      return failBAt(TargetTok, "nonblocking assignment target '" + Target +
                                    "' is not a reg");
    const WireId Q = Entry->Wire;
    if (Shell.M.isInput(Q))
      return failBAt(TargetTok, "nonblocking assignment to input '" +
                                    Target + "'");
    uint16_t Width = Shell.M.wire(Q).Width;
    if (!adapt(Shell, D, Width))
      return false;
    if (Shell.M.isOutput(Q)) {
      // Latched output port: register an inner wire, buffer it out.
      WireId Inner =
          Shell.M.addWire(Target + "$reg", WireKind::Reg, Width);
      Shell.M.addRegister(D.Wire, Inner, Entry->Init);
      Shell.M.addNet(Op::Buf, {Inner}, Q);
    } else {
      Shell.M.Wires[Q].Kind = WireKind::Reg;
      Shell.M.addRegister(D.Wire, Q, Entry->Init);
    }
    return true;
  }

  bool elaborateAlways(ModuleShell &Shell) {
    if (!expect("@") || !expect("(") || !expect("posedge"))
      return false;
    std::string Clock;
    if (!expectIdent(Clock))
      return false;
    if (!Shell.declared(Clock))
      return failB("unknown clock '" + Clock + "'");
    if (!expect(")"))
      return false;

    auto statement = [&]() {
      std::string Target;
      const size_t TargetTok = Pos;
      if (!expectIdent(Target))
        return false;
      if (!expect("<="))
        return false;
      Value D;
      if (!parseExpr(Shell, D))
        return false;
      if (!elaborateRegister(Shell, Target, TargetTok, D))
        return false;
      return expect(";");
    };
    if (accept("begin")) {
      while (!at("end")) {
        if (atEnd())
          return failB("unterminated always block");
        if (!statement())
          return false;
      }
      return expect("end");
    }
    return statement();
  }

  bool elaborateInstance(ModuleShell &Shell) {
    std::string DefName, InstName;
    if (!expectIdent(DefName))
      return false;
    const size_t InstTok = Pos;
    if (!expectIdent(InstName))
      return false;
    auto DefIt = IdByName.find(DefName);
    if (DefIt == IdByName.end())
      return failB("instantiation of unknown module '" + DefName + "'");
    const ModuleShell &Def = Shells[DefIt->second];
    if (!expect("("))
      return false;

    SubInstance Inst;
    Inst.Def = DefIt->second;
    Inst.Name = InstName;
    std::set<WireId> Bound;
    while (!atPunct(")")) {
      if (!expect("."))
        return false;
      std::string PortName;
      if (!expectIdent(PortName))
        return false;
      // A formal is a port when it names one of Def's inputs or outputs.
      const NameEntry *Formal = Def.declared(PortName);
      const WireId Port = Formal ? Formal->Wire : InvalidId;
      if (Port == InvalidId || !(Def.M.isInput(Port) || Def.M.isOutput(Port)))
        return failB("module '" + DefName + "' has no port '" +
                     PortName + "'");
      if (!Bound.insert(Port).second)
        return failB("port '" + PortName + "' bound twice");
      if (!expect("("))
        return false;
      if (Def.M.isInput(Port)) {
        Value V;
        if (!parseExpr(Shell, V))
          return false;
        if (!adapt(Shell, V, Def.M.wire(Port).Width))
          return false;
        Inst.Bindings.emplace_back(Port, V.Wire);
      } else {
        // Outputs must connect to a plain declared net.
        std::string Target;
        if (!expectIdent(Target))
          return false;
        const NameEntry *Actual = Shell.declared(Target);
        if (!Actual)
          return failB("instance output bound to undeclared '" +
                       Target + "'");
        if (Shell.M.wire(Actual->Wire).Width != Def.M.wire(Port).Width)
          return failB("width mismatch on port '" + PortName + "'");
        Inst.Bindings.emplace_back(Port, Actual->Wire);
      }
      if (!expect(")"))
        return false;
      if (!atPunct(","))
        break;
      advance();
    }
    if (!expect(")") || !expect(";"))
      return false;

    // Unbound outputs dangle into fresh wires; unbound inputs error via
    // Design::validate later.
    for (WireId Out : Def.M.Outputs)
      if (!Bound.count(Out))
        Inst.Bindings.emplace_back(
            Out, freshWire(Shell, Def.M.wire(Out).Width));
    Shell.M.addInstance(std::move(Inst));
    Shell.InstanceToks.push_back(InstTok);
    return true;
  }

  bool elaborateBody(ModuleShell &Shell) {
    const auto &Decls = Shell.DeclSpans;
    size_t DeclIdx = 0;
    Pos = Shell.BodyBegin;
    while (Pos < Shell.BodyEnd) {
      // Skip the declaration spans already consumed in phase 1.
      if (DeclIdx < Decls.size() && Pos == Decls[DeclIdx].first) {
        Pos = Decls[DeclIdx].second;
        ++DeclIdx;
        continue;
      }
      if (accept("assign")) {
        if (!elaborateAssign(Shell))
          return false;
        continue;
      }
      if (accept("always")) {
        if (!elaborateAlways(Shell))
          return false;
        continue;
      }
      if (accept("initial"))
        return failU("'initial' blocks are unsupported; use reg "
                     "initializers");
      if (cur().Kind == TokKind::Ident) {
        if (!elaborateInstance(Shell))
          return false;
        continue;
      }
      return failB("unexpected '" + cur().Text + "' in module body");
    }
    return true;
  }

  const std::vector<Token> &Toks;
  std::string FileName;
  const support::Deadline *DL = nullptr;
  support::DiagList Diags;
  size_t Pos = 0;
  uint64_t Temp = 0;
  std::vector<ModuleShell> Shells;
  std::map<std::string, ModuleId> IdByName;
};

} // namespace

support::Expected<VerilogFile>
parse::parseVerilog(const std::string &Text, const std::string &FileName,
                    const support::Deadline *DL) {
  static trace::Counter &ParseBytes = trace::counter("parse.bytes");
  ParseBytes.add(Text.size());
  trace::Span ParseSpan("parse.verilog", "parse");
  ParseSpan.note("file", FileName)
      .note("bytes", static_cast<uint64_t>(Text.size()));
  auto Toks = lexVerilog(Text, FileName);
  if (!Toks)
    return Toks.diags();
  Parser P(*Toks, FileName, DL);
  return P.run();
}
