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
#include <map>
#include <set>

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

/// Everything known about one module between the phases.
struct ModuleShell {
  Module M;
  /// Token span of the module body (after the header ';').
  size_t BodyBegin = 0, BodyEnd = 0;
  /// A classic (non-ANSI) header's port names, each mapped to the index
  /// of its token; token order is header order. Only these names may be
  /// declared input or output in the body.
  std::map<std::string, size_t> ClassicPorts;
  /// Token spans of the body declarations phase 1 consumed, in order.
  std::vector<std::pair<size_t, size_t>> DeclSpans;
  std::map<std::string, WireId> ByName;
  /// The ports by name, indexed once phase 1 has declared them all.
  PortIndex Ports;
  /// Declared 'reg' names (promoted to registers when assigned).
  std::set<std::string> Regs;
  /// Declared reg initializers.
  std::map<std::string, uint64_t> RegInit;
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
      Diags.add(support::Diag(support::DiagCode::WS212_VERILOG_SYNTAX,
                              *Err)
                    .withLoc(support::SrcLoc{FileName, 0, 0}));
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

  enum class Dir { None, Input, Output };

  /// Declares net \p Name, read at token \p NameTok (where a duplicate
  /// is reported).
  bool declareNet(ModuleShell &Shell, Dir Direction, bool IsReg,
                  uint16_t Width, const std::string &Name, size_t NameTok) {
    if (Shell.ByName.count(Name))
      return failBAt(NameTok, "duplicate declaration of '" + Name + "'");
    WireId W;
    switch (Direction) {
    case Dir::Input:
      W = Shell.M.addInput(Name, Width);
      break;
    case Dir::Output:
      W = Shell.M.addOutput(Name, Width);
      break;
    case Dir::None:
      W = Shell.M.addWire(Name, WireKind::Basic, Width);
      break;
    }
    Shell.ByName[Name] = W;
    if (IsReg)
      Shell.Regs.insert(Name);
    // Optional initializer: reg q = 1'b1;
    if (atPunct("=")) {
      advance();
      if (cur().Kind != TokKind::Number)
        return failB("reg initializer must be a literal");
      Shell.RegInit[Name] = cur().Value;
      advance();
    }
    return true;
  }

  /// Parses "input|output|wire|reg [range] name {, name}" after the
  /// direction keyword has been *identified* but not consumed.
  bool parseDecl(ModuleShell &Shell, bool InHeader) {
    Dir Direction = Dir::None;
    if (accept("input"))
      Direction = Dir::Input;
    else if (accept("output"))
      Direction = Dir::Output;
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
      if (Direction != Dir::None && !InHeader &&
          !Shell.ClassicPorts.count(Name))
        return failBAt(NameTok, "port '" + Name +
                                    "' is not in the port list of module '" +
                                    Shell.M.Name + "'");
      if (!declareNet(Shell, Direction, IsReg, Width, Name, NameTok))
        return false;
      if (InHeader) {
        // In an ANSI header the comma either continues this decl or
        // starts a new one; the caller handles that.
        return true;
      }
      if (!atPunct(","))
        break;
      advance();
    }
    return expect(";");
  }

  bool parseModuleShell() {
    if (!expect("module"))
      return false;
    ModuleShell Shell;
    const size_t NameTok = Pos;
    if (!expectIdent(Shell.M.Name))
      return false;
    if (!IdByName.emplace(Shell.M.Name, static_cast<ModuleId>(Shells.size()))
             .second)
      return failBAt(NameTok, "duplicate module '" + Shell.M.Name + "'");

    if (atPunct("(")) {
      advance();
      if (!atPunct(")")) {
        // ANSI declarations or a classic name list.
        bool Ansi = at("input") || at("output");
        if (Ansi) {
          while (true) {
            if (!at("input") && !at("output"))
              return failB("expected port direction");
            if (!parseDecl(Shell, /*InHeader=*/true))
              return false;
            // Additional names under the same decl arrive as plain
            // identifiers after commas; new directions restart.
            while (atPunct(",")) {
              advance();
              if (at("input") || at("output"))
                break;
              std::string Name;
              const size_t NameTok = Pos;
              if (!expectIdent(Name))
                return false;
              // Inherit direction/width of the previous declaration.
              const WireView Prev =
                  Shell.M.wire(Shell.M.numWires() - 1);
              Dir Direction = Prev.Kind == WireKind::Input
                                  ? Dir::Input
                                  : Dir::Output;
              if (!declareNet(Shell, Direction,
                              Shell.Regs.count(Prev.Name) != 0,
                              Prev.Width, Name, NameTok))
                return false;
            }
            if (atPunct(")"))
              break;
          }
        } else {
          // Classic: just names; directions come from body decls, and
          // the header order becomes the port order once they are in.
          while (true) {
            std::string Name;
            const size_t PortTok = Pos;
            if (!expectIdent(Name))
              return false;
            if (!Shell.ClassicPorts.emplace(Name, PortTok).second)
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
    if (!orderClassicPorts(Shell))
      return false;
    Shell.Ports = PortIndex(Shell.M);
    Shells.push_back(std::move(Shell));
    return true;
  }

  /// Puts a classic header's ports in header order. Every body
  /// input/output is listed (parseDecl refuses the others), so each
  /// listed name must resolve to one.
  bool orderClassicPorts(ModuleShell &Shell) {
    if (Shell.ClassicPorts.empty())
      return true;
    std::vector<std::pair<size_t, const std::string *>> Listed;
    for (const auto &[Name, Tok] : Shell.ClassicPorts)
      Listed.emplace_back(Tok, &Name);
    std::sort(Listed.begin(), Listed.end());
    Module &M = Shell.M;
    M.Inputs.clear();
    M.Outputs.clear();
    for (const auto &[Tok, Name] : Listed) {
      auto It = Shell.ByName.find(*Name);
      WireId W = It == Shell.ByName.end() ? InvalidId : It->second;
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
    WireId W = freshWire(Shell, OutW);
    Shell.M.addNet(Operation, {A.Wire, B.Wire}, W);
    Out = Value{W, OutW, false};
    return true;
  }

  /// OR-reduces to one bit (for logical operators).
  Value toBool(ModuleShell &Shell, Value V) {
    if (V.Width == 1)
      return V;
    WireId W = freshWire(Shell, 1);
    Shell.M.addNet(Op::OrR, {V.Wire}, W);
    return Value{W, 1, false};
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
    WireId Piece = freshWire(Shell, static_cast<uint16_t>(W - By));
    WireId Result = freshWire(Shell, W);
    if (Left) {
      Shell.M.addNet(Op::Select, {A.Wire}, Piece, /*Aux=*/0);
      Shell.M.addNet(Op::Concat, {Piece, Zeros}, Result);
    } else {
      Shell.M.addNet(Op::Select, {A.Wire}, Piece,
                     /*Aux=*/static_cast<uint32_t>(By));
      Shell.M.addNet(Op::Concat, {Zeros, Piece}, Result);
    }
    Out = Value{Result, W, false};
    return true;
  }

  // Expression grammar, lowest precedence first.
  bool parseExpr(ModuleShell &Shell, Value &Out) { // ?:
    Value Cond;
    if (!parseLogicalOr(Shell, Cond))
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
    WireId W = freshWire(Shell, TrueV.Width);
    Shell.M.addNet(Op::Mux, {Cond.Wire, TrueV.Wire, FalseV.Wire}, W);
    Out = Value{W, TrueV.Width, false};
    return true;
  }

  bool parseLogicalOr(ModuleShell &Shell, Value &Out) {
    if (!parseLogicalAnd(Shell, Out))
      return false;
    while (atPunct("||")) {
      advance();
      Value Rhs;
      if (!parseLogicalAnd(Shell, Rhs))
        return false;
      Value A = toBool(Shell, Out), B = toBool(Shell, Rhs);
      if (!emitBinary(Shell, Op::Or, A, B, Out))
        return false;
    }
    return true;
  }

  bool parseLogicalAnd(ModuleShell &Shell, Value &Out) {
    if (!parseBitOr(Shell, Out))
      return false;
    while (atPunct("&&")) {
      advance();
      Value Rhs;
      if (!parseBitOr(Shell, Rhs))
        return false;
      Value A = toBool(Shell, Out), B = toBool(Shell, Rhs);
      if (!emitBinary(Shell, Op::And, A, B, Out))
        return false;
    }
    return true;
  }

  bool parseBitOr(ModuleShell &Shell, Value &Out) {
    if (!parseBitXor(Shell, Out))
      return false;
    while (atPunct("|")) {
      advance();
      Value Rhs;
      if (!parseBitXor(Shell, Rhs))
        return false;
      if (!emitBinary(Shell, Op::Or, Out, Rhs, Out))
        return false;
    }
    return true;
  }

  bool parseBitXor(ModuleShell &Shell, Value &Out) {
    if (!parseBitAnd(Shell, Out))
      return false;
    while (atPunct("^")) {
      advance();
      Value Rhs;
      if (!parseBitAnd(Shell, Rhs))
        return false;
      if (!emitBinary(Shell, Op::Xor, Out, Rhs, Out))
        return false;
    }
    return true;
  }

  bool parseBitAnd(ModuleShell &Shell, Value &Out) {
    if (!parseEquality(Shell, Out))
      return false;
    while (atPunct("&")) {
      advance();
      Value Rhs;
      if (!parseEquality(Shell, Rhs))
        return false;
      if (!emitBinary(Shell, Op::And, Out, Rhs, Out))
        return false;
    }
    return true;
  }

  bool parseEquality(ModuleShell &Shell, Value &Out) {
    if (!parseRelational(Shell, Out))
      return false;
    while (atPunct("==") || atPunct("!=")) {
      bool Negate = cur().Text == "!=";
      advance();
      Value Rhs;
      if (!parseRelational(Shell, Rhs))
        return false;
      if (!emitBinary(Shell, Op::Eq, Out, Rhs, Out))
        return false;
      if (Negate) {
        WireId W = freshWire(Shell, 1);
        Shell.M.addNet(Op::Not, {Out.Wire}, W);
        Out = Value{W, 1, false};
      }
    }
    return true;
  }

  bool parseRelational(ModuleShell &Shell, Value &Out) {
    if (!parseShift(Shell, Out))
      return false;
    while (atPunct("<") || atPunct(">") || atPunct("<=") ||
           atPunct(">=")) {
      std::string Op2 = cur().Text;
      advance();
      Value Rhs;
      if (!parseShift(Shell, Rhs))
        return false;
      // a > b == b < a; a >= b == !(a < b); a <= b == !(b < a).
      Value &L = (Op2 == "<" || Op2 == "<=") ? Out : Rhs;
      Value &R = (Op2 == "<" || Op2 == "<=") ? Rhs : Out;
      Value Lt;
      if (Op2 == "<" || Op2 == ">") {
        if (!emitBinary(Shell, Op::Lt, L, R, Lt))
          return false;
        Out = Lt;
      } else {
        if (!emitBinary(Shell, Op::Lt, R, L, Lt))
          return false;
        WireId W = freshWire(Shell, 1);
        Shell.M.addNet(Op::Not, {Lt.Wire}, W);
        Out = Value{W, 1, false};
      }
    }
    return true;
  }

  bool parseShift(ModuleShell &Shell, Value &Out) {
    if (!parseAdditive(Shell, Out))
      return false;
    while (atPunct("<<") || atPunct(">>")) {
      bool Left = cur().Text == "<<";
      advance();
      if (cur().Kind != TokKind::Number)
        return failU("only constant shift amounts are supported");
      uint64_t By = cur().Value;
      advance();
      if (!emitShift(Shell, Left, Out, By, Out))
        return false;
    }
    return true;
  }

  bool parseAdditive(ModuleShell &Shell, Value &Out) {
    if (!parseUnary(Shell, Out))
      return false;
    while (atPunct("+") || atPunct("-")) {
      Op Operation = cur().Text == "+" ? Op::Add : Op::Sub;
      advance();
      Value Rhs;
      if (!parseUnary(Shell, Rhs))
        return false;
      if (!emitBinary(Shell, Operation, Out, Rhs, Out))
        return false;
    }
    return true;
  }

  bool parseUnary(ModuleShell &Shell, Value &Out) {
    if (atPunct("~")) {
      advance();
      if (!parseUnary(Shell, Out))
        return false;
      WireId W = freshWire(Shell, Out.Width);
      Shell.M.addNet(Op::Not, {Out.Wire}, W);
      Out = Value{W, Out.Width, false};
      return true;
    }
    if (atPunct("!")) {
      advance();
      if (!parseUnary(Shell, Out))
        return false;
      Out = toBool(Shell, Out);
      WireId W = freshWire(Shell, 1);
      Shell.M.addNet(Op::Not, {Out.Wire}, W);
      Out = Value{W, 1, false};
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
      WireId W = freshWire(Shell, 1);
      Shell.M.addNet(Operation, {Inner.Wire}, W);
      Out = Value{W, 1, false};
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
      WireId W = freshWire(Shell, static_cast<uint16_t>(Total));
      Shell.M.addNet(Op::Concat, std::move(Ids), W);
      Out = Value{W, static_cast<uint16_t>(Total), false};
      return true;
    }
    if (cur().Kind == TokKind::Ident) {
      auto It = Shell.ByName.find(cur().Text);
      if (It == Shell.ByName.end())
        return failB("use of undeclared net '" + cur().Text + "'");
      advance();
      Value V{It->second, Shell.M.wire(It->second).Width, false};
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
        if (Lo > Hi || Hi >= V.Width)
          return failB("select out of range");
        uint16_t W = static_cast<uint16_t>(Hi - Lo + 1);
        WireId Sliced = freshWire(Shell, W);
        Shell.M.addNet(Op::Select, {V.Wire}, Sliced,
                       static_cast<uint32_t>(Lo));
        V = Value{Sliced, W, false};
      }
      Out = V;
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
    auto It = Shell.ByName.find(Target);
    if (It == Shell.ByName.end())
      return failB("assignment to undeclared net '" + Target + "'");
    if (!expect("="))
      return false;
    Value V;
    if (!parseExpr(Shell, V))
      return false;
    uint16_t Width = Shell.M.wire(It->second).Width;
    if (!adapt(Shell, V, Width))
      return false;
    Shell.M.addNet(Op::Buf, {V.Wire}, It->second);
    return expect(";");
  }

  bool elaborateRegister(ModuleShell &Shell, const std::string &Target,
                         size_t TargetTok, Value D) {
    auto It = Shell.ByName.find(Target);
    if (It == Shell.ByName.end())
      return failBAt(TargetTok, "nonblocking assignment to undeclared '" +
                                    Target + "'");
    if (!Shell.Regs.count(Target))
      return failBAt(TargetTok, "nonblocking assignment target '" + Target +
                                    "' is not a reg");
    WireId Q = It->second;
    if (Shell.M.isInput(Q))
      return failBAt(TargetTok, "nonblocking assignment to input '" +
                                    Target + "'");
    uint16_t Width = Shell.M.wire(Q).Width;
    if (!adapt(Shell, D, Width))
      return false;
    uint64_t Init = 0;
    auto InitIt = Shell.RegInit.find(Target);
    if (InitIt != Shell.RegInit.end())
      Init = InitIt->second;
    if (Shell.M.wire(Q).Kind == WireKind::Output) {
      // Latched output port: register an inner wire, buffer it out.
      WireId Inner =
          Shell.M.addWire(Target + "$reg", WireKind::Reg, Width);
      Shell.M.addRegister(D.Wire, Inner, Init);
      Shell.M.addNet(Op::Buf, {Inner}, Q);
    } else {
      Shell.M.Wires[Q].Kind = WireKind::Reg;
      Shell.M.addRegister(D.Wire, Q, Init);
    }
    return true;
  }

  bool elaborateAlways(ModuleShell &Shell) {
    if (!expect("@") || !expect("(") || !expect("posedge"))
      return false;
    std::string Clock;
    if (!expectIdent(Clock))
      return false;
    if (!Shell.ByName.count(Clock))
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
    if (!expectIdent(DefName) || !expectIdent(InstName))
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
      WireId Port = Def.Ports.find(Def.M, PortName);
      if (Port == InvalidId)
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
        auto It = Shell.ByName.find(Target);
        if (It == Shell.ByName.end())
          return failB("instance output bound to undeclared '" +
                       Target + "'");
        if (Shell.M.wire(It->second).Width != Def.M.wire(Port).Width)
          return failB("width mismatch on port '" + PortName + "'");
        Inst.Bindings.emplace_back(Port, It->second);
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
