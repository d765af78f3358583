//===- parse/VerilogLexer.cpp - Tokenizer for the Verilog subset ----------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "parse/VerilogLexer.h"

#include <cctype>
#include <cstdint>
#include <string>

using namespace wiresort;
using namespace wiresort::parse;

namespace {

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
         C == '$';
}

/// Decodes the digits of a literal; \returns false on a bad digit. A
/// value past 64 bits sets \p Overflow and keeps decoding, so a bad
/// digit still wins.
bool decodeDigits(const std::string &Digits, int Base, uint64_t &Value,
                  bool &Overflow) {
  Value = 0;
  Overflow = false;
  for (char C : Digits) {
    if (C == '_')
      continue;
    int Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      Digit = C - 'A' + 10;
    else
      return false;
    if (Digit >= Base)
      return false;
    if (Value > (UINT64_MAX - Digit) / Base)
      Overflow = true;
    Value = Value * Base + Digit;
  }
  return true;
}

} // namespace

support::Expected<std::vector<Token>>
parse::lexVerilog(const std::string &Text, const std::string &FileName) {
  using support::Diag;
  using support::DiagCode;
  using support::SrcLoc;

  std::vector<Token> Out;
  size_t Pos = 0;
  size_t Line = 1;
  size_t LineStart = 0; // Offset of the current line's first character.
  const size_t N = Text.size();

  // 1-based column of offset \p At on the current line.
  auto colOf = [&](size_t At) { return At - LineStart + 1; };
  auto failAt = [&](size_t At, const std::string &Msg) {
    return Diag(DiagCode::WS211_VERILOG_LEX, Msg)
        .withLoc(SrcLoc{FileName, Line, colOf(At)});
  };

  while (Pos < N) {
    char C = Text[Pos];
    if (C == '\n') {
      ++Line;
      ++Pos;
      LineStart = Pos;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++Pos;
      continue;
    }
    // Comments.
    if (C == '/' && Pos + 1 < N && Text[Pos + 1] == '/') {
      while (Pos < N && Text[Pos] != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && Pos + 1 < N && Text[Pos + 1] == '*') {
      size_t OpenLine = Line, OpenCol = colOf(Pos);
      Pos += 2;
      while (Pos + 1 < N &&
             !(Text[Pos] == '*' && Text[Pos + 1] == '/')) {
        if (Text[Pos] == '\n') {
          ++Line;
          LineStart = Pos + 1;
        }
        ++Pos;
      }
      if (Pos + 1 >= N)
        return Diag(DiagCode::WS211_VERILOG_LEX,
                    "unterminated block comment")
            .withLoc(SrcLoc{FileName, OpenLine, OpenCol});
      Pos += 2;
      continue;
    }
    // Escaped identifier: backslash to whitespace.
    if (C == '\\') {
      size_t EscPos = Pos;
      size_t Start = ++Pos;
      while (Pos < N &&
             !std::isspace(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      if (Pos == Start)
        return failAt(EscPos, "empty escaped identifier");
      Out.push_back({TokKind::Ident, Text.substr(Start, Pos - Start), 0,
                     0, Line, colOf(EscPos)});
      continue;
    }
    if (isIdentStart(C)) {
      size_t Start = Pos;
      while (Pos < N && isIdentChar(Text[Pos]))
        ++Pos;
      Out.push_back({TokKind::Ident, Text.substr(Start, Pos - Start), 0,
                     0, Line, colOf(Start)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      // Leading decimal: either a plain number or the size of a based
      // literal.
      size_t Start = Pos;
      while (Pos < N && (std::isdigit(static_cast<unsigned char>(
                             Text[Pos])) ||
                         Text[Pos] == '_'))
        ++Pos;
      uint64_t Lead;
      bool LeadOverflow;
      if (!decodeDigits(Text.substr(Start, Pos - Start), 10, Lead,
                        LeadOverflow))
        return failAt(Start, "bad decimal literal");
      size_t Mark = Pos;
      while (Mark < N &&
             std::isspace(static_cast<unsigned char>(Text[Mark])) &&
             Text[Mark] != '\n')
        ++Mark;
      if (Mark < N && Text[Mark] == '\'') {
        Pos = Mark + 1;
        if (Pos >= N)
          return failAt(Mark, "truncated based literal");
        char BaseChar =
            static_cast<char>(std::tolower(Text[Pos]));
        int Base = BaseChar == 'b'   ? 2
                   : BaseChar == 'o' ? 8
                   : BaseChar == 'd' ? 10
                   : BaseChar == 'h' ? 16
                                     : 0;
        if (Base == 0)
          return failAt(Pos, "unknown literal base");
        ++Pos;
        while (Pos < N &&
               std::isspace(static_cast<unsigned char>(Text[Pos])) &&
               Text[Pos] != '\n')
          ++Pos;
        size_t DigStart = Pos;
        while (Pos < N && (isIdentChar(Text[Pos])))
          ++Pos;
        uint64_t Value;
        bool Overflow;
        if (DigStart == Pos ||
            !decodeDigits(Text.substr(DigStart, Pos - DigStart), Base,
                          Value, Overflow))
          return failAt(DigStart, "bad digits in based literal");
        if (LeadOverflow || Lead == 0 || Lead > 64)
          return failAt(Start, "literal width must be in [1, 64]");
        if (Overflow || (Lead < 64 && (Value >> Lead) != 0))
          return failAt(Start, "literal does not fit its width " +
                                   std::to_string(Lead));
        Token T;
        T.Kind = TokKind::Number;
        T.Text = Text.substr(Start, Pos - Start);
        T.Value = Value;
        T.Width = static_cast<uint16_t>(Lead);
        T.Line = Line;
        T.Col = colOf(Start);
        Out.push_back(T);
      } else {
        if (LeadOverflow)
          return failAt(Start, "literal does not fit in 64 bits");
        Token T;
        T.Kind = TokKind::Number;
        T.Text = Text.substr(Start, Pos - Start);
        T.Value = Lead;
        T.Width = 0; // Unsized.
        T.Line = Line;
        T.Col = colOf(Start);
        Out.push_back(T);
      }
      continue;
    }
    // Multi-character operators first.
    static const char *Multi[] = {"<=", ">=", "==", "!=", "<<", ">>",
                                  "&&", "||"};
    bool Matched = false;
    for (const char *Op : Multi) {
      size_t Len = 2;
      if (Pos + Len <= N && Text.compare(Pos, Len, Op) == 0) {
        Out.push_back({TokKind::Punct, Op, 0, 0, Line, colOf(Pos)});
        Pos += Len;
        Matched = true;
        break;
      }
    }
    if (Matched)
      continue;
    static const std::string Single = "()[]{},;.:=&|^~?<>!@#+-*";
    if (Single.find(C) != std::string::npos) {
      Out.push_back(
          {TokKind::Punct, std::string(1, C), 0, 0, Line, colOf(Pos)});
      ++Pos;
      continue;
    }
    return failAt(Pos, std::string("unexpected character '") + C + "'");
  }
  Out.push_back({TokKind::End, "", 0, 0, Line, colOf(Pos)});
  return Out;
}
