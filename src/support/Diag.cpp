//===- support/Diag.cpp - Structured diagnostics --------------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "support/Diag.h"

#include <sstream>

using namespace wiresort;
using namespace wiresort::support;

const char *support::diagCodeName(DiagCode Code) {
  switch (Code) {
  case DiagCode::WS101_COMB_LOOP:
    return "WS101_COMB_LOOP";
  case DiagCode::WS102_ASCRIPTION_MISMATCH:
    return "WS102_ASCRIPTION_MISMATCH";
  case DiagCode::WS103_ASCRIPTION_INCOMPLETE:
    return "WS103_ASCRIPTION_INCOMPLETE";
  case DiagCode::WS104_CONTRACT_VIOLATION:
    return "WS104_CONTRACT_VIOLATION";
  case DiagCode::WS201_BLIF_SYNTAX:
    return "WS201_BLIF_SYNTAX";
  case DiagCode::WS202_BLIF_STRUCTURE:
    return "WS202_BLIF_STRUCTURE";
  case DiagCode::WS211_VERILOG_LEX:
    return "WS211_VERILOG_LEX";
  case DiagCode::WS212_VERILOG_SYNTAX:
    return "WS212_VERILOG_SYNTAX";
  case DiagCode::WS213_VERILOG_UNSUPPORTED:
    return "WS213_VERILOG_UNSUPPORTED";
  case DiagCode::WS221_SUMMARY_SYNTAX:
    return "WS221_SUMMARY_SYNTAX";
  case DiagCode::WS301_SIM_BUILD:
    return "WS301_SIM_BUILD";
  case DiagCode::WS302_SIM_COMB_LOOP:
    return "WS302_SIM_COMB_LOOP";
  case DiagCode::WS401_NETLIST_CYCLE:
    return "WS401_NETLIST_CYCLE";
  case DiagCode::WS501_IO_ERROR:
    return "WS501_IO_ERROR";
  case DiagCode::WS502_CACHE_FORMAT:
    return "WS502_CACHE_FORMAT";
  case DiagCode::WS503_USAGE:
    return "WS503_USAGE";
  case DiagCode::WS601_CANCELLED:
    return "WS601_CANCELLED";
  case DiagCode::WS602_CACHE_IO:
    return "WS602_CACHE_IO";
  case DiagCode::WS603_CACHE_CORRUPT:
    return "WS603_CACHE_CORRUPT";
  case DiagCode::WS604_WORKER_PANIC:
    return "WS604_WORKER_PANIC";
  case DiagCode::WS606_TRANSPORT_TIMEOUT:
    return "WS606_TRANSPORT_TIMEOUT";
  case DiagCode::WS607_SERVER_BUSY:
    return "WS607_SERVER_BUSY";
  }
  return "WS000_UNKNOWN";
}

const char *support::severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "?";
}

std::string Diag::note(const std::string &Key) const {
  for (const auto &[K, V] : Notes)
    if (K == Key)
      return V;
  return "";
}

std::vector<std::string> Diag::witnessLabels() const {
  std::vector<std::string> Labels;
  Labels.reserve(Witness.size());
  for (const WitnessHop &Hop : Witness)
    Labels.push_back(Hop.label());
  return Labels;
}

std::string Diag::describe() const {
  std::string Out;
  if (Loc && !Loc->File.empty()) {
    Out += Loc->File;
    Out += ':';
  }
  if (Loc && Loc->Line) {
    Out += std::to_string(Loc->Line);
    if (Loc->Col) {
      Out += ':';
      Out += std::to_string(Loc->Col);
    }
    Out += ": ";
  } else if (Loc && !Loc->File.empty()) {
    Out += ' ';
  }
  Out += Message;
  if (!Witness.empty()) {
    Out += ": ";
    for (const WitnessHop &Hop : Witness) {
      Out += Hop.label();
      Out += " -> ";
    }
    Out += Witness.front().label();
  }
  return Out;
}

const Diag &DiagList::firstError() const {
  for (const Diag &D : Diags)
    if (D.severity() == Severity::Error)
      return D;
  assert(false && "firstError() on a list without errors");
  return Diags.front();
}

std::string DiagList::describe() const {
  std::string Out;
  for (const Diag &D : Diags) {
    if (!Out.empty())
      Out += '\n';
    Out += D.describe();
  }
  return Out;
}

// --- Text renderer ----------------------------------------------------------

namespace {

/// The \p Line-th (1-based) line of \p Text, without the newline.
std::string lineOf(const std::string &Text, size_t Line) {
  size_t Start = 0;
  for (size_t I = 1; I < Line; ++I) {
    Start = Text.find('\n', Start);
    if (Start == std::string::npos)
      return "";
    ++Start;
  }
  size_t End = Text.find('\n', Start);
  return Text.substr(Start, End == std::string::npos ? std::string::npos
                                                     : End - Start);
}

} // namespace

std::string support::renderText(const Diag &D,
                                const std::string *SourceText) {
  std::string Out;
  const std::optional<SrcLoc> &Loc = D.loc();
  if (Loc) {
    if (!Loc->File.empty()) {
      Out += Loc->File;
      Out += ':';
    }
    if (Loc->Line) {
      Out += std::to_string(Loc->Line);
      Out += ':';
      if (Loc->Col) {
        Out += std::to_string(Loc->Col);
        Out += ':';
      }
    }
    Out += ' ';
  }
  Out += severityName(D.severity());
  Out += '[';
  Out += diagCodeName(D.code());
  Out += "]: ";
  Out += D.message();
  for (const auto &[Key, Value] : D.notes()) {
    Out += "\n  ";
    Out += Key;
    Out += ": ";
    Out += Value;
  }
  if (!D.witness().empty()) {
    Out += "\n  witness:";
    for (const WitnessHop &Hop : D.witness()) {
      Out += ' ';
      Out += Hop.label();
      Out += " ->";
    }
    Out += ' ';
    Out += D.witness().front().label();
  }
  // Caret echo when we can see the source.
  if (SourceText && Loc && Loc->Line) {
    std::string Src = lineOf(*SourceText, Loc->Line);
    if (!Src.empty() || Loc->Col) {
      Out += "\n  ";
      Out += Src;
      Out += "\n  ";
      for (size_t I = 1; I < Loc->Col; ++I)
        Out += (I - 1 < Src.size() && Src[I - 1] == '\t') ? '\t' : ' ';
      Out += '^';
    }
  }
  return Out;
}

std::string support::renderText(const DiagList &Ds,
                                const std::string *SourceText) {
  std::string Out;
  for (const Diag &D : Ds) {
    if (!Out.empty())
      Out += '\n';
    Out += renderText(D, SourceText);
  }
  return Out;
}

// --- JSON renderer ----------------------------------------------------------

namespace {

void jsonEscape(std::string &Out, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void jsonString(std::string &Out, const std::string &S) {
  Out += '"';
  jsonEscape(Out, S);
  Out += '"';
}

} // namespace

std::string support::renderJson(const Diag &D) {
  std::string Out = "{\"severity\":";
  jsonString(Out, severityName(D.severity()));
  Out += ",\"code\":";
  jsonString(Out, diagCodeName(D.code()));
  Out += ",\"message\":";
  jsonString(Out, D.message());
  if (D.loc()) {
    Out += ",\"loc\":{\"file\":";
    jsonString(Out, D.loc()->File);
    Out += ",\"line\":" + std::to_string(D.loc()->Line);
    Out += ",\"col\":" + std::to_string(D.loc()->Col);
    Out += '}';
  }
  if (!D.witness().empty()) {
    Out += ",\"witness\":[";
    for (size_t I = 0; I != D.witness().size(); ++I) {
      if (I)
        Out += ',';
      Out += "{\"instance\":";
      jsonString(Out, D.witness()[I].Instance);
      Out += ",\"port\":";
      jsonString(Out, D.witness()[I].Port);
      Out += '}';
    }
    Out += ']';
  }
  if (!D.notes().empty()) {
    Out += ",\"notes\":{";
    for (size_t I = 0; I != D.notes().size(); ++I) {
      if (I)
        Out += ',';
      jsonString(Out, D.notes()[I].first);
      Out += ':';
      jsonString(Out, D.notes()[I].second);
    }
    Out += '}';
  }
  Out += '}';
  return Out;
}

std::string support::renderJson(const DiagList &Ds) {
  std::string Out;
  for (const Diag &D : Ds) {
    Out += renderJson(D);
    Out += '\n';
  }
  return Out;
}
