//===- analysis/SummaryIO.cpp - Summary (de)serialization -----------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryIO.h"

#include "support/Wire.h"

#include <algorithm>
#include <optional>
#include <sstream>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

namespace {

const char *subSortSuffix(SubSort S) {
  switch (S) {
  case SubSort::Direct:
    return " direct";
  case SubSort::Indirect:
    return " indirect";
  case SubSort::None:
    return "";
  }
  return "";
}

void writePortSet(std::ostringstream &OS, const Module &M,
                  const std::vector<WireId> &Set) {
  OS << " {";
  for (size_t I = 0; I != Set.size(); ++I) {
    if (I)
      OS << ", ";
    OS << M.wire(Set[I]).Name;
  }
  OS << '}';
}

/// The direction cross-check both parsers share: every port must be
/// declared, output-port sets must name outputs only, and the declared
/// input-port set of each output must equal the inversion of the
/// input-side declarations. \returns a message on inconsistency.
std::optional<std::string> checkSummaryConsistency(const Module &M,
                                                   const ModuleSummary &S) {
  std::map<WireId, std::vector<WireId>> Inverted;
  for (WireId Out : M.Outputs)
    Inverted[Out] = {};
  for (const auto &[In, Outs] : S.OutputPortSets)
    for (WireId Out : Outs) {
      if (!Inverted.count(Out))
        return "module '" + M.Name +
               "': output-port-set names non-output wire";
      Inverted[Out].push_back(In);
    }
  for (auto &[Out, Ins] : Inverted)
    std::sort(Ins.begin(), Ins.end());
  for (WireId Out : M.Outputs) {
    auto It = S.InputPortSets.find(Out);
    if (It == S.InputPortSets.end())
      return "module '" + M.Name + "': output '" + M.wire(Out).Name +
             "' missing";
    if (It->second != Inverted[Out])
      return "module '" + M.Name + "': output '" + M.wire(Out).Name +
             "' set inconsistent with input declarations";
  }
  for (WireId In : M.Inputs)
    if (!S.OutputPortSets.count(In))
      return "module '" + M.Name + "': input '" + M.wire(In).Name +
             "' missing";
  return std::nullopt;
}

} // namespace

std::string
analysis::writeSummaries(const Design &D,
                         const std::map<ModuleId, ModuleSummary>
                             &Summaries) {
  std::ostringstream OS;
  for (const auto &[Id, Summary] : Summaries) {
    const Module &M = D.module(Id);
    OS << "module " << M.Name << '\n';
    for (WireId In : M.Inputs) {
      OS << "  input " << M.wire(In).Name << ' '
         << sortName(Summary.sortOf(In));
      if (Summary.sortOf(In) == Sort::ToPort)
        writePortSet(OS, M, Summary.outputPortSet(In));
      else
        OS << subSortSuffix(Summary.subSortOf(In));
      OS << '\n';
    }
    for (WireId Out : M.Outputs) {
      OS << "  output " << M.wire(Out).Name << ' '
         << sortName(Summary.sortOf(Out));
      if (Summary.sortOf(Out) == Sort::FromPort)
        writePortSet(OS, M, Summary.inputPortSet(Out));
      else
        OS << subSortSuffix(Summary.subSortOf(Out));
      OS << '\n';
    }
    OS << "end\n";
  }
  return OS.str();
}

support::Expected<std::map<ModuleId, ModuleSummary>>
analysis::parseSummaries(const std::string &Text, const Design &D,
                         const std::string &FileName) {
  std::map<ModuleId, ModuleSummary> Result;
  std::istringstream Stream(Text);
  std::string Line;
  size_t LineNo = 0;

  const ModuleIndex Modules(D);
  const Module *M = nullptr;
  ModuleId CurId = InvalidId;
  ModuleSummary Cur;
  PortIndex Ports;

  auto fail = [&](const std::string &Msg) {
    return support::Diag(support::DiagCode::WS221_SUMMARY_SYNTAX, Msg)
        .withLoc(support::SrcLoc{FileName, LineNo, 0});
  };

  auto finishModule = [&]() -> std::optional<std::string> {
    if (!M)
      return std::nullopt;
    if (auto Err = checkSummaryConsistency(*M, Cur))
      return Err;
    Result[CurId] = std::move(Cur);
    M = nullptr;
    return std::nullopt;
  };

  while (std::getline(Stream, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string Tok;
    if (!(LS >> Tok) || Tok[0] == '#')
      continue;

    if (Tok == "module") {
      if (M)
        return fail("missing 'end' before new module");
      std::string Name;
      if (!(LS >> Name))
        return fail("module expects a name");
      ModuleId Id = Modules.find(Name);
      if (Id == InvalidId)
        return fail("unknown module '" + Name + "'");
      M = &D.module(Id);
      Ports = PortIndex(*M);
      CurId = Id;
      Cur = ModuleSummary();
      Cur.Id = Id;
      Cur.ModuleName = Name;
      continue;
    }
    if (Tok == "end") {
      if (!M)
        return fail("'end' without module");
      if (auto Err = finishModule())
        return fail(*Err);
      continue;
    }
    if (Tok != "input" && Tok != "output")
      return fail("expected input/output/module/end, got '" + Tok + "'");
    if (!M)
      return fail("port line outside a module block");

    bool IsInput = Tok == "input";
    std::string PortName, SortToken;
    if (!(LS >> PortName >> SortToken))
      return fail("port line expects a name and a sort");
    WireId Port = Ports.find(*M, PortName);
    if (Port == InvalidId)
      return fail("module '" + M->Name + "' has no port '" + PortName +
                  "'");
    if (M->isInput(Port) != IsInput)
      return fail("port '" + PortName + "' direction mismatch");
    if ((IsInput ? Cur.OutputPortSets : Cur.InputPortSets).count(Port))
      return fail("port '" + PortName + "' declared twice");

    // Rest of line: either a subsort keyword or a {set}.
    std::string Rest;
    std::getline(LS, Rest);
    SubSort Sub = SubSort::None;
    std::vector<WireId> Set;
    size_t Open = Rest.find('{');
    if (Open != std::string::npos) {
      size_t Close = Rest.find('}', Open);
      if (Close == std::string::npos)
        return fail("unterminated port set");
      std::string Inner = Rest.substr(Open + 1, Close - Open - 1);
      std::replace(Inner.begin(), Inner.end(), ',', ' ');
      std::istringstream SetStream(Inner);
      std::string Member;
      while (SetStream >> Member) {
        WireId W = Ports.find(*M, Member);
        if (W == InvalidId)
          return fail("unknown port '" + Member + "' in set");
        Set.push_back(W);
      }
      std::sort(Set.begin(), Set.end());
      Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
    } else {
      std::istringstream SubStream(Rest);
      std::string SubTok;
      if (SubStream >> SubTok) {
        if (SubTok == "direct")
          Sub = SubSort::Direct;
        else if (SubTok == "indirect")
          Sub = SubSort::Indirect;
        else
          return fail("expected direct/indirect, got '" + SubTok + "'");
      }
    }

    if (IsInput) {
      if (SortToken == "to-sync") {
        if (!Set.empty())
          return fail("to-sync input must not carry a port set");
        Cur.OutputPortSets[Port] = {};
        Cur.SubSorts[Port] = Sub == SubSort::None ? SubSort::Indirect : Sub;
      } else if (SortToken == "to-port") {
        if (Set.empty())
          return fail("to-port input needs a nonempty port set");
        Cur.OutputPortSets[Port] = std::move(Set);
        Cur.SubSorts[Port] = SubSort::None;
      } else {
        return fail("input sort must be to-sync or to-port");
      }
    } else {
      if (SortToken == "from-sync") {
        if (!Set.empty())
          return fail("from-sync output must not carry a port set");
        Cur.InputPortSets[Port] = {};
        Cur.SubSorts[Port] = Sub == SubSort::None ? SubSort::Indirect : Sub;
      } else if (SortToken == "from-port") {
        if (Set.empty())
          return fail("from-port output needs a nonempty port set");
        Cur.InputPortSets[Port] = std::move(Set);
        Cur.SubSorts[Port] = SubSort::None;
      } else {
        return fail("output sort must be from-sync or from-port");
      }
    }
  }
  if (M)
    return fail("missing final 'end'");
  return Result;
}

// --- Binary format (wire format v1 — docs/FORMATS.md) -----------------------
//
// A ModuleSummary record is name-based like the text format, so binary
// sidecars survive wire-id renumbering too:
//
//   name str | nIn varint | per input: name str, tag byte (0 = port-set
//   sort, 1 = sync sort), then set (count + member strs) or subsort
//   byte | nOut varint | per output: same shape
//
// The same body encodes CacheEntry payloads (after the 8-byte key) —
// one codec for sidecar, cache, and any future socket transport.

namespace {

constexpr uint64_t SummariesPayloadVersion = 1;

} // namespace

namespace wiresort::analysis::detail {

void encodeSummaryBody(support::wire::Writer &W, const Module &M,
                       const ModuleSummary &S) {
  std::string Name; // One port's name, rendered.
  auto putName = [&](WireId Port) {
    Name.clear();
    Name += M.wireName(Port);
    W.putString(Name);
  };
  W.putString(M.Name);
  W.putVarint(M.Inputs.size());
  for (WireId In : M.Inputs) {
    putName(In);
    if (S.sortOf(In) == Sort::ToPort) {
      W.putByte(0);
      const std::vector<WireId> &Set = S.outputPortSet(In);
      W.putVarint(Set.size());
      for (WireId Member : Set)
        putName(Member);
    } else {
      W.putByte(1);
      W.putByte(static_cast<uint8_t>(S.subSortOf(In)));
    }
  }
  W.putVarint(M.Outputs.size());
  for (WireId Out : M.Outputs) {
    putName(Out);
    if (S.sortOf(Out) == Sort::FromPort) {
      W.putByte(0);
      const std::vector<WireId> &Set = S.inputPortSet(Out);
      W.putVarint(Set.size());
      for (WireId Member : Set)
        putName(Member);
    } else {
      W.putByte(1);
      W.putByte(static_cast<uint8_t>(S.subSortOf(Out)));
    }
  }
}

bool decodeSummaryBody(support::wire::Reader::Cursor &C, const Design &D,
                       const ModuleIndex &Modules, ModuleSummary &Out,
                       std::string &Why) {
  std::string_view Name;
  if (!C.getString(Name)) {
    Why = "truncated module name";
    return false;
  }
  ModuleId Id = Modules.find(Name);
  if (Id == InvalidId) {
    Why = "unknown module '" + std::string(Name) + "'";
    return false;
  }
  const Module &M = D.module(Id);
  const PortIndex Ports(M);
  Out = ModuleSummary();
  Out.Id = Id;
  Out.ModuleName = std::string(Name);

  auto decodePort = [&](bool IsInput) -> bool {
    std::string_view PortName;
    uint8_t Tag = 0;
    if (!C.getString(PortName) || !C.getByte(Tag) || Tag > 1) {
      Why = "malformed port entry";
      return false;
    }
    WireId Port = Ports.find(M, PortName);
    if (Port == InvalidId || M.isInput(Port) != IsInput) {
      Why = "module '" + M.Name + "' has no matching port '" +
            std::string(PortName) + "'";
      return false;
    }
    SubSort Sub = SubSort::None;
    std::vector<WireId> Set;
    if (Tag == 0) {
      uint64_t Count = 0;
      if (!C.getVarint(Count)) {
        Why = "truncated port set";
        return false;
      }
      if (Count == 0) {
        Why = "port-set sort needs a nonempty port set";
        return false;
      }
      Set.reserve(Count);
      for (uint64_t I = 0; I != Count; ++I) {
        std::string_view Member;
        if (!C.getString(Member)) {
          Why = "truncated port set";
          return false;
        }
        WireId W = Ports.find(M, Member);
        if (W == InvalidId) {
          Why = "unknown port '" + std::string(Member) + "' in set";
          return false;
        }
        Set.push_back(W);
      }
      std::sort(Set.begin(), Set.end());
      Set.erase(std::unique(Set.begin(), Set.end()), Set.end());
    } else {
      uint8_t SubByte = 0;
      if (!C.getByte(SubByte) || SubByte > 2) {
        Why = "malformed subsort";
        return false;
      }
      Sub = static_cast<SubSort>(SubByte);
      if (Sub == SubSort::None)
        Sub = SubSort::Indirect; // Sync sorts default like the text form.
    }
    if (IsInput) {
      Out.OutputPortSets[Port] = std::move(Set);
      Out.SubSorts[Port] = Tag == 0 ? SubSort::None : Sub;
    } else {
      Out.InputPortSets[Port] = std::move(Set);
      Out.SubSorts[Port] = Tag == 0 ? SubSort::None : Sub;
    }
    return true;
  };

  uint64_t NIn = 0;
  if (!C.getVarint(NIn) || NIn != M.Inputs.size()) {
    Why = "module '" + M.Name + "': input count mismatch";
    return false;
  }
  for (uint64_t I = 0; I != NIn; ++I)
    if (!decodePort(true))
      return false;
  uint64_t NOut = 0;
  if (!C.getVarint(NOut) || NOut != M.Outputs.size()) {
    Why = "module '" + M.Name + "': output count mismatch";
    return false;
  }
  for (uint64_t I = 0; I != NOut; ++I)
    if (!decodePort(false))
      return false;

  if (auto Err = checkSummaryConsistency(M, Out)) {
    Why = *Err;
    return false;
  }
  return true;
}

} // namespace wiresort::analysis::detail

bool analysis::isWireData(const std::string &Bytes) {
  return !Bytes.empty() &&
         static_cast<unsigned char>(Bytes[0]) == support::wire::SniffByte;
}

std::string
analysis::writeSummariesBinary(const Design &D,
                               const std::map<ModuleId, ModuleSummary>
                                   &Summaries) {
  support::wire::Writer W;
  W.beginStream(support::wire::StreamKind::Summaries,
                SummariesPayloadVersion);
  for (const auto &[Id, S] : Summaries) {
    W.beginRecord(support::wire::RecordKind::ModuleSummary);
    detail::encodeSummaryBody(W, D.module(Id), S);
    W.endRecord();
  }
  W.finish();
  return W.take();
}

support::Expected<std::map<ModuleId, ModuleSummary>>
analysis::readSummariesBinary(const std::string &Bytes, const Design &D,
                              const std::string &FileName) {
  using support::wire::Reader;
  auto fail = [&](const std::string &Msg, size_t Offset) {
    return support::Diag(support::DiagCode::WS221_SUMMARY_SYNTAX, Msg)
        .withLoc(support::SrcLoc{FileName, 0, 0})
        .withNote("offset", std::to_string(Offset));
  };

  Reader R(Bytes);
  std::string Why;
  if (!R.readHeader(&Why))
    return fail(Why, 0);

  const ModuleIndex Modules(D);
  std::map<ModuleId, ModuleSummary> Result;
  bool SawBegin = false;
  for (;;) {
    Reader::Record Rec;
    switch (R.next(Rec)) {
    case Reader::Item::End:
      return Result;
    case Reader::Item::Exhausted:
      return fail("summary stream ends without a StreamEnd record "
                  "(truncated)",
                  Rec.Offset);
    case Reader::Item::Truncated:
      return fail("summary stream truncated mid-record", Rec.Offset);
    case Reader::Item::Corrupt:
      return fail("summary record failed its checksum", Rec.Offset);
    case Reader::Item::Record:
      break;
    }
    Reader::Cursor C(Rec, R);
    if (Rec.Kind == support::wire::RecordKind::StreamBegin) {
      uint8_t Kind = 0;
      uint64_t Version = 0;
      if (!C.getByte(Kind) ||
          Kind != static_cast<uint8_t>(
                      support::wire::StreamKind::Summaries) ||
          !C.getVarint(Version))
        return fail("not a summary stream", Rec.Offset);
      if (Version > SummariesPayloadVersion)
        return fail("summary payload version " + std::to_string(Version) +
                        " is newer than this build understands",
                    Rec.Offset);
      SawBegin = true;
      continue;
    }
    if (Rec.Kind != support::wire::RecordKind::ModuleSummary)
      continue; // Forward compat: skip unknown-but-intact records.
    if (!SawBegin)
      return fail("module record before StreamBegin", Rec.Offset);
    ModuleSummary S;
    if (!detail::decodeSummaryBody(C, D, Modules, S, Why))
      return fail(Why, Rec.Offset);
    Result[S.Id] = std::move(S);
  }
}

support::Expected<std::map<ModuleId, ModuleSummary>>
analysis::readSummariesAny(const std::string &Bytes, const Design &D,
                           const std::string &FileName) {
  if (isWireData(Bytes))
    return readSummariesBinary(Bytes, D, FileName);
  return parseSummaries(Bytes, D, FileName);
}
