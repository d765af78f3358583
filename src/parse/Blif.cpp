//===- parse/Blif.cpp - BLIF import/export --------------------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "parse/Blif.h"

#include "support/FailPoint.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

using namespace wiresort;
using namespace wiresort::ir;
using namespace wiresort::parse;

namespace {

/// The bytes std::isspace accepts in the "C" locale.
bool isBlank(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

/// \p Name in single quotes, as every diagnostic quotes a signal.
std::string quote(std::string_view Name) {
  return std::string("'").append(Name).append("'");
}

/// One whitespace-separated token with its source position. The text is
/// a view into the parsed input, which outlives pass 1.
struct BlifTok {
  std::string_view Text;
  size_t Line = 0;
  size_t Col = 0; // 1-based column of the token's first character.
};

/// Appends \p Line's tokens (with positions) to \p Out.
void tokenizeInto(std::string_view Line, size_t LineNo,
                  std::vector<BlifTok> &Out) {
  size_t Pos = 0;
  while (Pos < Line.size()) {
    while (Pos < Line.size() && isBlank(Line[Pos]))
      ++Pos;
    if (Pos >= Line.size())
      break;
    size_t Start = Pos;
    while (Pos < Line.size() && !isBlank(Line[Pos]))
      ++Pos;
    Out.push_back({Line.substr(Start, Pos - Start), LineNo, Start + 1});
  }
}

/// One .subckt awaiting cross-model resolution. Formals are resolved in
/// pass 2 against the referenced model; actuals are already wires of the
/// instantiating model.
struct SubcktRec {
  std::string DefName;
  std::vector<std::pair<std::string, WireId>> Pairs;
  size_t Line = 0;
  size_t Col = 0;
};

/// One .model as pass 1 leaves it.
struct ModelBuilder {
  Module M;
  /// One byte per wire: whether something already drives it. Wires
  /// past the end are undriven.
  std::vector<uint8_t> Driven;
  std::vector<SubcktRec> Subckts;
  /// Position of the .model directive (for link-time diagnostics).
  size_t Line = 0;
  size_t Col = 0;

  /// Marks \p W driven; false when it already was.
  bool drive(WireId W) {
    if (W >= Driven.size())
      Driven.resize(M.Wires.size());
    if (Driven[W])
      return false;
    Driven[W] = 1;
    return true;
  }
};

/// The wires of the model being parsed, by name: open addressing with
/// linear probing, keyed by views into the input. Each entry carries the
/// generation of the model that made it, so moving on to the next model
/// clears nothing.
class NameTable {
public:
  /// The id slot for \p Name; InvalidId when the name is new, in which
  /// case the caller stores the wire it creates.
  WireId &operator[](std::string_view Name) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    const uint32_t Hash =
        static_cast<uint32_t>(std::hash<std::string_view>{}(Name));
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Gen != Gen) {
        S = {Name, Hash, Gen, InvalidId};
        ++Count;
        return S.Id;
      }
      if (S.Hash == Hash && S.Name == Name)
        return S.Id;
    }
  }

  /// Forgets every name.
  void clear() {
    ++Gen;
    Count = 0;
  }

private:
  struct Slot {
    std::string_view Name;
    uint32_t Hash = 0;
    uint32_t Gen = 0; // Live when equal to the table's.
    WireId Id = InvalidId;
  };
  std::vector<Slot> Slots = std::vector<Slot>(256);
  size_t Count = 0;
  uint32_t Gen = 1;

  void grow() {
    std::vector<Slot> Old(2 * Slots.size());
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Gen != Gen)
        continue;
      size_t I = S.Hash & Mask;
      while (Slots[I].Gen == Gen)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }
};

/// Pass 1 as a line consumer, run once per uncached `.model` chunk.
/// Chunk boundaries only ever fall on non-continued `.model` lines, where
/// the machine is in its initial inter-model state — which is what makes
/// a fresh Pass1 per chunk equivalent to one pass over the whole file,
/// and lets the chunks of one file parse on different threads.
struct Pass1 {
  const std::string &FileName;
  std::vector<ModelBuilder> Models;
  ModelBuilder *Cur = nullptr;
  /// Cur's wires by name.
  NameTable Names;
  /// The actuals of Cur's .subckt lines in subckt-then-pair order, bound
  /// to wires when Cur ends.
  std::vector<std::string_view> Actuals;
  /// Whether cover rows go to Cur's last net, the open `.names`.
  bool PendingLut = false;
  /// The open `.names`'s inputs, kept to reuse its storage.
  std::vector<WireId> Ins;
  std::vector<BlifTok> Tok;
  bool Continuing = false;
  std::optional<support::Diag> Err;

  explicit Pass1(const std::string &FileName) : FileName(FileName) {}

  bool fail(const BlifTok &T, const std::string &Msg) {
    Err = support::Diag(support::DiagCode::WS201_BLIF_SYNTAX, Msg)
              .withLoc(support::SrcLoc{FileName, T.Line, T.Col});
    return false;
  }

  WireId wireFor(std::string_view Name) {
    WireId &W = Names[Name];
    if (W == InvalidId)
      W = Cur->M.addWire(Name, WireKind::Basic, 1);
    return W;
  }

  /// Binds Cur's .subckt actuals. A model ends at the end of its chunk,
  /// after every wire its other lines name; unseen actuals are created
  /// here, in subckt-then-pair order.
  void endModel() {
    if (!Cur)
      return;
    size_t Next = 0;
    for (SubcktRec &Rec : Cur->Subckts)
      for (auto &Pair : Rec.Pairs)
        Pair.second = wireFor(Actuals[Next++]);
    Actuals.clear();
    Names.clear();
  }

  /// Consumes one physical input line; false means Err is set.
  bool line(std::string_view Raw, size_t LineNo) {
    // Strip comments; honor trailing-backslash continuations.
    Raw = Raw.substr(0, Raw.find('#'));
    bool Continue = !Raw.empty() && Raw.back() == '\\';
    if (Continue)
      Raw.remove_suffix(1);
    if (!Continuing)
      Tok.clear();
    tokenizeInto(Raw, LineNo, Tok);
    Continuing = Continue;
    if (Continuing)
      return true;
    if (Tok.empty())
      return true;

    const std::string_view Cmd = Tok[0].Text;
    if (Cmd == ".model") {
      if (Tok.size() != 2)
        return fail(Tok[0], ".model expects a name");
      endModel();
      Models.emplace_back();
      Cur = &Models.back();
      Cur->M.Name = std::string(Tok[1].Text);
      Cur->Line = Tok[0].Line;
      Cur->Col = Tok[0].Col;
      PendingLut = false;
      return true;
    }
    if (!Cur)
      return fail(Tok[0], "directive before .model");

    if (Cmd == ".names") {
      if (Tok.size() < 2)
        return fail(Tok[0], ".names expects at least an output");
      Ins.clear();
      for (size_t I = 1; I + 1 < Tok.size(); ++I)
        Ins.push_back(wireFor(Tok[I].Text));
      WireId Out = wireFor(Tok.back().Text);
      if (!Cur->drive(Out))
        return fail(Tok.back(),
                    "signal " + quote(Tok.back().Text) + " driven twice");
      Cur->M.addNet(Op::Lut, Ins, Out);
      PendingLut = true;
    } else if (Cmd == ".inputs" || Cmd == ".outputs") {
      const bool IsInput = Cmd == ".inputs";
      for (size_t I = 1; I != Tok.size(); ++I) {
        WireId &W = Names[Tok[I].Text];
        if (W != InvalidId)
          return fail(Tok[I], "duplicate signal " + quote(Tok[I].Text));
        W = IsInput ? Cur->M.addInput(Tok[I].Text, 1)
                    : Cur->M.addOutput(Tok[I].Text, 1);
      }
      PendingLut = false;
    } else if (Cmd == ".latch") {
      if (Tok.size() < 3)
        return fail(Tok[0], ".latch expects input and output");
      WireId D = wireFor(Tok[1].Text);
      WireId Q = wireFor(Tok[2].Text);
      if (!Cur->drive(Q))
        return fail(Tok[2], "signal " + quote(Tok[2].Text) + " driven twice");
      if (Cur->M.Wires[Q].Kind == WireKind::Input)
        return fail(Tok[2], "latch drives input " + quote(Tok[2].Text));
      if (Cur->M.Wires[Q].Kind == WireKind::Output) {
        // Latched output port: latch into an internal reg wire and
        // buffer it out to the port.
        WireId Inner =
            Cur->M.addWire({Tok[2].Text, "$latch"}, WireKind::Reg, 1);
        Cur->M.addNet(Op::Buf, {Inner}, Q);
        Q = Inner;
      } else {
        Cur->M.Wires[Q].Kind = WireKind::Reg;
      }
      uint64_t Init = 0;
      // Optional trailing init value (possibly after "<type> <control>").
      const std::string_view Last = Tok.back().Text;
      if (Tok.size() > 3 && (Last == "0" || Last == "1"))
        Init = Last == "1" ? 1 : 0;
      Cur->M.addRegister(D, Q, Init);
      PendingLut = false;
    } else if (Cmd == ".subckt") {
      if (Tok.size() < 2)
        return fail(Tok[0], ".subckt expects a model name");
      SubcktRec Rec;
      Rec.DefName = std::string(Tok[1].Text);
      Rec.Line = Tok[0].Line;
      Rec.Col = Tok[0].Col;
      for (size_t I = 2; I != Tok.size(); ++I) {
        const std::string_view Pair = Tok[I].Text;
        size_t EqPos = Pair.find('=');
        if (EqPos == std::string_view::npos)
          return fail(Tok[I], "malformed formal=actual " + quote(Pair));
        Rec.Pairs.emplace_back(std::string(Pair.substr(0, EqPos)), InvalidId);
        Actuals.push_back(Pair.substr(EqPos + 1));
      }
      Cur->Subckts.push_back(std::move(Rec));
      PendingLut = false;
    } else if (Cmd == ".end") {
      PendingLut = false;
    } else if (Cmd[0] != '.') {
      // A cover row for the pending .names.
      if (!PendingLut)
        return fail(Tok[0], "cover row outside .names");
      if (Tok.size() > 2)
        return fail(Tok[2], "extra cover row field " + quote(Tok[2].Text));
      std::string_view Plane = Tok.size() == 2 ? Tok[0].Text : "";
      std::string_view Output = Tok.size() == 2 ? Tok[1].Text : Tok[0].Text;
      if (Output != "0" && Output != "1")
        return fail(Tok.back(), "cover output must be 0 or 1");
      const Net &Lut = Cur->M.Nets.back();
      if (Plane.size() != Lut.NumInputs)
        return fail(Tok[0], "cover row arity mismatch");
      // BLIF gives one cover one output bit: an ON-set or an OFF-set.
      if (Lut.CoverRows != 0 &&
          Cur->M.netCover(Lut).isOffSet() != (Output == "0"))
        return fail(Tok.back(), "cover mixes output 0 and 1 rows");
      Cur->M.addCoverRow(Plane, Output[0]);
    } else {
      // Unsupported directives (.clock, .exdc, ...) are rejected loudly:
      // silently skipping them could change semantics.
      return fail(Tok[0], "unsupported directive " + quote(Cmd));
    }
    return true;
  }
};

/// One cached `.model` chunk: its exact bytes (the key check — a hash
/// collision must cost a re-parse, never a wrong design), the line it
/// was first parsed at, and the pristine pass-1 result. Pass 2 mutates
/// working copies; entries stay untouched.
struct CacheEntry {
  std::string Bytes;
  size_t StartLine = 1;
  std::vector<ModelBuilder> Models;
};

/// One text region [Begin, End) starting at 1-based StartLine.
struct ChunkRef {
  size_t Begin = 0;
  size_t End = 0;
  size_t StartLine = 1;
};

/// Splits \p Text at non-continued `.model` lines. Mirrors exactly the
/// comment-strip and backslash-continuation rules of Pass1::line, so a
/// boundary never lands inside a logical line.
std::vector<ChunkRef> splitModelChunks(const std::string &Text) {
  std::vector<ChunkRef> Out;
  size_t Pos = 0, LineNo = 1;
  size_t CurBegin = 0, CurLine = 1;
  bool PrevContinues = false;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    size_t Stop = Eol == std::string::npos ? Text.size() : Eol;
    std::string_view Line(Text.data() + Pos, Stop - Pos);
    size_t Hash = Line.find('#');
    if (Hash != std::string_view::npos)
      Line = Line.substr(0, Hash);
    size_t P = 0;
    while (P < Line.size() && isBlank(Line[P]))
      ++P;
    bool IsModel = Line.size() - P >= 6 && Line.compare(P, 6, ".model") == 0 &&
                   (P + 6 == Line.size() || isBlank(Line[P + 6]));
    if (IsModel && !PrevContinues && Pos != CurBegin) {
      Out.push_back({CurBegin, Pos, CurLine});
      CurBegin = Pos;
      CurLine = LineNo;
    }
    PrevContinues = !Line.empty() && Line.back() == '\\';
    Pos = Stop + 1;
    ++LineNo;
  }
  Out.push_back({CurBegin, Text.size(), CurLine});
  return Out;
}

} // namespace

struct parse::BlifParseCache::Impl {
  const size_t MaxEntries;
  mutable std::mutex Mu;
  /// Recency order, most recent at the front; the map holds each key's
  /// position so a hit's promotion and an eviction are both O(1) —
  /// overflowing the bound costs one cold parse of the *coldest* chunk,
  /// not (as the old wholesale flush did) of every chunk a long-lived
  /// daemon had warmed.
  std::list<uint64_t> Recency;
  struct Slot {
    std::shared_ptr<const CacheEntry> Entry;
    std::list<uint64_t>::iterator Pos;
  };
  std::map<uint64_t, Slot> ByKey;
  size_t HitCount = 0, MissCount = 0;

  explicit Impl(size_t MaxEntries) : MaxEntries(MaxEntries ? MaxEntries : 1) {}

  std::shared_ptr<const CacheEntry> find(uint64_t Key,
                                         std::string_view Bytes) {
    std::lock_guard<std::mutex> L(Mu);
    auto It = ByKey.find(Key);
    // Exact-bytes guard: a hash collision must cost a re-parse, never a
    // wrong design.
    if (It != ByKey.end() && It->second.Entry->Bytes == Bytes) {
      ++HitCount;
      Recency.splice(Recency.begin(), Recency, It->second.Pos);
      return It->second.Entry;
    }
    ++MissCount;
    return nullptr;
  }

  void insert(uint64_t Key, std::shared_ptr<const CacheEntry> E) {
    std::lock_guard<std::mutex> L(Mu);
    auto It = ByKey.find(Key);
    if (It != ByKey.end()) {
      // Collision overwrite (or a racing duplicate parse): keep one
      // slot, refresh the bytes, promote.
      It->second.Entry = std::move(E);
      Recency.splice(Recency.begin(), Recency, It->second.Pos);
      return;
    }
    while (ByKey.size() >= MaxEntries && !Recency.empty()) {
      ByKey.erase(Recency.back());
      Recency.pop_back();
    }
    Recency.push_front(Key);
    ByKey.emplace(Key, Slot{std::move(E), Recency.begin()});
  }
};

parse::BlifParseCache::BlifParseCache(size_t MaxEntries)
    : I(std::make_unique<Impl>(MaxEntries)) {}
parse::BlifParseCache::~BlifParseCache() = default;

size_t parse::BlifParseCache::size() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->ByKey.size();
}
size_t parse::BlifParseCache::hits() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->HitCount;
}
size_t parse::BlifParseCache::misses() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->MissCount;
}

support::Expected<BlifFile> parse::parseBlif(const std::string &Text,
                                             const std::string &FileName,
                                             const support::Deadline *DL,
                                             BlifParseCache *Cache,
                                             unsigned Threads) {
  using support::Diag;
  using support::DiagCode;
  using support::SrcLoc;

  static trace::Counter &ParseBytes = trace::counter("parse.bytes");
  static trace::Counter &ChunkHits = trace::counter("parse.chunk.hits");
  static trace::Counter &ChunkMisses = trace::counter("parse.chunk.misses");
  ParseBytes.add(Text.size());
  trace::Span ParseSpan("parse.blif", "parse");
  ParseSpan.note("file", FileName)
      .note("bytes", static_cast<uint64_t>(Text.size()));

  auto failAt = [&](DiagCode Code, size_t Line, size_t Col,
                    const std::string &Msg) {
    return Diag(Code, Msg).withLoc(SrcLoc{FileName, Line, Col});
  };

  /// One `.model` chunk: a cache hit to replay, or a miss and what its
  /// pass 1 left (models, or the error it stopped at, or what it threw).
  struct ChunkJob {
    ChunkRef Ref;
    std::string_view Bytes;
    uint64_t Key = 0;
    std::shared_ptr<const CacheEntry> Hit;
    std::vector<ModelBuilder> Models;
    std::optional<Diag> Err;
    std::exception_ptr Thrown;
  };

  // Every chunk is looked up here, in file order, so the hit and miss
  // counts and the cache's recency never depend on the schedule.
  std::vector<ChunkJob> Jobs;
  std::vector<size_t> Misses;
  for (const ChunkRef &C : splitModelChunks(Text)) {
    ChunkJob &J = Jobs.emplace_back();
    J.Ref = C;
    J.Bytes = std::string_view(Text.data() + C.Begin, C.End - C.Begin);
    if (Cache) {
      // The key lives only in memory, and the exact-bytes guard makes a
      // collision cost a re-parse, so any fast hash will do.
      J.Key = std::hash<std::string_view>{}(J.Bytes);
      J.Hit = Cache->I->find(J.Key, J.Bytes);
    }
    if (J.Hit) {
      ChunkHits.add(1);
      continue;
    }
    ChunkMisses.add(1);
    Misses.push_back(Jobs.size() - 1);
  }

  // Feeds chunk \p C to \p P line by line, then ends its last model. The
  // deadline poll is once per line: a BLIF line is at most a few hundred
  // bytes of tokenizing, so this bounds a runaway input without
  // measurable cost (the parse.cancel failpoint simulates expiry
  // deterministically).
  auto eachLine = [&](const ChunkRef &C, Pass1 &P) -> std::optional<Diag> {
    const char *Data = Text.data();
    size_t Pos = C.Begin, LineNo = C.StartLine - 1;
    while (Pos < C.End) {
      const void *Eol = std::memchr(Data + Pos, '\n', C.End - Pos);
      size_t Stop = Eol ? static_cast<const char *>(Eol) - Data : C.End;
      ++LineNo;
      if (DL && (DL->expired() || WS_FAILPOINT("parse.cancel")))
        return failAt(DiagCode::WS601_CANCELLED, LineNo, 0,
                      "parse cancelled by deadline");
      if (!P.line(std::string_view(Data + Pos, Stop - Pos), LineNo))
        return *P.Err;
      Pos = Stop + 1;
    }
    P.endModel();
    return std::nullopt;
  };

  // Pass 1 of one miss on a fresh machine: a chunk starts in the
  // inter-model state, so chunks parse independently. \returns false
  // when the chunk failed.
  auto pass1 = [&](ChunkJob &J) {
    try {
      Pass1 P(FileName);
      J.Err = eachLine(J.Ref, P);
      J.Models = std::move(P.Models);
    } catch (...) {
      J.Thrown = std::current_exception();
    }
    return !J.Err && !J.Thrown;
  };
  const unsigned Workers =
      Threads != 0 ? Threads
                   : std::max(1u, std::thread::hardware_concurrency());
  if (Workers == 1 || Misses.size() <= 1) {
    // File order, stopping at the first failure: only it is reported.
    for (size_t I : Misses)
      if (!pass1(Jobs[I]))
        break;
  } else {
    // Largest first, so the biggest chunk never starts last.
    std::stable_sort(Misses.begin(), Misses.end(), [&](size_t A, size_t B) {
      return Jobs[A].Bytes.size() > Jobs[B].Bytes.size();
    });
    ThreadPool Pool(
        static_cast<unsigned>(std::min<size_t>(Workers, Misses.size())));
    for (size_t I : Misses)
      Pool.submit([&pass1, &J = Jobs[I]] { pass1(J); });
    Pool.wait();
  }

  // Results in file order: the first failing chunk's diagnostic (or
  // exception) wins, and the misses before it enter the cache.
  std::vector<ModelBuilder> Models;
  for (ChunkJob &J : Jobs) {
    if (J.Hit) {
      // Replay: copy the pristine models, rebasing source lines to where
      // the chunk sits in *this* file so any later resolution diagnostic
      // is byte-identical to an uncached parse.
      ptrdiff_t Delta = static_cast<ptrdiff_t>(J.Ref.StartLine) -
                        static_cast<ptrdiff_t>(J.Hit->StartLine);
      for (const ModelBuilder &MB : J.Hit->Models) {
        // Pass 2 reads Driven and Subckts only of models that
        // instantiate something; a leaf model's replay is its Module.
        ModelBuilder &W = Models.emplace_back();
        W.M = MB.M;
        W.Line = MB.Line + Delta;
        W.Col = MB.Col;
        if (!MB.Subckts.empty()) {
          W.Driven = MB.Driven;
          W.Subckts = MB.Subckts;
          for (SubcktRec &Rec : W.Subckts)
            Rec.Line += Delta;
        }
      }
      continue;
    }
    if (J.Thrown)
      std::rethrow_exception(J.Thrown);
    if (J.Err)
      return *J.Err;
    if (Cache) {
      auto Entry = std::make_shared<CacheEntry>();
      Entry->Bytes = std::string(J.Bytes);
      Entry->StartLine = J.Ref.StartLine;
      Entry->Models = J.Models; // pristine copy, pre-pass-2
      Cache->I->insert(J.Key, std::move(Entry));
    }
    for (ModelBuilder &MB : J.Models)
      Models.push_back(std::move(MB));
  }

  if (Models.empty())
    return failAt(DiagCode::WS202_BLIF_STRUCTURE, 0, 0, "no .model found");

  // Second pass: resolve subcircuit references across models.
  BlifFile Result;
  std::map<std::string, ModuleId> IdByName;
  for (ModelBuilder &MB : Models) {
    ModuleId Id = Result.Design.addModule(Module(MB.M.Name));
    if (IdByName.count(MB.M.Name))
      return failAt(DiagCode::WS202_BLIF_STRUCTURE, MB.Line, MB.Col,
                    "duplicate model '" + MB.M.Name + "'");
    IdByName[MB.M.Name] = Id;
  }
  // Each instantiated model's port index, built on first use, so a
  // formal costs one lookup rather than a scan of every port.
  std::vector<std::optional<PortIndex>> Ports(Models.size());
  for (ModelBuilder &MB : Models) {
    for (const SubcktRec &Rec : MB.Subckts) {
      auto It = IdByName.find(Rec.DefName);
      if (It == IdByName.end())
        return failAt(DiagCode::WS202_BLIF_STRUCTURE, Rec.Line, Rec.Col,
                      ".subckt references unknown model '" + Rec.DefName +
                          "'");
      // Formal names are resolved against the referenced model's ports.
      SubInstance Inst;
      Inst.Def = It->second;
      Inst.Name = Rec.DefName + "$" + std::to_string(MB.M.Instances.size());
      const Module &Def = Models[It->second].M;
      std::optional<PortIndex> &DefPorts = Ports[It->second];
      if (!DefPorts)
        DefPorts.emplace(Def);
      for (const auto &[Formal, Local] : Rec.Pairs) {
        const WireId Port = DefPorts->find(Def, Formal);
        if (Port == InvalidId)
          return failAt(DiagCode::WS202_BLIF_STRUCTURE, Rec.Line, Rec.Col,
                        "model '" + Rec.DefName + "' has no port '" +
                            Formal + "'");
        if (Def.isOutput(Port) && !MB.drive(Local))
          return failAt(DiagCode::WS202_BLIF_STRUCTURE, Rec.Line, Rec.Col,
                        "signal " + quote(std::string(MB.M.wire(Local).Name)) +
                            " driven twice");
        Inst.Bindings.emplace_back(Port, Local);
      }
      MB.M.addInstance(std::move(Inst));
    }
  }
  // Models move into the design only once every .subckt is resolved: a
  // model may instantiate one defined above it.
  for (ModuleId Id = 0; Id != Models.size(); ++Id)
    Result.Design.module(Id) = std::move(Models[Id].M);
  Result.Top = 0; // Models are added in file order; the first is top.

  if (auto Err = Result.Design.validate()) {
    // Point at the .subckt line of the instance the refusal names, or
    // else at its model's .model line.
    const ModelBuilder &MB = Models[Err->Module];
    const bool AtInstance = Err->Instance != DesignError::NoInstance;
    return failAt(DiagCode::WS202_BLIF_STRUCTURE,
                  AtInstance ? MB.Subckts[Err->Instance].Line : MB.Line,
                  AtInstance ? MB.Subckts[Err->Instance].Col : MB.Col,
                  Err->Message);
  }
  return Result;
}

namespace {

void writeModel(std::ostringstream &OS, const Design &D, const Module &M) {
  OS << ".model " << M.Name << "\n.inputs";
  for (WireId In : M.Inputs)
    OS << ' ' << M.wire(In).Name;
  OS << "\n.outputs";
  for (WireId Out : M.Outputs)
    OS << ' ' << M.wire(Out).Name;
  OS << '\n';

  // Constants become zero-input covers.
  for (WireId W = 0; W != M.numWires(); ++W) {
    const WireView Wr = M.wire(W);
    assert(Wr.Width == 1 && "writeBlif requires a bit-level module");
    if (Wr.Kind != WireKind::Const)
      continue;
    OS << ".names " << Wr.Name << '\n';
    if (Wr.ConstValue & 1)
      OS << "1\n";
  }

  auto name = [&](WireId W) { return M.wireName(W); };
  for (const Net &N : M.Nets) {
    OS << ".names";
    for (WireId In : M.netInputs(N))
      OS << ' ' << name(In);
    OS << ' ' << name(N.Output) << '\n';
    if (N.Operation == Op::Lut) {
      const CoverView Cover = M.netCover(N);
      for (uint32_t R = 0; R != Cover.numRows(); ++R) {
        const std::string_view Row = Cover.row(R);
        if (Row.size() > 1)
          OS << Row.substr(0, Row.size() - 1) << ' ';
        OS << Row.back() << '\n';
      }
      continue;
    }
    switch (N.Operation) {
    case Op::And:
      OS << "11 1\n";
      break;
    case Op::Or:
      OS << "1- 1\n-1 1\n";
      break;
    case Op::Xor:
      OS << "10 1\n01 1\n";
      break;
    case Op::Nand:
      OS << "0- 1\n-0 1\n";
      break;
    case Op::Nor:
      OS << "00 1\n";
      break;
    case Op::Xnor:
      OS << "11 1\n00 1\n";
      break;
    case Op::Not:
      OS << "0 1\n";
      break;
    case Op::Buf:
      OS << "1 1\n";
      break;
    case Op::Mux:
      OS << "11- 1\n0-1 1\n";
      break;
    default:
      assert(false && "writeBlif requires primitive operations");
    }
  }
  for (const Register &R : M.Registers)
    OS << ".latch " << name(R.D) << ' ' << name(R.Q) << " re clk "
       << (R.Init & 1) << '\n';
  for (const SubInstance &Inst : M.Instances) {
    const Module &Def = D.module(Inst.Def);
    OS << ".subckt " << Def.Name;
    for (const auto &[DefPort, Local] : Inst.Bindings)
      OS << ' ' << Def.wire(DefPort).Name << '=' << name(Local);
    OS << '\n';
  }
  OS << ".end\n";
}

} // namespace

std::string parse::writeBlif(const Design &D, ModuleId Top) {
  // Emit top first, then every reachable definition once.
  std::vector<ModuleId> Order{Top};
  std::set<ModuleId> Seen{Top};
  for (size_t I = 0; I != Order.size(); ++I)
    for (const SubInstance &Inst : D.module(Order[I]).Instances)
      if (Seen.insert(Inst.Def).second)
        Order.push_back(Inst.Def);

  std::ostringstream OS;
  for (ModuleId Id : Order)
    writeModel(OS, D, D.module(Id));
  return OS.str();
}
