//===- driver/Check.cpp - The check request/response facade ---------------===//
//
// Part of the wiresort project.
//
// The body of what used to be the wiresort-check main(), now emitting
// into CheckResult::Out/Err strings instead of stdio so the CLI, the
// daemon, and the benches replay the exact same bytes.
//
//===----------------------------------------------------------------------===//

#include "driver/Check.h"

#include "analysis/Depth.h"
#include "analysis/Dot.h"
#include "analysis/SortInference.h"
#include "analysis/SummaryIO.h"
#include "parse/Blif.h"
#include "parse/Verilog.h"
#include "parse/VerilogReader.h"
#include "support/Deadline.h"
#include "support/Diag.h"
#include "support/FailPoint.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::driver;
using namespace wiresort::ir;

namespace {

/// printf-append onto a string (the Out/Err streams).
void appendf(std::string &S, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string &S, const char *Fmt, ...) {
  va_list Ap;
  va_start(Ap, Fmt);
  va_list Ap2;
  va_copy(Ap2, Ap);
  int N = std::vsnprintf(nullptr, 0, Fmt, Ap);
  va_end(Ap);
  if (N > 0) {
    size_t Old = S.size();
    S.resize(Old + static_cast<size_t>(N) + 1);
    std::vsnprintf(&S[Old], static_cast<size_t>(N) + 1, Fmt, Ap2);
    S.resize(Old + static_cast<size_t>(N));
  }
  va_end(Ap2);
}

/// Routes diagnostics to the requested renderer: human text on the Err
/// stream (with caret echoes when the diagnosed file's source is
/// registered), NDJSON on the Out stream. Tracks the error count for
/// the verdict line.
///
/// Unlike the old CLI emitter — one SourceText pointer for the whole
/// process — source text is keyed per file: a resident service renders
/// many designs' diagnostics through one process, and a --check run
/// holds two buffers (design + sidecar) at once, so each diag's caret
/// must come from the buffer its SrcLoc names, never "whichever buffer
/// was read last".
struct Emitter {
  Format Fmt = Format::Text;
  CheckResult &Res;
  /// Caret-echo source text, keyed by the file name diags carry.
  /// Values point at request-local buffers that outlive the emitter.
  std::map<std::string, const std::string *> Sources;

  explicit Emitter(CheckResult &Res) : Res(Res) {}

  void addSource(const std::string &Name, const std::string &Text) {
    Sources[Name] = &Text;
  }

  const std::string *sourceFor(const support::Diag &D) const {
    if (!D.loc())
      return nullptr;
    auto It = Sources.find(D.loc()->File);
    return It == Sources.end() ? nullptr : It->second;
  }

  void emit(const support::Diag &D) {
    if (D.severity() == support::Severity::Error)
      ++Res.Errors;
    if (Fmt == Format::Json)
      appendf(Res.Out, "%s\n", support::renderJson(D).c_str());
    else
      appendf(Res.Err, "%s\n",
              support::renderText(D, sourceFor(D)).c_str());
  }
  void emit(const support::DiagList &Ds) {
    for (const support::Diag &D : Ds)
      emit(D);
  }

  /// The deterministic success verdict: text keeps its human one-liner
  /// (emitted by the caller, with timing); JSON emits the stable line.
  void verdictOk(size_t Modules) {
    if (Fmt == Format::Json)
      appendf(Res.Out, "{\"verdict\":\"well-connected\",\"modules\":%zu}\n",
              Modules);
  }
  /// The failure verdict; \returns the exit code (1).
  int verdictError() {
    if (Fmt == Format::Json)
      appendf(Res.Out, "{\"verdict\":\"error\",\"errors\":%zu}\n",
              Res.Errors);
    return 1;
  }
  /// The cancelled verdict (the deadline fired); \returns exit code 3.
  int verdictCancelled() {
    Res.Cancelled = true;
    if (Fmt == Format::Json)
      appendf(Res.Out, "{\"verdict\":\"cancelled\",\"errors\":%zu}\n",
              Res.Errors);
    return 3;
  }
};

/// True when \p Ds carries a WS601_CANCELLED diag — the run was cut
/// short by the deadline and exits 3, not 1.
bool wasCancelled(const support::DiagList &Ds) {
  for (const support::Diag &D : Ds)
    if (D.code() == support::DiagCode::WS601_CANCELLED)
      return true;
  return false;
}

int ioError(Emitter &E, const std::string &Why) {
  E.emit(support::Diag(support::DiagCode::WS501_IO_ERROR, Why));
  return 2;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << Text;
  return Out.good();
}

/// --check: compare a declared sidecar against the computed summaries,
/// one WS102 diag per mismatching port (module-id then port order).
support::DiagList
checkDeclared(const Design &D,
              const std::map<ModuleId, ModuleSummary> &Declared,
              const std::map<ModuleId, ModuleSummary> &Computed) {
  support::DiagList Mismatches;
  for (const auto &[Id, Decl] : Declared) {
    const Module &M = D.module(Id);
    const ModuleSummary &Comp = Computed.at(Id);
    auto report = [&](WireId Port, const char *What) {
      Mismatches.add(
          support::Diag(support::DiagCode::WS102_ASCRIPTION_MISMATCH,
                        "port '" + M.wire(Port).Name + "': " + What)
              .withNote("module", M.Name)
              .withNote("port", M.wire(Port).Name));
    };
    for (WireId Port : M.Inputs) {
      if (Decl.sortOf(Port) != Comp.sortOf(Port))
        report(Port, "declared sort differs from computed");
      else if (Decl.outputPortSet(Port) != Comp.outputPortSet(Port))
        report(Port, "declared output-port-set differs");
    }
    for (WireId Port : M.Outputs) {
      if (Decl.sortOf(Port) != Comp.sortOf(Port))
        report(Port, "declared sort differs from computed");
      else if (Decl.inputPortSet(Port) != Comp.inputPortSet(Port))
        report(Port, "declared input-port-set differs");
    }
  }
  return Mismatches;
}

} // namespace

CheckResult CheckService::run(const CheckRequest &R,
                              parse::BlifParseCache *Cache) {
  CheckResult Res;
  Emitter Emit(Res);
  Emit.Fmt = R.Req.OutputFormat;
  Served.fetch_add(1);

  // The finished-result path: every return below goes through here so
  // ExitCode is always consistent with what was emitted.
  auto done = [&](int Code) {
    Res.ExitCode = Code;
    return Res;
  };

  // Fault injection arms before any other work so every site in the run
  // is eligible. The registry is process-wide: in a resident service a
  // request's schedule is visible to concurrently running requests
  // (docs/SERVING.md degradation matrix) — which is exactly what the
  // serving soak exploits to hammer fault handling under concurrency.
  if (!R.Req.FailpointSpec.empty()) {
    support::Status Armed =
        support::failpoint::configure(R.Req.FailpointSpec, R.Req.FaultSeed);
    if (Armed.hasError()) {
      Emit.emit(Armed);
      return done(2);
    }
  }

  // One deadline covers parse + Stage-1 analysis (docs/ROBUSTNESS.md);
  // inert when neither a timeout nor an external cancel (the serving
  // layer's drain token) was requested.
  support::Deadline DL =
      (R.Req.TimeoutMs != 0 || R.Cancel.cancellable())
          ? support::Deadline::afterMs(R.Req.TimeoutMs, R.Cancel)
          : support::Deadline();
  const support::Deadline *DLPtr = DL.active() ? &DL : nullptr;

  // The collection window opens before the design is even read so the
  // parse spans land in the trace; it closes (and the stats record is
  // emitted) right before the verdict. At most one trace::Session may
  // be live per process, so telemetry-bearing requests serialize on the
  // service mutex; plain requests pay nothing.
  std::unique_lock<std::mutex> TelemetryLock;
  std::optional<trace::Session> TraceSession;
  if (R.Req.Stats || !R.Req.TraceOutPath.empty()) {
    TelemetryLock = std::unique_lock<std::mutex>(TelemetryMutex);
    TraceSession.emplace(trace::SessionOptions{R.Req.TraceOutPath, true});
  }
  // Closes the session and emits the stats record (before the verdict
  // line, per docs/DIAGNOSTICS.md). \returns false when the trace file
  // cannot be written.
  auto finishTelemetry = [&]() {
    if (!TraceSession)
      return true;
    support::Status Write = TraceSession->finish();
    if (R.Req.Stats) {
      if (Emit.Fmt == Format::Json)
        appendf(Res.Out, "%s\n", TraceSession->statsJson().c_str());
      else
        appendf(Res.Out, "%s", TraceSession->statsText().c_str());
    }
    if (Write.hasError()) {
      Emit.emit(Write);
      return false;
    }
    return true;
  };

  // --- Design text: shipped inline (daemon; parsed where it lies) or
  // read from disk (CLI).
  std::optional<std::string> FromDisk;
  if (!R.HasInlineText) {
    FromDisk = readFile(R.DesignPath);
    if (!FromDisk)
      return done(ioError(Emit, "cannot read '" + R.DesignPath + "'"));
  }
  const std::string &Text = FromDisk ? *FromDisk : R.DesignText;
  const std::string &Name = R.name();
  Emit.addSource(Name, Text);

  bool IsVerilog = Name.size() >= 2 &&
                   (Name.rfind(".v") == Name.size() - 2 ||
                    (Name.size() >= 3 && Name.rfind(".sv") == Name.size() - 3));
  std::optional<parse::BlifFile> File;
  if (IsVerilog) {
    auto VFile = parse::parseVerilog(Text, Name, DLPtr);
    if (!VFile) {
      bool Cancelled = wasCancelled(VFile.diags());
      Emit.emit(VFile.diags());
      (void)finishTelemetry();
      return done(Cancelled ? Emit.verdictCancelled() : Emit.verdictError());
    }
    File.emplace();
    File->Design = std::move(VFile->Design);
    File->Top = VFile->Top;
  } else {
    auto BFile =
        parse::parseBlif(Text, Name, DLPtr, Cache, Engine.config().Threads);
    if (!BFile) {
      bool Cancelled = wasCancelled(BFile.diags());
      Emit.emit(BFile.diags());
      (void)finishTelemetry();
      return done(Cancelled ? Emit.verdictCancelled() : Emit.verdictError());
    }
    File = std::move(*BFile);
  }

  // --convert-summaries: re-serialize an existing sidecar (either
  // format, sniffed) in the requested encoding and exit. Port names
  // resolve against the design, so this doubles as a validation pass.
  if (!R.ConvertIn.empty()) {
    std::optional<std::string> InBytes = readFile(R.ConvertIn);
    if (!InBytes)
      return done(ioError(Emit, "cannot read '" + R.ConvertIn + "'"));
    Emit.addSource(R.ConvertIn, *InBytes);
    auto Converted = readSummariesAny(*InBytes, File->Design, R.ConvertIn);
    if (!Converted) {
      Emit.emit(Converted.diags());
      return done(Emit.verdictError());
    }
    const std::string Out =
        R.BinarySummaries ? writeSummariesBinary(File->Design, *Converted)
                          : writeSummaries(File->Design, *Converted);
    if (!writeFile(R.SummariesOut, Out))
      return done(ioError(Emit, "cannot write '" + R.SummariesOut + "'"));
    if (!finishTelemetry())
      return done(2);
    if (Emit.Fmt == Format::Text)
      appendf(Res.Out, "summaries converted to %s\n", R.SummariesOut.c_str());
    return done(0);
  }

  // --- Engine setup. Requests run through the *resident* engine, whose
  // analyze() keeps every per-call artifact in the request's outcome, so
  // repeated submissions of the same (or a lightly edited) design are
  // mostly cache hits.
  if (!R.Req.CachePath.empty()) {
    support::Expected<CacheLoadResult> Loaded =
        Engine.loadCache(R.Req.CachePath, File->Design);
    if (!Loaded) {
      Emit.emit(Loaded.diags());
      return done(2);
    }
    // Quarantined-record warnings (WS602/WS603) degrade, never fail:
    // the damaged records re-infer cold while the rest stay warm.
    Emit.emit(Loaded->Warnings);
    if (!R.Quiet && Emit.Fmt == Format::Text && Loaded->Loaded)
      appendf(Res.Out, "cache: %zu summaries loaded from %s\n",
              Loaded->Loaded, R.Req.CachePath.c_str());
  }

  Timer T;
  std::map<ModuleId, ModuleSummary> Summaries;
  AnalyzeOutcome Outcome;
  support::Status Stage1 =
      Engine.analyze(File->Design, Summaries, {}, DL, &Outcome);
  double Ms = T.milliseconds();
  Res.Stats = Outcome.Stats;

  auto save = [&]() {
    if (R.Req.CachePath.empty())
      return;
    Emit.emit(SummaryEngine::saveCache(R.Req.CachePath, File->Design,
                                       Summaries, Outcome.Keys));
  };

  if (Stage1.hasError()) {
    bool Cancelled = wasCancelled(Stage1);
    Emit.emit(Stage1);
    // A cancelled run still persists what it finished — the next,
    // fully-budgeted invocation starts warm (docs/ROBUSTNESS.md).
    save();
    (void)finishTelemetry();
    return done(Cancelled ? Emit.verdictCancelled() : Emit.verdictError());
  }
  save();

  if (!R.Quiet && Emit.Fmt == Format::Text) {
    for (ModuleId Id = 0; Id != File->Design.numModules(); ++Id) {
      const Module &M = File->Design.module(Id);
      const ModuleSummary &S = Summaries.at(Id);
      appendf(Res.Out, "module %s (%zu gates, %zu regs, %zu instances)\n",
              M.Name.c_str(), M.Nets.size(), M.Registers.size(),
              M.Instances.size());
      Table PortTable({"Dir", "Port", "Sort", "Depends on / affects"});
      auto setOf = [&](WireId Port) {
        const auto &Set = M.isInput(Port) ? S.outputPortSet(Port)
                                          : S.inputPortSet(Port);
        std::string Out;
        for (size_t I = 0; I != Set.size(); ++I) {
          if (I)
            Out += ", ";
          Out += M.wire(Set[I]).Name;
        }
        return Out;
      };
      for (WireId In : M.Inputs)
        PortTable.addRow(
            {"in", M.wire(In).Name, sortName(S.sortOf(In)), setOf(In)});
      for (WireId Out : M.Outputs)
        PortTable.addRow(
            {"out", M.wire(Out).Name, sortName(S.sortOf(Out)), setOf(Out)});
      Res.Out += PortTable.str();
      appendf(Res.Out, "\n");
    }
  }
  if (Emit.Fmt == Format::Text)
    appendf(Res.Out,
            "well-connected: %zu module(s) analyzed in %.2f ms "
            "(%u thread(s), %zu inferred, %zu cache hit(s))\n",
            File->Design.numModules(), Ms, Outcome.Stats.ThreadsUsed,
            Outcome.Stats.Inferred, Outcome.Stats.CacheHits);

  if (R.ShowDepth && Emit.Fmt == Format::Text) {
    auto Depths = inferAllDepths(File->Design, Summaries);
    if (!Depths) {
      appendf(Res.Err, "error: depth analysis needs an acyclic design\n");
      return done(2);
    }
    Table DepthTable({"Module", "Reg-to-reg depth", "Deepest in->out"});
    for (ModuleId Id = 0; Id != File->Design.numModules(); ++Id) {
      const DepthSummary &Depth = Depths->at(Id);
      uint32_t DeepestPair = 0;
      for (const auto &[Pair, Levels] : Depth.PairDepth)
        DeepestPair = std::max(DeepestPair, Levels);
      DepthTable.addRow({File->Design.module(Id).Name,
                         std::to_string(Depth.InternalDepth),
                         std::to_string(DeepestPair)});
    }
    Res.Out += DepthTable.str();
  }

  if (!R.SummariesOut.empty()) {
    const std::string Out =
        R.BinarySummaries ? writeSummariesBinary(File->Design, Summaries)
                          : writeSummaries(File->Design, Summaries);
    if (!writeFile(R.SummariesOut, Out))
      return done(ioError(Emit, "cannot write '" + R.SummariesOut + "'"));
    if (Emit.Fmt == Format::Text)
      appendf(Res.Out, "summaries written to %s\n", R.SummariesOut.c_str());
  }

  if (!R.CheckPath.empty() || R.HasInlineCheckText) {
    std::string Declared;
    std::string CheckName =
        !R.CheckPath.empty() ? R.CheckPath : std::string("<ascribe>");
    if (R.HasInlineCheckText) {
      Declared = R.CheckText;
    } else {
      std::optional<std::string> FromDisk = readFile(R.CheckPath);
      if (!FromDisk)
        return done(ioError(Emit, "cannot read '" + R.CheckPath + "'"));
      Declared = std::move(*FromDisk);
    }
    // The sidecar text is registered under its own name, so a malformed
    // sidecar's caret echoes the sidecar's lines — and the design's
    // diags keep echoing the design's. (The pre-driver CLI had one
    // source buffer per process and had to drop the echo entirely
    // here.)
    Emit.addSource(CheckName, Declared);
    auto DeclaredSummaries =
        readSummariesAny(Declared, File->Design, CheckName);
    if (!DeclaredSummaries) {
      Emit.emit(DeclaredSummaries.diags());
      return done(Emit.verdictError());
    }
    support::DiagList Mismatches =
        checkDeclared(File->Design, *DeclaredSummaries, Summaries);
    if (Mismatches.hasError()) {
      Emit.emit(Mismatches);
      if (Emit.Fmt == Format::Text)
        appendf(Res.Out, "%zu ascription mismatch(es)\n", Mismatches.size());
      (void)finishTelemetry();
      return done(Emit.verdictError());
    }
    if (Emit.Fmt == Format::Text)
      appendf(Res.Out, "all ascriptions match\n");
  }

  if (!R.DotPath.empty()) {
    const Module &Top = File->Design.module(File->Top);
    if (!writeFile(R.DotPath, moduleDot(Top, Summaries.at(File->Top))))
      return done(ioError(Emit, "cannot write '" + R.DotPath + "'"));
    if (Emit.Fmt == Format::Text)
      appendf(Res.Out, "dot written to %s\n", R.DotPath.c_str());
  }

  if (!finishTelemetry())
    return done(2);
  Res.Modules = Summaries.size();
  Emit.verdictOk(Summaries.size());
  return done(0);
}

CheckResult wiresort::driver::runCheck(const CheckRequest &R,
                                       EngineConfig Cfg) {
  CheckService OneShot(Cfg);
  return OneShot.run(R, nullptr);
}

std::optional<std::string> wiresort::driver::readFile(const std::string &Path) {
  const int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return std::nullopt;
  // A regular file's size sizes the string once, with a byte to spare so
  // the read that finds EOF needs no room; reading on to EOF keeps a pipe,
  // or a file that changes size meanwhile, whole.
  struct stat St;
  const size_t Expected =
      ::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode) ? St.st_size : 0;
  std::string Text(Expected + 1, '\0');
  size_t Len = 0;
  bool Failed = false;
  while (true) {
    if (Len == Text.size())
      Text.resize(std::max<size_t>(2 * Text.size(), 1 << 16));
    const ssize_t N = ::read(Fd, Text.data() + Len, Text.size() - Len);
    if (N > 0) {
      Len += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    Failed = N < 0; // Reading a directory fails here (EISDIR).
    break;
  }
  ::close(Fd);
  if (Failed)
    return std::nullopt;
  Text.resize(Len);
  return Text;
}
