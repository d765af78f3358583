//===- tools/wiresort-check.cpp - The wiresort command-line tool ----------===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// A Yosys-pass-style command-line front end — and, since the serving
// layer landed, a *thin client* of the library-level check facade
// (src/driver/Check.h): main() only parses flags into a
// driver::CheckRequest, runs it one-shot through driver::runCheck, and
// replays the result's stdout/stderr bytes. The daemon
// (tools/wiresort-served.cpp) serves the very same facade resident, so
// its responses are byte-identical to this tool by construction
// (docs/SERVING.md).
//
//   wiresort-check design.blif                 # sorts + verdict
//   wiresort-check design.blif --format json   # NDJSON diags + verdict
//   wiresort-check design.blif --summaries out.wsort
//   wiresort-check design.blif --check out.wsort   # ascription check
//   wiresort-check design.blif --dot out.dot   # top module, colored
//   wiresort-check design.blif --quiet         # verdict only
//   wiresort-check design.blif --depth         # timing extension
//   wiresort-check design.blif --threads 8     # parallel parse + inference
//   wiresort-check design.blif --cache d.wscache   # warm-start repeats
//   wiresort-check design.blif --trace-out t.json  # Chrome trace events
//   wiresort-check design.blif --stats         # registry counter dump
//   wiresort-check design.blif --timeout-ms 500    # bounded run
//   wiresort-check design.blif --failpoints s=mode # fault injection
//
// Exit-code contract (docs/DIAGNOSTICS.md): 0 = well-connected and every
// requested check passed; 1 = analysis/parse diagnostics with severity >=
// error were emitted; 2 = usage or I/O failure (WS5xx); 3 = the run was
// cancelled by --timeout-ms (WS601_CANCELLED, with partial-progress
// notes — docs/ROBUSTNESS.md). With --format json all diagnostics go to
// stdout as newline-delimited JSON (support::renderJson) followed by one
// deterministic verdict line — {"verdict":"well-connected","modules":N},
// {"verdict":"error","errors":K}, or {"verdict":"cancelled","errors":K}
// — with no timing or thread counts, so the output is byte-stable for
// golden tests.
//
//===----------------------------------------------------------------------===//

#include "CheckFlags.h"

#include <cstdio>
#include <optional>
#include <string>

using namespace wiresort;
using namespace wiresort::analysis;
using tools::emitEarly;

namespace {

int usage(const char *Argv0, Format Fmt, const std::string &Why) {
  emitEarly(Fmt, support::Diag(support::DiagCode::WS503_USAGE, Why));
  std::fprintf(stderr,
               "usage: %s <design.blif|design.v> [--summaries FILE] "
               "[--summary-format text|binary] [--convert-summaries FILE] "
               "[--check FILE] [--dot FILE] [--format text|json] "
               "[--quiet] [--depth] [--threads N] [--cache FILE] "
               "[--trace-out FILE] [--stats] [--timeout-ms N] "
               "[--failpoints SPEC] [--fault-seed N]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int ArgC, char **ArgV) {
  driver::CheckRequest R;
  EngineConfig Cfg;
  for (int I = 1; I < ArgC; ++I) {
    std::string Arg = ArgV[I];
    Format Fmt = R.Req.OutputFormat;
    std::string Value;
    if (Arg == "--convert-summaries") {
      if (!tools::takeValue(ArgC, ArgV, I, R.ConvertIn))
        return usage(ArgV[0], Fmt, "--convert-summaries expects a file");
    } else if (Arg == "--stats") {
      R.Req.Stats = true;
    } else if (Arg == "--threads") {
      if (!tools::takeValue(ArgC, ArgV, I, Value))
        return usage(ArgV[0], Fmt, "--threads expects a count");
      const std::optional<unsigned> Count = tools::parseCount(Value);
      if (!Count || *Count == 0)
        return usage(ArgV[0], Fmt, "--threads expects a positive count");
      Cfg.Threads = *Count;
    } else if (std::string Why = tools::parseCheckArg(ArgC, ArgV, I, R);
               !Why.empty()) {
      return usage(ArgV[0], Fmt, Why);
    }
  }
  const Format Fmt = R.Req.OutputFormat;
  if (R.DesignPath.empty())
    return usage(ArgV[0], Fmt, "no design file");
  if (!R.ConvertIn.empty() && R.SummariesOut.empty())
    return usage(ArgV[0], Fmt,
                 "--convert-summaries needs --summaries FILE for the output");

  // Environment-driven fault injection arms before the driver runs so
  // every site is eligible; configureFromEnv() also interns the fault.*
  // counters so they appear (at zero) in --stats output. Env first,
  // then the flag (inside the driver), so --failpoints overrides
  // WIRESORT_FAILPOINTS clause by clause.
  if (support::Status Env = support::failpoint::configureFromEnv();
      Env.hasError()) {
    emitEarly(Fmt, Env);
    return 2;
  }
  // Same contract for the wire.* serialization counters and the
  // serving layer's serve.* overload counters: interned at startup so
  // --stats enumerates them at zero even on all-text, non-served runs.
  support::wire::internCounters();
  driver::internServeCounters();

  // A CLI invocation is the one-shot corner of the request space;
  // everything else about the run — parse dispatch, engine setup, cache
  // I/O, verdicts — happens in the shared driver.
  driver::CheckResult Res = driver::runCheck(R, Cfg);
  if (!Res.Out.empty())
    std::fwrite(Res.Out.data(), 1, Res.Out.size(), stdout);
  if (!Res.Err.empty())
    std::fwrite(Res.Err.data(), 1, Res.Err.size(), stderr);
  return Res.ExitCode;
}
