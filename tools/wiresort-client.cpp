//===- tools/wiresort-client.cpp - Client for the resident daemon ---------===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// The socket-side twin of wiresort-check (docs/SERVING.md): same check
// flags, but instead of running the driver in-process it ships the
// request to a running wiresort-served daemon and replays the
// response's stdout/stderr bytes — which are byte-identical to what
// `wiresort-check` would print for the same inputs, because both sides
// run driver::CheckService (tools/run_served_golden.sh asserts that,
// byte for byte).
//
//   wiresort-client --socket /tmp/ws.sock design.blif --format json
//   wiresort-client --socket /tmp/ws.sock design.blif --check decl.wsort
//   wiresort-client --socket /tmp/ws.sock --stats     # daemon counters
//   wiresort-client --socket /tmp/ws.sock --health    # ready | draining
//   wiresort-client --socket /tmp/ws.sock --shutdown  # drain and stop
//   wiresort-client --socket /tmp/ws.sock design.blif --retries 5
//
// The design file (and any --check sidecar) is read *locally* and
// shipped inline with its path as the diagnostic name, so the daemon
// never depends on sharing a working directory with the client, and
// caret echoes still point at the right file.
//
// Transient trouble is retryable: --retries N re-dials a refused or
// missing socket and resends Busy-shed requests under decorrelated-
// jitter backoff (--retry-base-ms floors the sleeps; the jitter stream
// seeds from WIRESORT_FAILPOINT_SEED, so soak schedules replay).
// --transport-timeout-ms bounds the client-side socket I/O.
//
// Exit codes (docs/DIAGNOSTICS.md): the server-side check's own
// contract (0/1/2/3) passed through verbatim; then the transport
// dispositions, each distinguishable to scripts:
//   2  transport damage (torn/checksum-failed response) or a rejected
//      request — the client fails closed and never guesses a verdict
//   4  connection refused after all retries (daemon not listening)
//   5  socket path does not exist (stale path / daemon never started)
//   6  transport timeout (WS606: server read/write or client deadline)
//   7  server still Busy after all retries (shed or draining)
//
//===----------------------------------------------------------------------===//

#include "CheckFlags.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

using namespace wiresort;
using namespace wiresort::analysis;
using tools::emitEarly;

namespace {

int usage(const char *Argv0, Format Fmt, const std::string &Why) {
  emitEarly(Fmt, support::Diag(support::DiagCode::WS503_USAGE, Why));
  std::fprintf(stderr,
               "usage: %s --socket PATH <design.blif|design.v> "
               "[--summaries FILE] [--summary-format text|binary] "
               "[--check FILE] [--dot FILE] [--format text|json] "
               "[--quiet] [--depth] [--cache FILE] [--trace-out FILE] "
               "[--stats-line] "
               "[--timeout-ms N] [--failpoints SPEC] [--fault-seed N] "
               "[--retries N] [--retry-base-ms N] [--transport-timeout-ms N]\n"
               "       %s --socket PATH --stats | --health | --shutdown\n",
               Argv0, Argv0);
  return 2;
}

} // namespace

int main(int ArgC, char **ArgV) {
  driver::CheckRequest R;
  std::string SocketPath;
  bool WantStats = false, WantShutdown = false, WantHealth = false;
  unsigned Retries = 0;
  uint64_t RetryBaseMs = 10, TransportTimeoutMs = 0;
  for (int I = 1; I < ArgC; ++I) {
    std::string Arg = ArgV[I];
    Format Fmt = R.Req.OutputFormat;
    std::string Value;
    if (Arg == "--socket") {
      if (!tools::takeValue(ArgC, ArgV, I, SocketPath))
        return usage(ArgV[0], Fmt, "--socket expects a path");
    } else if (Arg == "--stats") {
      WantStats = true;
    } else if (Arg == "--shutdown") {
      WantShutdown = true;
    } else if (Arg == "--health") {
      WantHealth = true;
    } else if (Arg == "--retries") {
      if (!tools::takeValue(ArgC, ArgV, I, Value))
        return usage(ArgV[0], Fmt, "--retries expects a count");
      // Capped so a typo cannot spell an effectively-infinite loop.
      const std::optional<unsigned> Count = tools::parseCount(Value);
      if (!Count || *Count > 1000)
        return usage(ArgV[0], Fmt,
                     "--retries expects a count between 0 and 1000");
      Retries = *Count;
    } else if (Arg == "--retry-base-ms") {
      if (!tools::takeValue(ArgC, ArgV, I, Value))
        return usage(ArgV[0], Fmt, "--retry-base-ms expects milliseconds");
      const std::optional<uint64_t> Ms = tools::parseCount<uint64_t>(Value);
      if (!Ms || *Ms == 0)
        return usage(ArgV[0], Fmt,
                     "--retry-base-ms expects a positive millisecond count");
      RetryBaseMs = *Ms;
    } else if (Arg == "--transport-timeout-ms") {
      if (!tools::takeValue(ArgC, ArgV, I, Value))
        return usage(ArgV[0], Fmt,
                     "--transport-timeout-ms expects milliseconds");
      const std::optional<uint64_t> Ms = tools::parseCount<uint64_t>(Value);
      if (!Ms || *Ms == 0)
        return usage(ArgV[0], Fmt,
                     "--transport-timeout-ms expects a positive count");
      TransportTimeoutMs = *Ms;
    } else if (Arg == "--stats-line") {
      R.Req.Stats = true;
    } else if (std::string Why = tools::parseCheckArg(ArgC, ArgV, I, R);
               !Why.empty()) {
      return usage(ArgV[0], Fmt, Why);
    }
  }
  const Format Fmt = R.Req.OutputFormat;
  if (SocketPath.empty())
    return usage(ArgV[0], Fmt, "no --socket path");
  if ((WantStats ? 1 : 0) + (WantShutdown ? 1 : 0) + (WantHealth ? 1 : 0) > 1)
    return usage(ArgV[0], Fmt,
                 "--stats, --health, and --shutdown are mutually exclusive");

  driver::Method M = driver::Method::Check;
  if (WantStats || WantShutdown || WantHealth) {
    if (!R.DesignPath.empty())
      return usage(ArgV[0], Fmt,
                   WantStats    ? "--stats takes no design file"
                   : WantHealth ? "--health takes no design file"
                                : "--shutdown takes no design file");
    M = WantStats    ? driver::Method::Stats
        : WantHealth ? driver::Method::Health
                     : driver::Method::Shutdown;
  } else {
    if (R.DesignPath.empty())
      return usage(ArgV[0], Fmt, "no design file");
    // Ship the sources inline, named by their paths: the daemon needs
    // no shared cwd, and diagnostics (caret echoes included) come back
    // byte-identical to a local wiresort-check run on the same files.
    std::optional<std::string> Design = driver::readFile(R.DesignPath);
    if (!Design) {
      emitEarly(Fmt, support::Diag(support::DiagCode::WS501_IO_ERROR,
                                   "cannot read design file")
                         .withNote("path", R.DesignPath));
      return 2;
    }
    R.DesignText = std::move(*Design);
    R.HasInlineText = true;
    R.DesignName = R.DesignPath;
    if (!R.CheckPath.empty()) {
      std::optional<std::string> Declared = driver::readFile(R.CheckPath);
      if (!Declared) {
        emitEarly(Fmt, support::Diag(support::DiagCode::WS501_IO_ERROR,
                                     "cannot read declared-summary file")
                           .withNote("path", R.CheckPath));
        return 2;
      }
      R.CheckText = std::move(*Declared);
      R.HasInlineCheckText = true;
      M = driver::Method::Ascribe;
    }
  }

  // The client-side failpoints (client.connect.refuse) arm from the
  // environment, the same contract as the daemon and CLI.
  if (support::Status Env = support::failpoint::configureFromEnv();
      Env.hasError()) {
    emitEarly(Fmt, Env);
    return 2;
  }

  support::sock::RetryPolicy Policy;
  Policy.MaxAttempts = Retries + 1;
  Policy.BaseMs = RetryBaseMs;
  if (const char *SeedEnv = std::getenv("WIRESORT_FAILPOINT_SEED"))
    Policy.Seed = std::strtoull(SeedEnv, nullptr, 10);

  driver::Response Res =
      driver::requestWithRetry(SocketPath, M, R, Policy, TransportTimeoutMs);
  if (!Res.Ok) {
    // Fail closed, but say *how* it failed: scripts key restart logic
    // on these codes, and the WS-coded diags carry the errno evidence.
    emitEarly(Fmt, Res.Transport);
    if (Res.TimedOut)
      return 6;
    std::string Errno = Res.Transport.hasError()
                            ? Res.Transport.firstError().note("errno")
                            : "";
    if (Errno == "ECONNREFUSED")
      return 4;
    if (Errno == "ENOENT")
      return 5;
    return 2;
  }
  if (!Res.Out.empty())
    std::fwrite(Res.Out.data(), 1, Res.Out.size(), stdout);
  if (!Res.Err.empty())
    std::fwrite(Res.Err.data(), 1, Res.Err.size(), stderr);
  if (Res.Busy) {
    // Retries exhausted against a shedding/draining server: the canned
    // server line already went to stderr above; add the WS-coded diag
    // scripts key on, with the retry evidence.
    emitEarly(Fmt,
              support::Diag(support::DiagCode::WS607_SERVER_BUSY,
                            "server busy after all retries")
                  .withNote("attempts", std::to_string(Policy.MaxAttempts)));
    return 7;
  }
  if (Res.TimedOut)
    return 6; // The server's transport deadline fired on our request.
  return Res.ExitCode;
}
