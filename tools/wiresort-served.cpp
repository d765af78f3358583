//===- tools/wiresort-served.cpp - The resident check daemon --------------===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
// The daemon shell around driver::Server (docs/SERVING.md): keeps one
// CheckService — parsed designs' summaries and the content-addressed
// summary cache — resident across requests, so a re-submitted edited
// design re-infers only the modules whose structural content changed.
// Requests arrive over a Unix-domain socket and multiplex onto a
// support::ThreadPool; each runs under its own request deadline.
//
//   wiresort-served --socket /tmp/ws.sock              # serve until
//                                                      # a shutdown request
//   wiresort-served --socket /tmp/ws.sock --workers 4  # connection pool
//   wiresort-served --socket /tmp/ws.sock --threads 2  # per-request engine
//   wiresort-served --socket /tmp/ws.sock --no-cache   # cold every time
//   wiresort-served --socket /tmp/ws.sock --max-pending 8 --drain-ms 2000
//
// Prints one "listening on PATH" line to stdout once the socket is
// bound (scripts wait for it), then blocks until a `shutdown` request
// or a SIGTERM/SIGINT — the signal path drains gracefully: stop
// admitting work (new requests get retryable Busy), let in-flight
// requests finish under --drain-ms, cancel stragglers through the
// cooperative deadline, then unlink the socket, leaving no droppings
// (tools/run_tests.sh asserts that). Exit codes: 0 clean shutdown or
// drain, 2 startup failure (WS5xx).
//
//===----------------------------------------------------------------------===//

#include "CheckFlags.h"
#include "wiresort.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

using namespace wiresort;

namespace {

int usage(const char *Argv0, const std::string &Why) {
  std::fprintf(stderr, "%s\n",
               support::renderText(
                   support::Diag(support::DiagCode::WS503_USAGE, Why), nullptr)
                   .c_str());
  std::fprintf(stderr,
               "usage: %s --socket PATH [--workers N] [--threads N] "
               "[--no-cache] [--max-request-bytes N] [--max-pending N] "
               "[--read-timeout-ms N] [--write-timeout-ms N] [--drain-ms N]\n",
               Argv0);
  return 2;
}

/// Which signal asked for a graceful drain (0 = none yet). A handler
/// may only touch lock-free atomics; the main loop does the draining.
std::atomic<int> DrainSignal{0};

void onDrainSignal(int Sig) { DrainSignal.store(Sig); }

} // namespace

int main(int ArgC, char **ArgV) {
  driver::ServeOptions Opts;
  for (int I = 1; I < ArgC; ++I) {
    std::string Arg = ArgV[I];
    auto takeValue = [&](std::string &Slot) {
      if (I + 1 >= ArgC)
        return false;
      Slot = ArgV[++I];
      return true;
    };
    std::string Value;
    if (Arg == "--socket") {
      if (!takeValue(Opts.SocketPath))
        return usage(ArgV[0], "--socket expects a path");
    } else if (Arg == "--workers") {
      // 0 = one worker per core (ServeOptions::Workers).
      const std::optional<unsigned> Count =
          takeValue(Value) ? tools::parseCount(Value) : std::nullopt;
      if (!Count)
        return usage(ArgV[0], "--workers expects a count");
      Opts.Workers = *Count;
    } else if (Arg == "--threads") {
      if (!takeValue(Value))
        return usage(ArgV[0], "--threads expects a count");
      const std::optional<unsigned> Count = tools::parseCount(Value);
      if (!Count || *Count == 0)
        return usage(ArgV[0], "--threads expects a positive count");
      Opts.Engine.Threads = *Count;
    } else if (Arg == "--no-cache") {
      Opts.Engine.UseCache = false;
    } else if (Arg == "--max-request-bytes") {
      if (!takeValue(Value))
        return usage(ArgV[0], "--max-request-bytes expects a byte count");
      const std::optional<uint64_t> Bytes = tools::parseCount<uint64_t>(Value);
      if (!Bytes || *Bytes == 0)
        return usage(ArgV[0], "--max-request-bytes expects a positive count");
      Opts.MaxRequestBytes = *Bytes;
    } else if (Arg == "--max-pending") {
      // 0 = unbounded (the pre-admission-control behavior).
      const std::optional<unsigned> Count =
          takeValue(Value) ? tools::parseCount(Value) : std::nullopt;
      if (!Count)
        return usage(ArgV[0], "--max-pending expects a count");
      Opts.MaxPending = *Count;
    } else if (Arg == "--read-timeout-ms") {
      // 0 = no timeout, here and for writes.
      const std::optional<uint64_t> Ms =
          takeValue(Value) ? tools::parseCount<uint64_t>(Value) : std::nullopt;
      if (!Ms)
        return usage(ArgV[0], "--read-timeout-ms expects milliseconds");
      Opts.ReadTimeoutMs = *Ms;
    } else if (Arg == "--write-timeout-ms") {
      const std::optional<uint64_t> Ms =
          takeValue(Value) ? tools::parseCount<uint64_t>(Value) : std::nullopt;
      if (!Ms)
        return usage(ArgV[0], "--write-timeout-ms expects milliseconds");
      Opts.WriteTimeoutMs = *Ms;
    } else if (Arg == "--drain-ms") {
      if (!takeValue(Value))
        return usage(ArgV[0], "--drain-ms expects milliseconds");
      const std::optional<uint64_t> Ms = tools::parseCount<uint64_t>(Value);
      if (!Ms || *Ms == 0)
        return usage(ArgV[0], "--drain-ms expects a positive count");
      Opts.DrainDeadlineMs = *Ms;
    } else {
      return usage(ArgV[0], "unknown option '" + Arg + "'");
    }
  }
  if (Opts.SocketPath.empty())
    return usage(ArgV[0], "no --socket path");

  // Same startup contract as wiresort-check: env-armed failpoints (the
  // serving soak schedules serve.* sites this way) and the wire.* +
  // serve.* counters interned so stats report them at zero.
  if (support::Status Env = support::failpoint::configureFromEnv();
      Env.hasError()) {
    for (const support::Diag &D : Env)
      std::fprintf(stderr, "%s\n", support::renderText(D, nullptr).c_str());
    return 2;
  }
  support::wire::internCounters();
  driver::internServeCounters();

  driver::Server Server(std::move(Opts));
  if (support::Status S = Server.start(); S.hasError()) {
    for (const support::Diag &D : S)
      std::fprintf(stderr, "%s\n", support::renderText(D, nullptr).c_str());
    return 2;
  }
  // Graceful drain on the operator signals; must be installed after
  // start() (which sets SIGPIPE ignore process-wide).
  std::signal(SIGTERM, onDrainSignal);
  std::signal(SIGINT, onDrainSignal);
  std::printf("wiresort-served: listening on %s\n",
              Server.socketPath().c_str());
  std::fflush(stdout); // Scripts block on this line; don't buffer it.
  // Watch for either stop cause: a protocol shutdown request flips the
  // server's own flag; a signal lands in DrainSignal and the drain runs
  // here on the main thread, never in the handler.
  while (!Server.stopRequested() && DrainSignal.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  if (int Sig = DrainSignal.load(); Sig != 0 && !Server.stopRequested()) {
    std::printf("wiresort-served: draining on signal %d\n", Sig);
    std::fflush(stdout);
    Server.drain();
  }
  Server.wait();
  std::printf("wiresort-served: %zu connections served, shut down cleanly\n",
              Server.connectionsServed());
  return 0;
}
