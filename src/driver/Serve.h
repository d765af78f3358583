//===- driver/Serve.h - The resident check service --------------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer (docs/SERVING.md): a long-lived Server keeps one
/// CheckService — and therefore one SummaryEngine and its
/// content-addressed summary cache — resident, and serves `check` /
/// `ascribe` / `stats` / `health` / `shutdown` requests over a
/// Unix-domain socket. Connections multiplex onto a support::ThreadPool;
/// each request runs under its own support::Deadline (the request's
/// TimeoutMs) through CheckService::run, so a re-submitted edited design
/// re-infers only the modules whose structural content actually changed.
///
/// Protocol (one request per connection):
///
///   client:  wire stream [StreamBegin(Serve,1) | ServeRequest |
///            StreamEnd], then shutdown(SHUT_WR)
///   server:  wire stream [StreamBegin(Serve,1) | ServeResponse |
///            StreamEnd], then close
///
/// Half-close is the message delimiter; the wire framing supplies
/// per-record checksums, so a torn or tampered message fails closed on
/// either side (the client reports transport damage and exits 2, never
/// trusts a partial verdict). Responses to `check`/`ascribe` carry the
/// byte-exact stdout/stderr of `wiresort-check` on the same inputs —
/// identity by construction, both sides run driver::CheckService.
///
/// Overload safety (docs/SERVING.md degradation matrix): every
/// connection read/write runs under a transport deadline, so a stalled
/// peer costs its budget and the worker is reclaimed (the client sees a
/// TimedOut response when the server can still say so). Admission is
/// bounded: past MaxPending in-flight requests the server sheds with a
/// retryable Busy response — written without ever reading the request —
/// and counts it (serve.shed). A draining server (SIGTERM, or drain())
/// likewise answers work requests Busy while in-flight requests finish
/// under a bounded drain deadline; `health` reports ready/draining the
/// whole time. The retrying client (requestWithRetry) treats Busy and
/// connect-refused as transient and backs off with decorrelated jitter.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_DRIVER_SERVE_H
#define WIRESORT_DRIVER_SERVE_H

#include "driver/Check.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

namespace wiresort::driver {

/// Request methods. Values are wire contract (docs/SERVING.md); never
/// renumber.
enum class Method : uint8_t {
  Check = 1,    ///< Run a check; respond with the CLI's bytes.
  Ascribe = 2,  ///< Check + inline declared-summary sidecar compare.
  Stats = 3,    ///< One NDJSON record of daemon/service counters.
  Shutdown = 4, ///< Acknowledge, then stop accepting and drain.
  Health = 5,   ///< Liveness + drain state; served even while draining.
};

/// Response status byte. Wire contract (docs/SERVING.md); never
/// renumber. Decoders fail closed on values they don't know.
enum class RespStatus : uint8_t {
  Ok = 0,       ///< Request ran; the result is the verdict.
  Rejected = 1, ///< Malformed/oversized request; not retryable.
  Busy = 2,     ///< Shed (queue full) or draining; retryable.
  TimedOut = 3, ///< Transport deadline fired server-side; retryable.
};

struct ServeOptions {
  /// Unix-domain socket path (sun_path-limited, ~107 bytes).
  std::string SocketPath;
  /// Resident-engine knobs. Per docs/SERVING.md the daemon gets its
  /// parallelism from concurrent requests, so Threads=1 per request is
  /// the intended configuration.
  analysis::EngineConfig Engine{1, true};
  /// Connection worker threads; 0 picks hardware concurrency.
  unsigned Workers = 0;
  /// Requests larger than this are rejected (status Rejected, exit 2)
  /// instead of parsed — and, since the reader stops at this cap plus
  /// one witness byte, never buffered either.
  uint64_t MaxRequestBytes = 256ull << 20;
  /// Admission bound: with this many requests already in flight, new
  /// connections are shed with a Busy response instead of queued behind
  /// them (0 = unbounded, the pre-overload-safety behavior).
  unsigned MaxPending = 64;
  /// Transport deadline on reading one request (0 = no limit). A peer
  /// that stalls mid-frame is timed out and its worker reclaimed.
  uint64_t ReadTimeoutMs = 10000;
  /// Transport deadline on writing one response (0 = no limit).
  uint64_t WriteTimeoutMs = 10000;
  /// Bound on graceful drain: how long drain() waits for in-flight
  /// requests before cancelling them through the engine's cooperative
  /// deadline machinery (they exit 3, WS601, fail closed).
  uint64_t DrainDeadlineMs = 5000;
};

/// A decoded response (client side). Transport trouble — can't connect,
/// torn stream, checksum mismatch — surfaces as Ok=false with the
/// evidence in Transport, and callers fail closed: exit 2, never a
/// guessed verdict.
struct Response {
  bool Ok = false;
  support::DiagList Transport;
  /// True when the server said "malformed/oversized request" instead of
  /// running one (status Rejected).
  bool Rejected = false;
  /// True when the server shed the request (queue full or draining);
  /// retryable — requestWithRetry backs off and resends.
  bool Busy = false;
  /// True when the server's transport deadline fired mid-request
  /// (status TimedOut), or — with Ok=false — when the *client's* own
  /// transport deadline fired (WS606 in Transport).
  bool TimedOut = false;
  int ExitCode = 2;
  size_t Errors = 0;
  size_t Modules = 0;
  bool Cancelled = false;
  std::string Out;
  std::string Err;
};

/// The daemon core, embeddable in-process (the serving tests run it on
/// a scratch socket inside the test binary — same code path as the
/// wiresort-served tool).
class Server {
public:
  explicit Server(ServeOptions Opts);
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;
  /// stop()s and joins; safe if never started.
  ~Server();

  /// Opens the listener and starts the accept thread + worker pool.
  /// \returns WS501 evidence when the socket cannot be bound.
  support::Status start();

  /// Blocks until a shutdown request arrives (or stop() is called),
  /// then drains in-flight connections and closes/unlinks the socket.
  void wait();

  /// Initiates shutdown from outside the protocol (signal handlers,
  /// tests). Idempotent.
  void stop();

  /// Graceful shutdown (the SIGTERM path): stop admitting work — new
  /// check/ascribe requests get Busy, health keeps answering
  /// "draining" — wait up to DrainDeadlineMs for in-flight work, then
  /// cancel stragglers through the drain token and stop(). Bounded:
  /// returns within roughly 2 * DrainDeadlineMs worst case. Idempotent;
  /// callers still wait() afterwards to join and unlink.
  void drain();

  const std::string &socketPath() const { return Opts.SocketPath; }
  CheckService &service() { return Service; }
  size_t connectionsServed() const { return Conns.load(); }

  /// Observability for tools/tests (also reported by health/stats).
  bool draining() const { return Draining.load(); }
  bool stopRequested() const { return StopFlag.load(); }
  size_t admittedCount() const { return Admitted.load(); }
  size_t shedCount() const { return Shed.load(); }
  size_t timedOutCount() const { return TimedOutC.load(); }

private:
  void acceptLoop();
  void serveConnection(int Fd, bool Work);
  /// Decode + dispatch one request; \returns the response stream bytes.
  /// Takes the read buffer over: it becomes the request's DesignText.
  std::string handle(std::string RequestBytes);
  std::string healthJson() const;

  ServeOptions Opts;
  CheckService Service;
  support::sock::Listener Listener;
  std::optional<ThreadPool> Pool;
  std::thread Acceptor;
  std::atomic<bool> StopFlag{false};
  std::atomic<bool> Draining{false};
  std::atomic<size_t> Conns{0};
  /// Connections currently inside serveConnection (depth the admission
  /// check sheds on).
  std::atomic<size_t> InFlight{0};
  /// The subset admitted as *work* before draining began — what drain()
  /// waits on. Health checks accepted during drain don't extend it.
  std::atomic<size_t> InFlightWork{0};
  std::atomic<size_t> Admitted{0};
  std::atomic<size_t> Shed{0};
  std::atomic<size_t> TimedOutC{0};
  /// Cancels in-flight engine runs when the drain deadline fires; every
  /// admitted check/ascribe request observes it via CheckRequest::Cancel.
  support::CancellationToken DrainKill = support::CancellationToken::create();
  std::mutex StopMutex;
  std::condition_variable StopCv;
  bool Started = false;
};

/// One client request: connect, send, half-close, read to EOF, decode —
/// fail closed on any transport or framing damage. \p M selects the
/// method; \p R is consulted for Check/Ascribe (ignored for
/// Stats/Shutdown/Health). A nonzero \p TransportTimeoutMs bounds the
/// client-side write and read (WS606 in Transport, TimedOut set, on
/// expiry). If the request write breaks early (EPIPE — the server shed
/// or rejected without reading it all), the already-buffered response is
/// still read and decoded, so Busy/Rejected reach the caller instead of
/// a bare broken pipe.
Response requestOnce(const std::string &SocketPath, Method M,
                     const CheckRequest &R = {},
                     uint64_t TransportTimeoutMs = 0);

/// requestOnce with the transient failures retried under \p P's
/// decorrelated-jitter backoff: connect refused / socket path missing
/// (daemon restarting) and Busy responses (shed or draining). Rejected,
/// TimedOut, and transport damage are not retried — resending a
/// malformed or torn request cannot help. \returns the last attempt's
/// Response; callers distinguish "busy-exhausted" by Ok && Busy.
Response requestWithRetry(const std::string &SocketPath, Method M,
                          const CheckRequest &R,
                          const support::sock::RetryPolicy &P,
                          uint64_t TransportTimeoutMs = 0);

/// Interns the serve.* counters/histograms (serve.admitted, serve.shed,
/// serve.timed_out, serve.queue_depth) so --stats enumerates them at
/// zero before any serving traffic — the same contract
/// wire::internCounters gives the transport counters.
void internServeCounters();

// --- Wire codecs (exposed for the serving tests) ----------------------------

/// Composes the complete request stream for \p M / \p R.
std::string encodeRequest(Method M, const CheckRequest &R);

/// Decodes a request stream. \returns false (with \p Why) on any
/// framing or schema damage — the server rejects, never guesses.
bool decodeRequest(std::string_view Bytes, Method &M, CheckRequest &R,
                   std::string &Why);

/// decodeRequest for a caller that hands its buffer over (the server's
/// read buffer): on success the design text moves to the front of
/// \p Bytes, which becomes R.DesignText, so the largest field is never
/// copied into a fresh buffer. On failure \p Bytes is left as it was.
bool decodeRequest(std::string &&Bytes, Method &M, CheckRequest &R,
                   std::string &Why);

/// Composes the complete response stream; \p Status stamps the
/// status byte (Rejected/Busy/TimedOut responses carry the evidence in
/// Res.Err and an exit code of 2).
std::string encodeResponse(const CheckResult &Res, RespStatus Status);

/// Decodes a response stream into \p Out. \returns false (with \p Why)
/// on framing or schema damage — including a status byte this build
/// doesn't know; \p Out is then unusable.
bool decodeResponse(std::string_view Bytes, Response &Out, std::string &Why);

} // namespace wiresort::driver

#endif // WIRESORT_DRIVER_SERVE_H
