//===- driver/Serve.cpp - The resident check service ----------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "driver/Serve.h"

#include "support/FailPoint.h"
#include "support/Trace.h"
#include "support/Wire.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

using namespace wiresort;
using namespace wiresort::driver;
using namespace wiresort::support;

namespace {

/// Serve payload schema version carried by the StreamBegin record
/// (docs/SERVING.md). The framing versions separately (wire format v1).
/// Still 1: the status byte grew values additively (Busy/TimedOut) and
/// old decoders fail closed on them, which is the contract.
constexpr uint64_t ServePayloadVersion = 1;

/// Request varints after the fault seed that once carried the shard
/// count and the --shard I/N slice. They keep the record layout stable:
/// encodeRequest writes 0 and decodeRequest rejects anything else, so an
/// older client asking for shards is refused rather than silently
/// served the whole design.
constexpr int ReservedSlots = 3;

/// Request flag bits (one byte on the wire).
enum : uint8_t {
  FlagQuiet = 1 << 0,
  FlagShowDepth = 1 << 1,
  FlagBinarySummaries = 1 << 2,
  FlagInlineText = 1 << 3,
  FlagInlineCheckText = 1 << 4,
  FlagStats = 1 << 5,
};

// Overload counters (docs/OBSERVABILITY.md). Like every trace counter
// they only accumulate inside a collection session; the Server keeps
// its own atomics for health/stats reporting.
trace::Counter &admittedC() {
  static trace::Counter &C = trace::counter("serve.admitted");
  return C;
}
trace::Counter &shedC() {
  static trace::Counter &C = trace::counter("serve.shed");
  return C;
}
trace::Counter &timedOutC() {
  static trace::Counter &C = trace::counter("serve.timed_out");
  return C;
}
trace::Histogram &queueDepthH() {
  static trace::Histogram &H = trace::histogram("serve.queue_depth");
  return H;
}

/// Extracts the one payload record of kind \p Want from a serve stream,
/// enforcing the fail-closed rules shared by both directions: correct
/// StreamBegin, exactly one payload record, a clean StreamEnd, and no
/// framing damage anywhere. \returns false with \p Why otherwise.
bool readServeStream(wire::RecordKind Want, wire::Reader &R,
                     wire::Reader::Record &Payload, std::string &Why) {
  if (!R.readHeader(&Why))
    return false;
  bool SawBegin = false, SawPayload = false;
  for (;;) {
    wire::Reader::Record Rec;
    switch (R.next(Rec)) {
    case wire::Reader::Item::End:
      if (!SawPayload)
        Why = "stream ended without a payload record";
      return SawPayload;
    case wire::Reader::Item::Exhausted:
      Why = "stream truncated before StreamEnd";
      return false;
    case wire::Reader::Item::Truncated:
      Why = "record truncated";
      return false;
    case wire::Reader::Item::Corrupt:
      Why = "record checksum mismatch";
      return false;
    case wire::Reader::Item::Record:
      break;
    }
    if (Rec.Kind == wire::RecordKind::StreamBegin) {
      wire::Reader::Cursor C(Rec, R);
      uint8_t Kind = 0;
      uint64_t Version = 0;
      if (!C.getByte(Kind) || !C.getVarint(Version) ||
          Kind != static_cast<uint8_t>(wire::StreamKind::Serve)) {
        Why = "not a serve stream (wrong stream kind)";
        return false;
      }
      if (Version > ServePayloadVersion) {
        Why = "serve protocol version " + std::to_string(Version) +
              " is newer than this build understands";
        return false;
      }
      SawBegin = true;
      continue;
    }
    if (Rec.Kind != Want)
      continue; // Forward compat: skip record kinds we don't know.
    if (!SawBegin) {
      Why = "payload record before StreamBegin";
      return false;
    }
    if (SawPayload) {
      Why = "more than one payload record";
      return false;
    }
    SawPayload = true;
    Payload = Rec;
  }
}

/// A canned non-Ok response stream: exit 2, one stderr line.
std::string cannedResponse(RespStatus Status, const std::string &Line) {
  CheckResult Res;
  Res.ExitCode = 2;
  Res.Errors = 1;
  Res.Err = "wiresort-served: " + Line + "\n";
  return encodeResponse(Res, Status);
}

} // namespace

// --- Codecs -----------------------------------------------------------------

std::string driver::encodeRequest(Method M, const CheckRequest &R) {
  wire::Writer W;
  W.beginStream(wire::StreamKind::Serve, ServePayloadVersion);
  W.beginRecord(wire::RecordKind::ServeRequest);
  W.putByte(static_cast<uint8_t>(M));
  W.putByte(static_cast<uint8_t>(R.Req.OutputFormat));
  uint8_t Flags = 0;
  if (R.Quiet)
    Flags |= FlagQuiet;
  if (R.ShowDepth)
    Flags |= FlagShowDepth;
  if (R.BinarySummaries)
    Flags |= FlagBinarySummaries;
  if (R.HasInlineText)
    Flags |= FlagInlineText;
  if (R.HasInlineCheckText)
    Flags |= FlagInlineCheckText;
  if (R.Req.Stats)
    Flags |= FlagStats;
  W.putByte(Flags);
  W.putVarint(R.Req.TimeoutMs);
  W.putVarint(R.Req.FaultSeed);
  for (int I = 0; I != ReservedSlots; ++I)
    W.putVarint(0);
  W.putString(R.DesignPath);
  W.putString(R.DesignName);
  W.putString(R.Req.CachePath);
  W.putString(R.Req.TraceOutPath);
  W.putString(R.Req.FailpointSpec);
  W.putString(R.SummariesOut);
  W.putString(R.CheckPath);
  W.putString(R.DotPath);
  W.putString(R.ConvertIn);
  W.putBytes(R.DesignText);
  W.putBytes(R.CheckText);
  W.endRecord();
  W.finish();
  return W.take();
}

namespace {

/// Both decodeRequest overloads: decodes every field of \p R except
/// DesignText, and points \p DesignText at the design text in \p Bytes.
bool decodeRequestFields(std::string_view Bytes, Method &M, CheckRequest &R,
                         std::string_view &DesignText, std::string &Why) {
  wire::Reader Reader(Bytes);
  wire::Reader::Record Rec;
  if (!readServeStream(wire::RecordKind::ServeRequest, Reader, Rec, Why))
    return false;
  wire::Reader::Cursor C(Rec, Reader);
  uint8_t Meth = 0, Fmt = 0, Flags = 0;
  uint64_t TimeoutMs = 0, Seed = 0, Reserved[ReservedSlots] = {};
  std::string_view DesignPath, DesignName, CachePath, TraceOut, Failpoints,
      SummariesOut, CheckPath, DotPath, ConvertIn, CheckText;
  if (!C.getByte(Meth) || !C.getByte(Fmt) || !C.getByte(Flags) ||
      !C.getVarint(TimeoutMs) || !C.getVarint(Seed) ||
      !C.getVarint(Reserved[0]) || !C.getVarint(Reserved[1]) ||
      !C.getVarint(Reserved[2]) ||
      !C.getString(DesignPath) || !C.getString(DesignName) ||
      !C.getString(CachePath) || !C.getString(TraceOut) ||
      !C.getString(Failpoints) || !C.getString(SummariesOut) ||
      !C.getString(CheckPath) || !C.getString(DotPath) ||
      !C.getString(ConvertIn) || !C.getBytes(DesignText) ||
      !C.getBytes(CheckText)) {
    Why = "malformed request record";
    return false;
  }
  if (Meth < static_cast<uint8_t>(Method::Check) ||
      Meth > static_cast<uint8_t>(Method::Health)) {
    Why = "unknown method " + std::to_string(Meth);
    return false;
  }
  if (Fmt > static_cast<uint8_t>(analysis::Format::Json)) {
    Why = "unknown output format " + std::to_string(Fmt);
    return false;
  }
  for (uint64_t Slot : Reserved)
    if (Slot != 0) {
      Why = "reserved request field is set (sharded and sliced requests "
            "are no longer served)";
      return false;
    }
  M = static_cast<Method>(Meth);
  R = CheckRequest();
  R.Req.OutputFormat = static_cast<analysis::Format>(Fmt);
  R.Quiet = Flags & FlagQuiet;
  R.ShowDepth = Flags & FlagShowDepth;
  R.BinarySummaries = Flags & FlagBinarySummaries;
  R.HasInlineText = Flags & FlagInlineText;
  R.HasInlineCheckText = Flags & FlagInlineCheckText;
  R.Req.Stats = Flags & FlagStats;
  R.Req.TimeoutMs = TimeoutMs;
  R.Req.FaultSeed = Seed;
  R.DesignPath = std::string(DesignPath);
  R.DesignName = std::string(DesignName);
  R.Req.CachePath = std::string(CachePath);
  R.Req.TraceOutPath = std::string(TraceOut);
  R.Req.FailpointSpec = std::string(Failpoints);
  R.SummariesOut = std::string(SummariesOut);
  R.CheckPath = std::string(CheckPath);
  R.DotPath = std::string(DotPath);
  R.ConvertIn = std::string(ConvertIn);
  R.CheckText = std::string(CheckText);
  return true;
}

} // namespace

bool driver::decodeRequest(std::string_view Bytes, Method &M, CheckRequest &R,
                           std::string &Why) {
  std::string_view DesignText;
  if (!decodeRequestFields(Bytes, M, R, DesignText, Why))
    return false;
  R.DesignText = std::string(DesignText);
  return true;
}

bool driver::decodeRequest(std::string &&Bytes, Method &M, CheckRequest &R,
                           std::string &Why) {
  std::string_view DesignText;
  if (!decodeRequestFields(Bytes, M, R, DesignText, Why))
    return false;
  // Every other field is a copy by now, so the buffer is free to hold
  // the design text alone: move it to the front and hand the buffer
  // over.
  const size_t Size = DesignText.size();
  std::memmove(Bytes.data(), DesignText.data(), Size);
  Bytes.resize(Size);
  R.DesignText = std::move(Bytes);
  return true;
}

std::string driver::encodeResponse(const CheckResult &Res, RespStatus Status) {
  wire::Writer W;
  W.beginStream(wire::StreamKind::Serve, ServePayloadVersion);
  W.beginRecord(wire::RecordKind::ServeResponse);
  W.putByte(static_cast<uint8_t>(Status));
  W.putVarint(static_cast<uint64_t>(Res.ExitCode));
  W.putVarint(Res.Errors);
  W.putVarint(Res.Modules);
  W.putByte(Res.Cancelled ? 1 : 0);
  W.putBytes(Res.Out);
  W.putBytes(Res.Err);
  W.endRecord();
  W.finish();
  return W.take();
}

bool driver::decodeResponse(std::string_view Bytes, Response &Out,
                            std::string &Why) {
  wire::Reader Reader(Bytes);
  wire::Reader::Record Rec;
  if (!readServeStream(wire::RecordKind::ServeResponse, Reader, Rec, Why))
    return false;
  wire::Reader::Cursor C(Rec, Reader);
  uint8_t Status = 0, Cancelled = 0;
  uint64_t Exit = 0, Errors = 0, Modules = 0;
  std::string_view Stdout, Stderr;
  if (!C.getByte(Status) || !C.getVarint(Exit) || !C.getVarint(Errors) ||
      !C.getVarint(Modules) || !C.getByte(Cancelled) ||
      !C.getBytes(Stdout) || !C.getBytes(Stderr)) {
    Why = "malformed response record";
    return false;
  }
  if (Status > static_cast<uint8_t>(RespStatus::TimedOut)) {
    // Fail closed on status bytes from the future: a verdict whose
    // disposition we can't name is no verdict.
    Why = "unknown response status " + std::to_string(Status);
    return false;
  }
  Out.Ok = true;
  Out.Rejected = Status == static_cast<uint8_t>(RespStatus::Rejected);
  Out.Busy = Status == static_cast<uint8_t>(RespStatus::Busy);
  Out.TimedOut = Status == static_cast<uint8_t>(RespStatus::TimedOut);
  Out.ExitCode = static_cast<int>(Exit);
  Out.Errors = Errors;
  Out.Modules = Modules;
  Out.Cancelled = Cancelled != 0;
  Out.Out = std::string(Stdout);
  Out.Err = std::string(Stderr);
  return true;
}

// --- Server -----------------------------------------------------------------

Server::Server(ServeOptions Opts)
    : Opts(std::move(Opts)), Service(this->Opts.Engine) {}

Server::~Server() {
  stop();
  if (Acceptor.joinable())
    Acceptor.join();
  // ThreadPool's destructor drains queued connections before joining.
  Pool.reset();
  Listener.close();
}

support::Status Server::start() {
  // A client that hangs up mid-response turns our write into EPIPE, not
  // process death. Process-wide, like every SIG_IGN; the CLI tools never
  // rely on SIGPIPE either.
  std::signal(SIGPIPE, SIG_IGN);
  auto L = sock::Listener::open(Opts.SocketPath);
  if (!L)
    return L.diags();
  Listener = std::move(*L);
  Pool.emplace(Opts.Workers);
  Acceptor = std::thread([this] { acceptLoop(); });
  Started = true;
  return {};
}

void Server::acceptLoop() {
  while (!StopFlag.load(std::memory_order_acquire)) {
    int Fd = Listener.acceptOnce(StopFlag);
    if (Fd < 0)
      break; // Stopped, or the listener went bad: either way, stop.
    Conns.fetch_add(1);
    size_t Depth = InFlight.load(std::memory_order_relaxed);
    // Admission control: past the bound, shed *before* reading the
    // request — a tiny canned Busy write the kernel buffers whole, so
    // even a dead-slow shed client cannot pin this thread for long.
    bool Full = Opts.MaxPending != 0 && Depth >= Opts.MaxPending;
    if (Full || WS_FAILPOINT("serve.admit.full")) {
      Shed.fetch_add(1);
      shedC().add();
      // The shed write+linger runs on this (the acceptor) thread, and
      // shedding happens exactly when admission is hot — so its budget
      // must be tight, or each stalled shed client serializes accept()
      // behind it and the overload protection becomes the bottleneck.
      // 100ms is plenty: the canned response is ~100 bytes the kernel
      // buffers whole; only the lingering drain ever waits.
      Deadline WDL = Deadline::afterMs(
          std::min<uint64_t>(Opts.WriteTimeoutMs ? Opts.WriteTimeoutMs : 100,
                             100));
      (void)sock::writeAll(Fd, cannedResponse(RespStatus::Busy,
                                              "busy: admission queue full"),
                           &WDL);
      // Lingering close: we answered without reading the request, and
      // close-with-unread-bytes resets the peer before it can read the
      // Busy verdict we just buffered. Drain (bounded) until the client
      // half-closes, then close.
      sock::shutdownWrite(Fd);
      sock::discardUntilEof(Fd, &WDL);
      sock::closeFd(Fd);
      continue;
    }
    Admitted.fetch_add(1);
    admittedC().add();
    queueDepthH().record(Depth);
    InFlight.fetch_add(1);
    // Work admitted before draining began is what drain() waits on;
    // connections accepted *during* drain (health probes, and work that
    // will be answered Busy) must not extend the drain.
    bool Work = !Draining.load(std::memory_order_acquire);
    if (Work)
      InFlightWork.fetch_add(1);
    Pool->submit([this, Fd, Work] { serveConnection(Fd, Work); });
  }
}

void Server::serveConnection(int Fd, bool Work) {
  // Always run the read under a live-token deadline: ReadTimeoutMs
  // bounds real stalls, and the serve.read.stall failpoint cancels the
  // token to make "the peer stalled" a deterministic, instant event
  // instead of a slept-through timeout.
  Deadline ReadDL = Deadline::afterMs(Opts.ReadTimeoutMs);
  if (WS_FAILPOINT("serve.read.stall"))
    ReadDL.cancel();
  auto Request = sock::readAll(Fd, &ReadDL, Opts.MaxRequestBytes);
  if (!Request) {
    bool TimedOut =
        Request.diags().hasError() &&
        Request.diags().firstError().code() == DiagCode::WS606_TRANSPORT_TIMEOUT;
    if (TimedOut) {
      // Slow loris: reclaim the worker, tell the peer (it may still be
      // alive and reading), count it. The canned reply gets its own
      // write deadline, starting now.
      TimedOutC.fetch_add(1);
      timedOutC().add();
      Deadline ReplyDL = Deadline::afterMs(Opts.WriteTimeoutMs);
      (void)sock::writeAll(
          Fd, cannedResponse(RespStatus::TimedOut, "request read timed out"),
          &ReplyDL);
      // The request was *not* consumed to EOF (that's why we're here);
      // linger so the close does not reset away the TimedOut verdict.
      sock::shutdownWrite(Fd);
      sock::discardUntilEof(Fd, &ReplyDL);
    }
    // Otherwise the client died mid-request (the soak's
    // kill-mid-request case): there is nobody to answer.
    sock::closeFd(Fd);
    InFlight.fetch_sub(1);
    if (Work)
      InFlightWork.fetch_sub(1);
    return;
  }
  std::string ResponseBytes = handle(std::move(*Request));
  // A worker wedged after the work is done (the serve.drain.hang site)
  // must not outlive a bounded drain: it parks until the drain kill
  // token or stop() releases it.
  if (WS_FAILPOINT("serve.drain.hang"))
    while (!DrainKill.cancelled() &&
           !StopFlag.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // WriteTimeoutMs bounds only the response write, so it starts *after*
  // handle() returns: a legitimate request whose compute outlasts the
  // write budget must not reach writeAll with an already-expired
  // deadline (that would silently discard the response and hand the
  // client a non-retryable empty read).
  Deadline WriteDL = Deadline::afterMs(Opts.WriteTimeoutMs);
  // Serving-layer fault sites (docs/SERVING.md degradation matrix): a
  // dropped or truncated response must fail *closed* on the client —
  // transport damage, exit 2 — never decode as a verdict.
  if (WS_FAILPOINT("serve.response.drop")) {
    sock::closeFd(Fd);
  } else if (WS_FAILPOINT("serve.response.truncate")) {
    (void)sock::writeAll(
        Fd, std::string_view(ResponseBytes).substr(0, ResponseBytes.size() / 2),
        &WriteDL);
    sock::closeFd(Fd);
  } else {
    // EPIPE = client gone; a WS606 here = client stopped reading: either
    // way the worker is reclaimed.
    (void)sock::writeAll(Fd, ResponseBytes, &WriteDL);
    // An oversize request was cut off at cap + 1, so its remainder is
    // still inbound; drain it (bounded) so the close does not reset
    // away the Rejected verdict. Fully-consumed requests hit EOF on the
    // first discard read — free.
    sock::shutdownWrite(Fd);
    sock::discardUntilEof(Fd, &WriteDL);
    sock::closeFd(Fd);
  }
  InFlight.fetch_sub(1);
  if (Work)
    InFlightWork.fetch_sub(1);
}

std::string Server::healthJson() const {
  return std::string("{\"type\":\"served-health\",\"state\":\"") +
         (Draining.load() ? "draining" : "ready") +
         "\",\"in_flight\":" + std::to_string(InFlight.load()) +
         ",\"admitted\":" + std::to_string(Admitted.load()) +
         ",\"shed\":" + std::to_string(Shed.load()) +
         ",\"timed_out\":" + std::to_string(TimedOutC.load()) + "}\n";
}

std::string Server::handle(std::string RequestBytes) {
  auto reject = [](const std::string &Why) {
    CheckResult Res;
    Res.ExitCode = 2;
    Res.Errors = 1;
    Res.Err = "wiresort-served: request rejected: " + Why + "\n";
    return encodeResponse(Res, RespStatus::Rejected);
  };
  // The transport reader stops at MaxRequestBytes + 1, so an oversize
  // request reaches here as exactly cap + 1 buffered bytes — same
  // verdict bytes as before the cap existed, bounded memory now.
  if (RequestBytes.size() > Opts.MaxRequestBytes)
    return reject("request exceeds " + std::to_string(Opts.MaxRequestBytes) +
                  " bytes");

  Method M = Method::Check;
  CheckRequest R;
  std::string Why;
  if (!decodeRequest(std::move(RequestBytes), M, R, Why))
    return reject(Why);

  // Health answers in every state — it is how operators watch a drain.
  if (M == Method::Health) {
    CheckResult Res;
    Res.Out = healthJson();
    return encodeResponse(Res, RespStatus::Ok);
  }
  // A draining server sheds work instead of starting what it might have
  // to cancel; Busy is retryable, and the restarted daemon (or a
  // sibling) will take the retry. Stats still reports, and Shutdown is
  // acknowledged Ok — the daemon *is* stopping, so answering Busy would
  // send `wiresort-client --shutdown` into pointless retries (exit 7)
  // against a dying server.
  if (Draining.load(std::memory_order_acquire) && M != Method::Stats &&
      M != Method::Shutdown) {
    CheckResult Res;
    Res.ExitCode = 2;
    Res.Errors = 1;
    Res.Err = "wiresort-served: busy: draining\n";
    return encodeResponse(Res, RespStatus::Busy);
  }

  switch (M) {
  case Method::Check:
  case Method::Ascribe: {
    // Thread the drain kill through the run: a bounded drain cancels
    // stragglers cooperatively (WS601, exit 3, fail closed).
    R.Cancel = DrainKill;
    CheckResult Res = Service.run(R);
    return encodeResponse(Res, RespStatus::Ok);
  }
  case Method::Stats: {
    CheckResult Res;
    analysis::SummaryCache &Cache = Service.engine().cache();
    Res.Out = "{\"type\":\"served-stats\",\"requests\":" +
              std::to_string(Service.requestsServed()) +
              ",\"connections\":" + std::to_string(Conns.load()) +
              ",\"cache_entries\":" + std::to_string(Cache.size()) +
              ",\"cache_hits\":" + std::to_string(Cache.hits()) +
              ",\"cache_misses\":" + std::to_string(Cache.misses()) +
              ",\"parse_entries\":" +
              std::to_string(Service.parseCache().size()) +
              ",\"parse_hits\":" +
              std::to_string(Service.parseCache().hits()) +
              ",\"parse_misses\":" +
              std::to_string(Service.parseCache().misses()) +
              ",\"admitted\":" + std::to_string(Admitted.load()) +
              ",\"shed\":" + std::to_string(Shed.load()) +
              ",\"timed_out\":" + std::to_string(TimedOutC.load()) +
              ",\"draining\":" + (Draining.load() ? "true" : "false") +
              ",\"workers\":" +
              std::to_string(Pool ? Pool->numThreads() : 0) + "}\n";
    return encodeResponse(Res, RespStatus::Ok);
  }
  case Method::Shutdown: {
    // Flag first, respond second: the accept loop stops while this
    // worker still writes the acknowledgement; in-flight requests
    // drain before wait() returns.
    stop();
    CheckResult Res;
    Res.Out = "wiresort-served: shutting down\n";
    return encodeResponse(Res, RespStatus::Ok);
  }
  case Method::Health:
    break; // Handled above.
  }
  return reject("unreachable method");
}

void Server::stop() {
  StopFlag.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(StopMutex);
  StopCv.notify_all();
}

void Server::drain() {
  bool Expected = false;
  if (!Draining.compare_exchange_strong(Expected, true))
    return; // Already draining (second SIGTERM): the first drain wins.
  using Clock = std::chrono::steady_clock;
  auto SpinUntil = [this](Clock::time_point End) {
    while (InFlightWork.load(std::memory_order_acquire) != 0 &&
           Clock::now() < End)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  // Phase 1: polite — let in-flight work finish on its own.
  SpinUntil(Clock::now() + std::chrono::milliseconds(Opts.DrainDeadlineMs));
  if (InFlightWork.load(std::memory_order_acquire) != 0) {
    // Phase 2: firm — cancel stragglers through the engine's
    // cooperative deadline (they exit 3, WS601) and give them a short
    // grace to unwind; the whole drain stays bounded either way.
    DrainKill.cancel();
    SpinUntil(Clock::now() +
              std::chrono::milliseconds(
                  std::min<uint64_t>(Opts.DrainDeadlineMs, 1000)));
  }
  stop();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> Lock(StopMutex);
    StopCv.wait(Lock, [this] {
      return StopFlag.load(std::memory_order_acquire);
    });
  }
  if (Acceptor.joinable())
    Acceptor.join();
  // Workers still parked on the drain-hang site must see the kill token
  // even when stop() was reached without drain() (protocol shutdown).
  DrainKill.cancel();
  if (Pool)
    Pool->wait(); // Drain in-flight connections.
  Listener.close(); // Close + unlink: a clean exit leaves no socket file.
}

void driver::internServeCounters() {
  admittedC();
  shedC();
  timedOutC();
  queueDepthH();
}

// --- Client -----------------------------------------------------------------

Response driver::requestOnce(const std::string &SocketPath, Method M,
                             const CheckRequest &R,
                             uint64_t TransportTimeoutMs) {
  Response Out;
  auto Fd = sock::connectTo(SocketPath);
  if (!Fd) {
    Out.Transport.append(Fd.diags());
    return Out;
  }
  Deadline DL = TransportTimeoutMs != 0
                    ? Deadline::afterMs(TransportTimeoutMs)
                    : Deadline();
  const Deadline *DLPtr = DL.active() ? &DL : nullptr;
  std::string RequestBytes = encodeRequest(M, R);
  support::Status W = sock::writeAll(*Fd, RequestBytes, DLPtr);
  sock::shutdownWrite(*Fd);
  // Read even after a broken write: a server that shed (Busy) or
  // rejected early closes without reading our whole request, but its
  // response is already buffered on our side — Unix sockets deliver it
  // despite the EPIPE — and that response, not the pipe error, is the
  // actionable verdict.
  auto ResponseBytes = sock::readAll(*Fd, DLPtr);
  sock::closeFd(*Fd);
  std::string Why;
  if (ResponseBytes && !ResponseBytes->empty() &&
      decodeResponse(*ResponseBytes, Out, Why))
    return Out;
  if (W.hasError()) {
    Out.Ok = false;
    Out.Transport.append(W);
  } else if (!ResponseBytes) {
    Out.Transport.append(ResponseBytes.diags());
  } else {
    // Fail closed: a torn/tampered response is transport damage with
    // the evidence attached, never a verdict.
    Out.Ok = false;
    Out.Transport.add(
        support::Diag(support::DiagCode::WS501_IO_ERROR,
                      "malformed response from wiresort-served")
            .withNote("path", SocketPath)
            .withNote("detail", Why.empty() ? "empty response" : Why));
  }
  if (Out.Transport.hasError() &&
      Out.Transport.firstError().code() == DiagCode::WS606_TRANSPORT_TIMEOUT)
    Out.TimedOut = true;
  return Out;
}

Response driver::requestWithRetry(const std::string &SocketPath, Method M,
                                  const CheckRequest &R,
                                  const sock::RetryPolicy &P,
                                  uint64_t TransportTimeoutMs) {
  unsigned Attempts = std::max(P.MaxAttempts, 1u);
  uint64_t SleepMs = 0;
  for (unsigned A = 0;; ++A) {
    Response Out = requestOnce(SocketPath, M, R, TransportTimeoutMs);
    bool Retryable = false;
    if (Out.Ok) {
      // Busy is the server's explicit "come back later".
      Retryable = Out.Busy;
    } else if (Out.Transport.hasError()) {
      // Refused or missing socket: the daemon is restarting.
      std::string E = Out.Transport.firstError().note("errno");
      Retryable = E == "ECONNREFUSED" || E == "ENOENT";
    }
    if (!Retryable || A + 1 >= Attempts)
      return Out;
    SleepMs = sock::nextBackoffMs(P, SleepMs, A);
    std::this_thread::sleep_for(std::chrono::milliseconds(SleepMs));
  }
}
