//===- support/Socket.h - Unix-domain socket plumbing -----------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fd-level plumbing under the serving layer (docs/SERVING.md): a
/// Unix-domain stream listener with a stoppable accept loop, a client
/// connect (plus a backoff-retrying variant), and the read-to-EOF /
/// write-everything helpers both sides frame wire streams over. Byte
/// transport only; framing, checksums, and trust live one layer up in
/// support/Wire.h (a socket peer is untrusted, and the reader's
/// fail-closed rules cover a torn or forged stream).
///
/// Overload safety is transport policy, so it lives here too
/// (docs/SERVING.md degradation matrix): readAll/writeAll take an
/// optional support::Deadline — polled, so a peer that stalls mid-frame
/// costs the configured budget, never a wedged thread — and readAll
/// takes a byte cap so an oversize message is cut off after cap+1
/// buffered bytes instead of being swallowed whole before anyone looks
/// at its size.
///
/// Everything reports through support::Diag (WS501_IO_ERROR with the
/// failing syscall, errno text, and a symbolic `errno` note callers can
/// key exit codes on; WS606_TRANSPORT_TIMEOUT when a deadline fires);
/// nothing here throws. The helpers never retry beyond EINTR; the
/// backoff schedule below is for callers that retry whole requests
/// (driver::requestWithRetry).
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_SOCKET_H
#define WIRESORT_SUPPORT_SOCKET_H

#include "support/Deadline.h"
#include "support/Diag.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace wiresort::support::sock {

/// A bound, listening Unix-domain stream socket. Owns both the fd and
/// the filesystem name: close() (or destruction) closes the fd and
/// unlinks the socket path, so a cleanly shut down server leaves no
/// droppings (the run_tests serving stage asserts exactly that).
class Listener {
public:
  Listener() = default;
  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;
  Listener(Listener &&O) noexcept;
  Listener &operator=(Listener &&O) noexcept;
  ~Listener() { close(); }

  /// Binds and listens on \p Path (an existing stale socket file is
  /// unlinked first — the daemon-restart case). Unix-domain socket
  /// paths are length-limited by sun_path (~107 bytes); longer paths
  /// fail with a diagnostic, not truncation.
  static Expected<Listener> open(const std::string &Path, int Backlog = 16);

  /// Waits for one connection, polling every ~100 ms so \p Stop is
  /// honored promptly. \returns the accepted fd, or -1 once \p Stop is
  /// set or the listener goes bad (the two cases a server loop treats
  /// identically: stop accepting).
  int acceptOnce(const std::atomic<bool> &Stop);

  /// Closes the fd and unlinks the socket path. Idempotent.
  void close();

  bool valid() const { return Fd >= 0; }
  const std::string &path() const { return Path; }

private:
  int Fd = -1;
  std::string Path;
};

/// Connects to the Unix-domain socket at \p Path. \returns the fd, or a
/// WS501 diagnostic (server not up, path too long, ...) whose `errno`
/// note carries the symbolic name (ECONNREFUSED, ENOENT, ...) so
/// callers can tell a daemon that died from a socket path that never
/// existed.
Expected<int> connectTo(const std::string &Path);

/// Backoff policy for the serving layer's request-level retries
/// (driver::requestWithRetry): exponential growth with decorrelated jitter
/// — sleep = min(CapMs, uniform(BaseMs, 3 * previous sleep)) — which
/// spreads a thundering herd of restarting clients without
/// synchronizing them. \c Seed makes the jitter stream deterministic
/// (the soak tier seeds it from WIRESORT_FAILPOINT_SEED); two clients
/// with different seeds draw different schedules.
struct RetryPolicy {
  unsigned MaxAttempts = 5; ///< Total tries, including the first.
  uint64_t BaseMs = 10;     ///< Floor of every backoff sleep.
  uint64_t CapMs = 2000;    ///< Ceiling of every backoff sleep.
  uint64_t Seed = 0;        ///< Jitter stream seed (deterministic).
};

/// The next decorrelated-jitter delay: min(Cap, uniform(Base, 3 *
/// \p PrevMs)) drawn deterministically from (Seed, Attempt). \p PrevMs
/// of 0 (the first retry) yields BaseMs exactly.
uint64_t nextBackoffMs(const RetryPolicy &P, uint64_t PrevMs,
                       unsigned Attempt);

/// Writes all of \p Bytes to \p Fd, retrying short writes and EINTR.
/// \returns an empty status or one diagnostic. A peer that hangs up
/// mid-write surfaces as EPIPE here (callers must ignore SIGPIPE — the
/// daemon and client mains do). An active \p DL bounds the whole write:
/// the fd is polled for writability in ~100 ms ticks and a deadline
/// that fires mid-write returns WS606_TRANSPORT_TIMEOUT with the byte
/// offset reached — the slow-reader twin of the slow-writer guard on
/// readAll.
Status writeAll(int Fd, std::string_view Bytes,
                const Deadline *DL = nullptr);

/// Reads \p Fd to EOF. Half-close is the request delimiter on both
/// sides of the serving protocol: the writer shutdownWrite()s when done
/// and the reader reads until EOF, so no length prefix is needed ahead
/// of the wire stream's own framing.
///
/// An active \p DL bounds the whole read (poll in ~100 ms ticks); a
/// stalled peer — the slow-loris case — gets WS606_TRANSPORT_TIMEOUT
/// with the bytes buffered so far, never a worker pinned forever.
///
/// A nonzero \p MaxBytes caps buffering: reading stops after at most
/// MaxBytes + 1 bytes (the +1 is the witness that the peer had more)
/// and returns them *successfully* — oversize is the caller's verdict
/// to make (`Out.size() > MaxBytes`), on a bounded buffer, not after
/// swallowing an arbitrarily large message whole.
Expected<std::string> readAll(int Fd, const Deadline *DL = nullptr,
                              uint64_t MaxBytes = 0);

/// shutdown(SHUT_WR): signals end-of-message while leaving the read
/// half open for the response.
void shutdownWrite(int Fd);

/// Reads and discards from \p Fd until EOF, a read error, or deadline
/// expiry — the lingering-close half of answering a request without
/// consuming it. AF_UNIX turns close-with-unread-bytes into ECONNRESET
/// on the peer, which destroys a response the peer had already
/// buffered; a server that sheds, rejects oversize, or times out a
/// request must drain the remainder (bounded by \p DL) before close so
/// the fail-closed verdict it wrote actually arrives.
void discardUntilEof(int Fd, const Deadline *DL = nullptr);

/// close() wrapper (EINTR-safe, ignores errors — used on the way out).
void closeFd(int Fd);

} // namespace wiresort::support::sock

#endif // WIRESORT_SUPPORT_SOCKET_H
