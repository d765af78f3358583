//===- support/Socket.cpp - Unix-domain socket plumbing -------------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include "support/FailPoint.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace wiresort::support;
using namespace wiresort::support::sock;

namespace {

/// The symbolic spelling of \p Err for the handful of errnos callers key
/// behavior on (the client maps ECONNREFUSED vs ENOENT to distinct exit
/// codes). Everything else falls back to the number — strerror text is
/// locale-shaped and unfit for machine contracts.
std::string errnoName(int Err) {
  switch (Err) {
  case ECONNREFUSED:
    return "ECONNREFUSED";
  case ENOENT:
    return "ENOENT";
  case ENAMETOOLONG:
    return "ENAMETOOLONG";
  case EPIPE:
    return "EPIPE";
  case ECONNRESET:
    return "ECONNRESET";
  case EACCES:
    return "EACCES";
  case EAGAIN:
    return "EAGAIN";
  default:
    return "errno:" + std::to_string(Err);
  }
}

Diag ioFail(const char *Op, const std::string &Path) {
  int Err = errno;
  return Diag(DiagCode::WS501_IO_ERROR,
              std::string("socket ") + Op + " failed")
      .withNote("path", Path)
      .withNote("detail", std::strerror(Err))
      .withNote("errno", errnoName(Err));
}

Diag timeoutFail(const char *Op, size_t BytesSoFar) {
  return Diag(DiagCode::WS606_TRANSPORT_TIMEOUT,
              std::string("socket ") + Op + " deadline expired")
      .withNote("bytes", std::to_string(BytesSoFar));
}

/// Fills \p Addr for \p Path; false when the path overflows sun_path.
bool makeAddr(const std::string &Path, sockaddr_un &Addr) {
  if (Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

/// Blocks until \p Fd is ready for \p Events, the deadline fires, or an
/// unrecoverable poll error. Polls in <=100 ms ticks so a cancel() on
/// the deadline's token is honored promptly even under a long budget.
/// \returns 1 ready, 0 deadline expired, -1 poll error (errno set).
int pollUntil(int Fd, short Events, const Deadline *DL) {
  for (;;) {
    if (DL && DL->expired())
      return 0;
    pollfd P{Fd, Events, 0};
    int N = ::poll(&P, 1, /*timeout-ms=*/100);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (N > 0)
      return 1;
  }
}

/// splitmix64: the same tiny deterministic mixer the failpoint machinery
/// uses, so a (Seed, Attempt) pair always draws the same jitter.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

} // namespace

Listener::Listener(Listener &&O) noexcept
    : Fd(std::exchange(O.Fd, -1)), Path(std::move(O.Path)) {
  O.Path.clear();
}

Listener &Listener::operator=(Listener &&O) noexcept {
  if (this != &O) {
    close();
    Fd = std::exchange(O.Fd, -1);
    Path = std::move(O.Path);
    O.Path.clear();
  }
  return *this;
}

Expected<Listener> Listener::open(const std::string &Path, int Backlog) {
  sockaddr_un Addr;
  if (!makeAddr(Path, Addr)) {
    errno = ENAMETOOLONG;
    return ioFail("bind", Path);
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return ioFail("socket", Path);
  // A stale socket file from a crashed previous daemon would fail the
  // bind with EADDRINUSE even though nobody is listening; restarting
  // over it is the expected recovery, so unlink first.
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Diag D = ioFail("bind", Path);
    ::close(Fd);
    return D;
  }
  if (::listen(Fd, Backlog) != 0) {
    Diag D = ioFail("listen", Path);
    ::close(Fd);
    ::unlink(Path.c_str());
    return D;
  }
  Listener L;
  L.Fd = Fd;
  L.Path = Path;
  return L;
}

int Listener::acceptOnce(const std::atomic<bool> &Stop) {
  while (Fd >= 0 && !Stop.load(std::memory_order_acquire)) {
    pollfd P{Fd, POLLIN, 0};
    int N = ::poll(&P, 1, /*timeout-ms=*/100);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (N == 0)
      continue; // Poll tick: re-check Stop.
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn >= 0)
      return Conn;
    if (errno == EINTR || errno == ECONNABORTED)
      continue;
    return -1;
  }
  return -1;
}

void Listener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (!Path.empty()) {
    ::unlink(Path.c_str());
    Path.clear();
  }
}

Expected<int> sock::connectTo(const std::string &Path) {
  sockaddr_un Addr;
  if (!makeAddr(Path, Addr)) {
    errno = ENAMETOOLONG;
    return ioFail("connect", Path);
  }
  if (WS_FAILPOINT("client.connect.refuse")) {
    errno = ECONNREFUSED;
    return ioFail("connect", Path);
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return ioFail("socket", Path);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Diag D = ioFail("connect", Path);
    ::close(Fd);
    return D;
  }
  return Fd;
}

uint64_t sock::nextBackoffMs(const RetryPolicy &P, uint64_t PrevMs,
                             unsigned Attempt) {
  uint64_t Base = std::max<uint64_t>(P.BaseMs, 1);
  uint64_t Cap = std::max<uint64_t>(P.CapMs, Base);
  // Decorrelated jitter: uniform(Base, 3 * previous), clamped to the
  // cap. First retry (PrevMs == 0) starts from the base exactly.
  uint64_t Hi = std::max<uint64_t>(Base, 3 * std::min(PrevMs, Cap));
  uint64_t Span = Hi - Base + 1;
  uint64_t Draw = mix64(P.Seed ^ (0x5e'72'76'65ull + Attempt)) % Span;
  return std::min(Cap, Base + Draw);
}

Status sock::writeAll(int Fd, std::string_view Bytes, const Deadline *DL) {
  bool Bounded = DL && DL->active();
  size_t Off = 0;
  while (Off != Bytes.size()) {
    if (Bounded) {
      int Ready = pollUntil(Fd, POLLOUT, DL);
      if (Ready == 0)
        return timeoutFail("write", Off);
      if (Ready < 0)
        return ioFail("write", "<socket>");
    }
    ssize_t N = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return ioFail("write", "<socket>");
    }
    Off += static_cast<size_t>(N);
  }
  return {};
}

Expected<std::string> sock::readAll(int Fd, const Deadline *DL,
                                    uint64_t MaxBytes) {
  bool Bounded = DL && DL->active();
  std::string Out;
  char Buf[64 * 1024];
  for (;;) {
    // Never buffer more than MaxBytes + 1: the extra byte is the
    // oversize witness, and reading stops there — a 10 GiB request
    // costs the server cap + 1 bytes of memory, not 10 GiB. The + 1 is
    // saturating: MaxBytes == UINT64_MAX must not wrap the budget to 0
    // and turn every request into an instant empty read.
    size_t Want = sizeof(Buf);
    if (MaxBytes) {
      uint64_t Budget =
          MaxBytes < UINT64_MAX ? MaxBytes + 1 : UINT64_MAX;
      if (Out.size() >= Budget)
        return Out;
      Want = static_cast<size_t>(std::min<uint64_t>(Want, Budget - Out.size()));
    }
    if (Bounded) {
      int Ready = pollUntil(Fd, POLLIN, DL);
      if (Ready == 0)
        return timeoutFail("read", Out.size());
      if (Ready < 0)
        return ioFail("read", "<socket>");
    }
    ssize_t N = ::read(Fd, Buf, Want);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return ioFail("read", "<socket>");
    }
    if (N == 0)
      return Out;
    Out.append(Buf, static_cast<size_t>(N));
  }
}

void sock::shutdownWrite(int Fd) { ::shutdown(Fd, SHUT_WR); }

void sock::discardUntilEof(int Fd, const Deadline *DL) {
  bool Bounded = DL && DL->active();
  char Buf[64 * 1024];
  for (;;) {
    if (Bounded && pollUntil(Fd, POLLIN, DL) != 1)
      return; // Deadline expired or poll error: give up on lingering.
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return; // EOF or error: the peer is done (or gone) either way.
  }
}

void sock::closeFd(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}
