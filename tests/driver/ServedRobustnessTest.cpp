//===- tests/driver/ServedRobustnessTest.cpp - Overload-safety suite ------===//
//
// Part of the wiresort project. The overload-safety acceptance bar for
// the serving layer (docs/SERVING.md degradation matrix): transport
// deadlines reclaim workers from stalled peers, the byte cap bounds
// what an oversize request can make the daemon buffer, admission
// control sheds with retryable Busy instead of queueing without bound,
// graceful drain finishes inside its deadline while health keeps
// answering, and the retrying client converges on every transient
// schedule. Ends in a 200-seed overload soak mixing all of it.
//
//===----------------------------------------------------------------------===//

#include "driver/Check.h"
#include "driver/Serve.h"

#include "support/FailPoint.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <thread>
#include <vector>

using namespace wiresort;
using namespace wiresort::driver;
using support::Deadline;
namespace sock = support::sock;

namespace {

const char *LoopFree = ".model passthrough\n"
                       ".inputs a\n"
                       ".outputs y\n"
                       ".names a y\n"
                       "1 1\n"
                       ".end\n";

CheckRequest inlineRequest(const char *Text, const std::string &Name) {
  CheckRequest R;
  R.DesignText = Text;
  R.HasInlineText = true;
  R.DesignName = Name;
  R.Req.OutputFormat = analysis::Format::Json;
  return R;
}

/// Arms a spec and guarantees disarm on scope exit (the registry is
/// process-global; a leaked schedule poisons later tests).
struct ArmedSchedule {
  explicit ArmedSchedule(const std::string &Spec, uint64_t Seed = 0) {
    EXPECT_FALSE(support::failpoint::configure(Spec, Seed).hasError());
  }
  ~ArmedSchedule() { support::failpoint::disarmAll(); }
};

} // namespace

// --- Transport-level: the byte cap and the deadlines ------------------------

TEST(ServedRobustness, ReadAllBuffersAtMostCapPlusOneByte) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // A 10x-oversize message: the reader must stop at cap + 1 buffered
  // bytes — the one extra byte is the oversize witness — instead of
  // swallowing all of it (the oversize-request memory hole).
  constexpr uint64_t Cap = 4096;
  std::string Big(10 * Cap, 'x');
  std::thread Writer([&] {
    ASSERT_FALSE(sock::writeAll(Fds[1], Big).hasError());
    sock::shutdownWrite(Fds[1]);
  });
  auto Got = sock::readAll(Fds[0], nullptr, Cap);
  ASSERT_TRUE(Got.hasValue()) << Got.describe();
  EXPECT_EQ(Got->size(), Cap + 1);
  Writer.join();
  sock::closeFd(Fds[0]);
  sock::closeFd(Fds[1]);
}

TEST(ServedRobustness, ReadAllUnboundedCapDoesNotWrapToZero) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // MaxBytes == UINT64_MAX (--max-request-bytes at the type maximum):
  // the cap + 1 witness budget must saturate, not wrap to 0 — a wrapped
  // budget returns an instant empty "success" and every request decodes
  // as malformed.
  std::thread Writer([&] {
    ASSERT_FALSE(sock::writeAll(Fds[1], "hello").hasError());
    sock::shutdownWrite(Fds[1]);
  });
  auto Got = sock::readAll(Fds[0], nullptr, UINT64_MAX);
  ASSERT_TRUE(Got.hasValue()) << Got.describe();
  EXPECT_EQ(*Got, "hello");
  Writer.join();
  sock::closeFd(Fds[0]);
  sock::closeFd(Fds[1]);
}

TEST(ServedRobustness, ReadAllDeadlineExpiresOnStalledPeer) {
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  // Half a message, then silence: the slow-loris shape. The read must
  // come back WS606 with the bytes buffered so far, not hang.
  ASSERT_FALSE(sock::writeAll(Fds[1], "half").hasError());
  Deadline DL = Deadline::afterMs(150);
  auto Got = sock::readAll(Fds[0], &DL);
  ASSERT_FALSE(Got.hasValue());
  const support::Diag &D = Got.diags().firstError();
  EXPECT_EQ(D.code(), support::DiagCode::WS606_TRANSPORT_TIMEOUT);
  EXPECT_EQ(D.note("bytes"), "4");
  sock::closeFd(Fds[0]);
  sock::closeFd(Fds[1]);
}

TEST(ServedRobustness, BackoffIsDeterministicAndBounded) {
  sock::RetryPolicy P;
  P.BaseMs = 10;
  P.CapMs = 200;
  P.Seed = 42;
  uint64_t Prev = 0;
  std::vector<uint64_t> First;
  for (unsigned A = 0; A < 16; ++A) {
    Prev = sock::nextBackoffMs(P, Prev, A);
    EXPECT_GE(Prev, P.BaseMs);
    EXPECT_LE(Prev, P.CapMs);
    First.push_back(Prev);
  }
  // Same (seed, attempt, prev) stream → same schedule, byte for byte.
  Prev = 0;
  for (unsigned A = 0; A < 16; ++A) {
    Prev = sock::nextBackoffMs(P, Prev, A);
    EXPECT_EQ(Prev, First[A]);
  }
  // A different seed draws a different schedule somewhere.
  P.Seed = 43;
  Prev = 0;
  bool Differs = false;
  for (unsigned A = 0; A < 16; ++A) {
    Prev = sock::nextBackoffMs(P, Prev, A);
    Differs |= Prev != First[A];
  }
  EXPECT_TRUE(Differs);
}

TEST(ServedRobustness, ConnectErrnosAreMachineReadable) {
  // A refused or missing socket is the daemon-restart window, so
  // requestWithRetry re-dials it MaxAttempts times, then reports the
  // last connect's errno. The client.connect.refuse site counts every
  // connect: armed as nth(N) past MaxAttempts it never fires.
  sock::RetryPolicy P;
  P.MaxAttempts = 3;
  P.BaseMs = 1;
  P.CapMs = 2;
  const support::failpoint::Site &Connects =
      support::failpoint::site("client.connect.refuse");
  {
    ArmedSchedule Count("client.connect.refuse=nth(100)");
    Response NoEnt =
        requestWithRetry(::testing::TempDir() + "/no_such_daemon.sock",
                         Method::Check, inlineRequest(LoopFree, "x.blif"), P);
    ASSERT_FALSE(NoEnt.Ok);
    ASSERT_TRUE(NoEnt.Transport.hasError());
    EXPECT_EQ(NoEnt.Transport.firstError().note("errno"), "ENOENT");
    EXPECT_EQ(Connects.hits(), P.MaxAttempts);
  }

  // Refused connect (simulated by the client.connect.refuse site so no
  // half-bound socket is needed): distinct errno, same retry behavior.
  ArmedSchedule Arm("client.connect.refuse=always");
  Response Refused =
      requestWithRetry("/tmp/irrelevant.sock", Method::Check,
                       inlineRequest(LoopFree, "x.blif"), P);
  ASSERT_FALSE(Refused.Ok);
  ASSERT_TRUE(Refused.Transport.hasError());
  EXPECT_EQ(Refused.Transport.firstError().note("errno"), "ECONNREFUSED");
  EXPECT_EQ(Connects.hits(), P.MaxAttempts);
}

TEST(ServedRobustness, RequestWithRetryRecoversFromTransientRefusal) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/robust_dial.sock";
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());
  // First connect refused (simulated), the retry reaches the live
  // daemon and gets its verdict.
  ArmedSchedule Arm("client.connect.refuse=nth(1)");
  sock::RetryPolicy P;
  P.MaxAttempts = 3;
  P.BaseMs = 1;
  P.CapMs = 2;
  Response Res = requestWithRetry(Opts.SocketPath, Method::Check,
                                  inlineRequest(LoopFree, "dial.blif"), P);
  ASSERT_TRUE(Res.Ok) << support::renderText(Res.Transport);
  EXPECT_EQ(Res.ExitCode, 0);
  EXPECT_EQ(support::failpoint::site("client.connect.refuse").hits(), 2u);
  S.stop();
  S.wait();
}

// --- Server-side: oversize, stalls, admission, drain ------------------------

TEST(ServedRobustness, OversizeRequestRejectedWithBoundedBuffering) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/robust_oversize.sock";
  Opts.MaxRequestBytes = 4096;
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());

  // A request ~10x over the cap: the server stops reading at cap + 1,
  // rejects with the same byte-stable message as ever, and the client
  // still gets that verdict even though its write broke early.
  CheckRequest R = inlineRequest(LoopFree, "oversize.blif");
  R.DesignText = std::string(10 * Opts.MaxRequestBytes, 'x');
  Response Res = requestOnce(Opts.SocketPath, Method::Check, R);
  ASSERT_TRUE(Res.Ok) << support::renderText(Res.Transport);
  EXPECT_TRUE(Res.Rejected);
  EXPECT_FALSE(Res.Busy);
  EXPECT_EQ(Res.ExitCode, 2);
  EXPECT_NE(Res.Err.find("request exceeds 4096 bytes"), std::string::npos)
      << Res.Err;

  // The daemon is unharmed: a normal request on the same socket works.
  Response Again = requestOnce(Opts.SocketPath, Method::Check,
                               inlineRequest(LoopFree, "ok.blif"));
  ASSERT_TRUE(Again.Ok) << support::renderText(Again.Transport);
  EXPECT_EQ(Again.ExitCode, 0);
  S.stop();
  S.wait();
}

TEST(ServedRobustness, StalledReaderIsReclaimedAndCounted) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/robust_stall.sock";
  Opts.ReadTimeoutMs = 200;
  Opts.Workers = 2;
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());

  // Half a frame, then stall without half-closing: the worker must be
  // reclaimed at the read deadline — and it answers TimedOut, because a
  // slow writer may still be a live reader.
  auto Fd = sock::connectTo(Opts.SocketPath);
  ASSERT_TRUE(Fd.hasValue()) << Fd.describe();
  std::string Frame = encodeRequest(Method::Check,
                                    inlineRequest(LoopFree, "stall.blif"));
  ASSERT_FALSE(
      sock::writeAll(*Fd, std::string_view(Frame).substr(0, Frame.size() / 2))
          .hasError());
  auto Answer = sock::readAll(*Fd); // Blocks until the server times us out.
  sock::closeFd(*Fd);
  ASSERT_TRUE(Answer.hasValue()) << Answer.describe();
  Response Res;
  std::string Why;
  ASSERT_TRUE(decodeResponse(*Answer, Res, Why)) << Why;
  EXPECT_TRUE(Res.TimedOut);
  EXPECT_EQ(Res.ExitCode, 2);
  EXPECT_EQ(S.timedOutCount(), 1u);

  // Subsequent requests are unaffected: the worker came back.
  Response After = requestOnce(Opts.SocketPath, Method::Check,
                               inlineRequest(LoopFree, "after.blif"));
  ASSERT_TRUE(After.Ok) << support::renderText(After.Transport);
  EXPECT_EQ(After.ExitCode, 0);
  EXPECT_EQ(S.timedOutCount(), 1u);
  S.stop();
  S.wait();
}

TEST(ServedRobustness, AdmissionShedsBusyAndRetryConverges) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/robust_shed.sock";
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());

  CheckRequest R = inlineRequest(LoopFree, "shed.blif");
  {
    // Queue "full" (simulated): the request is shed before a byte of it
    // is read — Busy, retryable, counted.
    ArmedSchedule Arm("serve.admit.full=nth(1)");
    Response Shed = requestOnce(Opts.SocketPath, Method::Check, R);
    ASSERT_TRUE(Shed.Ok) << support::renderText(Shed.Transport);
    EXPECT_TRUE(Shed.Busy);
    EXPECT_FALSE(Shed.Rejected);
    EXPECT_EQ(Shed.ExitCode, 2);
    EXPECT_NE(Shed.Err.find("busy"), std::string::npos);
  }
  EXPECT_EQ(S.shedCount(), 1u);

  {
    // Same schedule through the retrying client: attempt 1 is shed,
    // attempt 2 lands — the Busy path converges without operator help.
    ArmedSchedule Arm("serve.admit.full=nth(1)");
    sock::RetryPolicy P;
    P.MaxAttempts = 4;
    P.BaseMs = 1;
    P.CapMs = 4;
    Response Res = requestWithRetry(Opts.SocketPath, Method::Check, R, P);
    ASSERT_TRUE(Res.Ok) << support::renderText(Res.Transport);
    EXPECT_FALSE(Res.Busy);
    EXPECT_EQ(Res.ExitCode, 0);
  }
  EXPECT_EQ(S.shedCount(), 2u);
  EXPECT_GE(S.admittedCount(), 1u);
  S.stop();
  S.wait();
}

TEST(ServedRobustness, GracefulDrainBoundedWithHealthAnswering) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/robust_drain.sock";
  Opts.Workers = 3;
  Opts.DrainDeadlineMs = 600;
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());

  // Health before any trouble: ready.
  Response Ready = requestOnce(Opts.SocketPath, Method::Health);
  ASSERT_TRUE(Ready.Ok) << support::renderText(Ready.Transport);
  EXPECT_NE(Ready.Out.find("\"state\":\"ready\""), std::string::npos);

  // One worker wedges after its work (the serve.drain.hang site) so the
  // drain cannot finish politely; the kill token must reclaim it.
  support::failpoint::disarmAll();
  ASSERT_FALSE(
      support::failpoint::configure("serve.drain.hang=nth(1)", 0).hasError());
  std::thread Hung([&] {
    Response Res = requestOnce(Opts.SocketPath, Method::Check,
                               inlineRequest(LoopFree, "hang.blif"));
    // The response is written once the drain releases the worker; the
    // request itself ran to completion before the hang.
    EXPECT_TRUE(Res.Ok) << support::renderText(Res.Transport);
  });
  // Give the hung request time to be admitted and parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  auto T0 = std::chrono::steady_clock::now();
  std::thread Drainer([&] { S.drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Mid-drain: health still answers, and says so; work is shed Busy.
  EXPECT_TRUE(S.draining());
  Response Mid = requestOnce(Opts.SocketPath, Method::Health);
  ASSERT_TRUE(Mid.Ok) << support::renderText(Mid.Transport);
  EXPECT_NE(Mid.Out.find("\"state\":\"draining\""), std::string::npos);
  Response Work = requestOnce(Opts.SocketPath, Method::Check,
                              inlineRequest(LoopFree, "late.blif"));
  ASSERT_TRUE(Work.Ok) << support::renderText(Work.Transport);
  EXPECT_TRUE(Work.Busy);

  Drainer.join();
  Hung.join();
  auto DrainMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - T0)
                     .count();
  // Bounded: polite deadline + grace, never a wedge.
  EXPECT_LT(DrainMs, 3 * 600);
  EXPECT_TRUE(S.stopRequested());
  support::failpoint::disarmAll();
  S.wait();
  struct stat St;
  EXPECT_NE(::stat(Opts.SocketPath.c_str(), &St), 0);
}

TEST(ServedRobustness, SlowComputeStillGetsItsResponseWritten) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/robust_slow_write.sock";
  Opts.WriteTimeoutMs = 100;
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());

  // Park the worker *after* its handle() finishes, for longer than the
  // write budget (the serve.drain.hang site, released by stop()). The
  // write deadline must start when the response is ready, not when the
  // request arrived — otherwise any compute that outlasts
  // WriteTimeoutMs reaches writeAll already expired, the response is
  // silently discarded, and the client sees a non-retryable empty read.
  ArmedSchedule Arm("serve.drain.hang=nth(1)");
  std::thread Client([&] {
    Response Res = requestOnce(Opts.SocketPath, Method::Check,
                               inlineRequest(LoopFree, "slow.blif"));
    EXPECT_TRUE(Res.Ok) << support::renderText(Res.Transport);
    EXPECT_EQ(Res.ExitCode, 0);
  });
  // Let the request be admitted, handled, and parked well past the
  // 100ms write budget before releasing it.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  S.stop();
  Client.join();
  S.wait();
}

TEST(ServedRobustness, ShutdownAcknowledgedDuringDrain) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/robust_drain_shutdown.sock";
  Opts.Workers = 2;
  Opts.DrainDeadlineMs = 2000;
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());

  // Park one worker so the drain stays in its polite phase while we
  // probe it.
  ArmedSchedule Arm("serve.drain.hang=nth(1)");
  std::thread Hung([&] {
    Response Res = requestOnce(Opts.SocketPath, Method::Check,
                               inlineRequest(LoopFree, "hang.blif"));
    EXPECT_TRUE(Res.Ok) << support::renderText(Res.Transport);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::thread Drainer([&] { S.drain(); });
  while (!S.draining())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Shutdown against a draining daemon is acknowledged Ok, not shed
  // Busy: the daemon *is* stopping, and a Busy answer would send
  // `wiresort-client --shutdown` into retries and a lying exit 7.
  Response Sd = requestOnce(Opts.SocketPath, Method::Shutdown);
  ASSERT_TRUE(Sd.Ok) << support::renderText(Sd.Transport);
  EXPECT_FALSE(Sd.Busy);
  EXPECT_EQ(Sd.ExitCode, 0);
  EXPECT_NE(Sd.Out.find("shutting down"), std::string::npos);

  Drainer.join();
  Hung.join();
  EXPECT_TRUE(S.stopRequested());
  S.wait();
}

// --- The 200-schedule overload soak -----------------------------------------

TEST(ServedRobustness, OverloadSoak200Schedules) {
  // Cold CLI baseline once: the byte-identity bar every surviving
  // daemon answer is held to after its storm.
  CheckRequest Golden = inlineRequest(LoopFree, "soak_ok.blif");
  CheckResult Cold = runCheck(Golden);
  ASSERT_EQ(Cold.ExitCode, 0);

  constexpr unsigned Threads = 3, PerThread = 5;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    ServeOptions Opts;
    Opts.SocketPath = ::testing::TempDir() + "/robust_soak.sock";
    Opts.Workers = 3;
    Opts.MaxPending = 2;
    Opts.ReadTimeoutMs = 2000;
    Opts.WriteTimeoutMs = 2000;
    Opts.DrainDeadlineMs = 100;
    Server S(Opts);
    ASSERT_FALSE(S.start().hasError()) << "seed " << Seed;

    // Five schedule families, every fault site in the serving matrix;
    // prob() streams replay per (spec, seed).
    const char *Specs[] = {
        "serve.admit.full=prob(0.4)",
        "serve.read.stall=prob(0.3)",
        "serve.response.drop=prob(0.2),serve.admit.full=prob(0.2)",
        "client.connect.refuse=prob(0.4)",
        "serve.response.truncate=prob(0.2),engine.cancel=prob(0.3)",
    };
    ASSERT_FALSE(
        support::failpoint::configure(Specs[Seed % 5], Seed).hasError());
    const bool MidDrain = Seed % 7 == 3;

    std::atomic<size_t> BadShape{0};
    auto client = [&](unsigned Tid) {
      for (unsigned I = 0; I < PerThread; ++I) {
        sock::RetryPolicy P;
        P.MaxAttempts = 4;
        P.BaseMs = 1;
        P.CapMs = 4;
        P.Seed = Seed * 31 + Tid * 7 + I;
        Response Res = requestWithRetry(
            Opts.SocketPath, Method::Check,
            inlineRequest(LoopFree, "soak_ok.blif"), P,
            /*TransportTimeoutMs=*/500);
        if (!Res.Ok) {
          // Only acceptable as transport damage with evidence attached
          // (dropped/truncated responses, a drained socket, a client-
          // side timeout) — never a silent nothing.
          if (!Res.Transport.hasError())
            BadShape.fetch_add(1);
          continue;
        }
        if (Res.ExitCode < 0 || Res.ExitCode > 3) {
          BadShape.fetch_add(1);
          continue;
        }
        // Busy / TimedOut / Rejected are documented retryable-or-
        // fail-closed dispositions; a ran-to-verdict response must
        // carry the verdict line.
        if (!Res.Busy && !Res.TimedOut && !Res.Rejected &&
            Res.ExitCode != 2 && Res.ExitCode != 3 &&
            Res.Out.find("\"verdict\":") == std::string::npos)
          BadShape.fetch_add(1);
      }
    };
    std::vector<std::thread> Clients;
    for (unsigned T = 0; T < Threads; ++T)
      Clients.emplace_back(client, T);
    std::thread Drainer;
    if (MidDrain)
      Drainer = std::thread([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        S.drain();
        S.wait();
      });
    for (std::thread &T : Clients)
      T.join();
    support::failpoint::disarmAll();
    EXPECT_EQ(BadShape.load(), 0u) << "seed " << Seed;

    if (!MidDrain) {
      // The daemon is never wedged: after the storm, a disarmed request
      // converges and its bytes are identical to the solo CLI.
      sock::RetryPolicy P;
      P.MaxAttempts = 5;
      P.BaseMs = 1;
      P.CapMs = 4;
      P.Seed = Seed;
      Response Warm = requestWithRetry(Opts.SocketPath, Method::Check,
                                       Golden, P, 2000);
      ASSERT_TRUE(Warm.Ok)
          << "seed " << Seed << ": " << support::renderText(Warm.Transport);
      EXPECT_EQ(Warm.ExitCode, Cold.ExitCode) << "seed " << Seed;
      EXPECT_EQ(Warm.Out, Cold.Out) << "seed " << Seed;
      EXPECT_EQ(Warm.Err, Cold.Err) << "seed " << Seed;
      S.stop();
      S.wait();
    } else {
      Drainer.join();
      EXPECT_TRUE(S.stopRequested()) << "seed " << Seed;
    }
    // Every exit path unlinks the socket: no droppings, ever.
    struct stat St;
    EXPECT_NE(::stat(Opts.SocketPath.c_str(), &St), 0) << "seed " << Seed;
  }
}
