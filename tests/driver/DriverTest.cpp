//===- tests/driver/DriverTest.cpp - The check facade + serving layer -----===//
//
// Part of the wiresort project. The driver acceptance bar
// (docs/SERVING.md):
//
//  * resident (CheckService) and one-shot (runCheck) serve byte-identical
//    Out/Err for the same request — the CLI/daemon identity is a library
//    property, not a process-level accident;
//  * a warm re-check of an edited design re-infers only the modules whose
//    structural content (or sub-summary keys) changed;
//  * caret echoes are keyed per request/file: concurrent residents never
//    echo one request's source under another request's diagnostic;
//  * the serve codecs round-trip every request field and fail *closed* on
//    any framing damage — a torn or bit-flipped message is never
//    half-decoded into a verdict — and on a set reserved field, so an
//    old client's shard request is refused, never half-honored;
//  * an in-process Server speaks the full protocol end to end: golden
//    check bytes, stats, rejection of garbage, response-drop/truncate
//    fault sites, clean shutdown with the socket file unlinked.
//
//===----------------------------------------------------------------------===//

#include "driver/Check.h"
#include "driver/Serve.h"

#include "support/FailPoint.h"
#include "support/Socket.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

using namespace wiresort;
using namespace wiresort::driver;

namespace {

const char *LoopFree = ".model passthrough\n"
                       ".inputs a\n"
                       ".outputs y\n"
                       ".names a y\n"
                       "1 1\n"
                       ".end\n";

const char *Loopy = ".model loopy\n"
                    ".inputs a\n"
                    ".outputs y\n"
                    ".names a x w\n"
                    "11 1\n"
                    ".names w x\n"
                    "1 1\n"
                    ".names w y\n"
                    "1 1\n"
                    ".end\n";

/// Three-module hierarchy for the warm-re-check test: top composes two
/// *structurally distinct* leaves (identical bodies would share one
/// cache key), so editing leaf2 dirties exactly {leaf2, top} (top's
/// cache key folds its children's keys) while leaf1 stays a cache hit.
std::string hierarchy(const char *Leaf2Body) {
  return std::string(".model top\n"
                     ".inputs a\n.outputs y\n"
                     ".subckt leaf1 a=a y=t\n"
                     ".subckt leaf2 a=t y=y\n"
                     ".end\n"
                     ".model leaf1\n"
                     ".inputs a\n.outputs y\n"
                     ".names a y\n1 1\n.end\n"
                     ".model leaf2\n"
                     ".inputs a\n.outputs y\n") +
         Leaf2Body + ".end\n";
}

CheckRequest inlineRequest(const char *Text, const std::string &Name,
                           analysis::Format Fmt = analysis::Format::Json) {
  CheckRequest R;
  R.DesignText = Text;
  R.HasInlineText = true;
  R.DesignName = Name;
  R.Req.OutputFormat = Fmt;
  return R;
}

/// Checks that \p D carries every wire field of \p R.
void expectSameRequest(const CheckRequest &D, const CheckRequest &R) {
  EXPECT_EQ(D.DesignPath, R.DesignPath);
  EXPECT_EQ(D.DesignText, R.DesignText);
  EXPECT_EQ(D.HasInlineText, R.HasInlineText);
  EXPECT_EQ(D.DesignName, R.DesignName);
  EXPECT_EQ(D.Req.CachePath, R.Req.CachePath);
  EXPECT_EQ(D.Req.OutputFormat, R.Req.OutputFormat);
  EXPECT_EQ(D.Req.TraceOutPath, R.Req.TraceOutPath);
  EXPECT_EQ(D.Req.Stats, R.Req.Stats);
  EXPECT_EQ(D.Req.TimeoutMs, R.Req.TimeoutMs);
  EXPECT_EQ(D.Req.FailpointSpec, R.Req.FailpointSpec);
  EXPECT_EQ(D.Req.FaultSeed, R.Req.FaultSeed);
  EXPECT_EQ(D.SummariesOut, R.SummariesOut);
  EXPECT_EQ(D.CheckPath, R.CheckPath);
  EXPECT_EQ(D.DotPath, R.DotPath);
  EXPECT_EQ(D.ConvertIn, R.ConvertIn);
  EXPECT_EQ(D.BinarySummaries, R.BinarySummaries);
  EXPECT_EQ(D.CheckText, R.CheckText);
  EXPECT_EQ(D.HasInlineCheckText, R.HasInlineCheckText);
  EXPECT_EQ(D.Quiet, R.Quiet);
  EXPECT_EQ(D.ShowDepth, R.ShowDepth);
}

/// decodeRequest through both overloads: the one that views \p Bytes
/// and the one that takes over a copy of them. They must agree on the
/// verdict, the reason and every decoded field, and a refused buffer
/// is handed back as it was; \returns the verdict, with the view
/// overload's results in \p M, \p R and \p Why.
bool decodeBoth(std::string_view Bytes, Method &M, CheckRequest &R,
                std::string &Why) {
  const bool Viewed = decodeRequest(Bytes, M, R, Why);
  std::string Buffer(Bytes);
  Method OwnedM = Method::Check;
  CheckRequest Owned;
  std::string OwnedWhy;
  const bool Taken =
      decodeRequest(std::move(Buffer), OwnedM, Owned, OwnedWhy);
  EXPECT_EQ(Viewed, Taken);
  EXPECT_EQ(Why, OwnedWhy);
  if (!Taken) {
    EXPECT_EQ(Buffer, Bytes);
  }
  if (Viewed && Taken) {
    EXPECT_EQ(M, OwnedM);
    expectSameRequest(Owned, R);
  }
  return Viewed;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  ASSERT_TRUE(Out.good()) << Path;
}

TEST(Driver, ResidentMatchesOneShotByteForByte) {
  for (const char *Text : {LoopFree, Loopy}) {
    CheckRequest R = inlineRequest(Text, "design.blif");
    CheckResult Cold = runCheck(R);
    CheckService Resident;
    CheckResult First = Resident.run(R);
    CheckResult Second = Resident.run(R);
    EXPECT_EQ(Cold.ExitCode, First.ExitCode);
    EXPECT_EQ(Cold.Out, First.Out);
    EXPECT_EQ(Cold.Err, First.Err);
    // The warm repeat serves every summary from the resident cache and
    // still produces the same bytes (docs/ENGINE.md determinism).
    EXPECT_EQ(Cold.Out, Second.Out);
    EXPECT_EQ(Cold.Err, Second.Err);
    if (Second.ExitCode == 0) {
      EXPECT_EQ(Second.Stats.CacheHits, Second.Stats.Modules);
      EXPECT_EQ(Second.Stats.Inferred, 0u);
    }
  }
}

TEST(Driver, WarmRecheckReinfersOnlyDirtyModules) {
  CheckService Resident;
  std::string V1 = hierarchy(".names a t\n0 1\n.names t y\n0 1\n");
  CheckResult First = Resident.run(
      inlineRequest(V1.c_str(), "hier.blif"));
  ASSERT_EQ(First.ExitCode, 0) << First.Out << First.Err;
  EXPECT_EQ(First.Stats.Inferred, 3u);

  // Collapse leaf2's double inverter to a single one: leaf2's body hash
  // moves, so top's key (which folds leaf2's summary key) moves too;
  // leaf1 is untouched.
  std::string V2 = hierarchy(".names a y\n0 1\n");
  CheckResult Edited = Resident.run(
      inlineRequest(V2.c_str(), "hier.blif"));
  ASSERT_EQ(Edited.ExitCode, 0) << Edited.Out << Edited.Err;
  EXPECT_EQ(Edited.Stats.CacheHits, 1u);
  EXPECT_EQ(Edited.Stats.Inferred, 2u);
}

TEST(Driver, ParseResidencySkipsUnchangedChunks) {
  // The parse half of the residency contract (docs/SERVING.md): a warm
  // re-check of an edited file re-tokenizes only the edited `.model`
  // chunk, everything else replays from the content-keyed parse cache —
  // and the bytes out still match a cold one-shot exactly.
  CheckService Resident;
  std::string V1 = hierarchy(".names a t\n0 1\n.names t y\n0 1\n");
  ASSERT_EQ(Resident.run(inlineRequest(V1.c_str(), "hier.blif")).ExitCode,
            0);
  EXPECT_EQ(Resident.parseCache().hits(), 0u);
  EXPECT_EQ(Resident.parseCache().misses(), 3u); // top, leaf1, leaf2

  std::string V2 = hierarchy(".names a y\n0 1\n");
  CheckResult Edited =
      Resident.run(inlineRequest(V2.c_str(), "hier.blif"));
  ASSERT_EQ(Edited.ExitCode, 0) << Edited.Out << Edited.Err;
  EXPECT_EQ(Resident.parseCache().hits(), 2u);  // top + leaf1 replay
  EXPECT_EQ(Resident.parseCache().misses(), 4u); // + edited leaf2

  CheckResult Cold = runCheck(inlineRequest(V2.c_str(), "hier.blif"));
  EXPECT_EQ(Cold.ExitCode, Edited.ExitCode);
  EXPECT_EQ(Cold.Out, Edited.Out);
  EXPECT_EQ(Cold.Err, Edited.Err);
}

TEST(Driver, OneShotMatchesResidentAtAnyThreadCount) {
  // A one-shot runCheck parses with no parse cache; a resident service
  // parses through its own. Same bytes either way at one thread and at
  // four (a text-mode Out carries a timing, so text compares Err), and
  // the resident's hit/miss accounting does not depend on the threads.
  const std::string Good = hierarchy(".names a t\n0 1\n.names t y\n0 1\n");
  const std::string Bad = hierarchy(".names a y\n0 1 1\n");
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(Threads);
    const analysis::EngineConfig Cfg{Threads, true};
    CheckService Resident(Cfg);
    for (const std::string *Text : {&Good, &Bad}) {
      for (analysis::Format Fmt :
           {analysis::Format::Json, analysis::Format::Text}) {
        CheckRequest R = inlineRequest(Text->c_str(), "hier.blif", Fmt);
        CheckResult Cold = runCheck(R, Cfg);
        CheckResult Warm = Resident.run(R);
        EXPECT_EQ(Cold.ExitCode, Text == &Good ? 0 : 1);
        EXPECT_EQ(Cold.ExitCode, Warm.ExitCode);
        EXPECT_EQ(Cold.Err, Warm.Err);
        if (Fmt == analysis::Format::Json) {
          EXPECT_EQ(Cold.Out, Warm.Out);
        }
      }
    }
    // Good: 3 misses, then 3 hits. Bad, twice: top and leaf1 hit, the
    // broken leaf2 misses and is never cached.
    EXPECT_EQ(Resident.parseCache().hits(), 7u);
    EXPECT_EQ(Resident.parseCache().misses(), 5u);
    EXPECT_EQ(Resident.parseCache().size(), 3u);
  }
}

TEST(Driver, CaretEchoKeyedPerRequestFile) {
  // Two different malformed sources through one resident service: each
  // text-mode render must echo *its own* line under the caret. (The old
  // CLI kept one process-global source string, which a resident service
  // would have echoed under every request's diagnostics.)
  CheckService Resident;
  CheckResult A = Resident.run(inlineRequest(
      ".model a\n.inputs a a\n.end\n", "a.blif", analysis::Format::Text));
  CheckResult B = Resident.run(inlineRequest(
      ".model b\n.inputs q q\n.end\n", "b.blif", analysis::Format::Text));
  EXPECT_EQ(A.ExitCode, 1);
  EXPECT_EQ(B.ExitCode, 1);
  EXPECT_NE(A.Err.find("a.blif:2"), std::string::npos) << A.Err;
  EXPECT_NE(A.Err.find(".inputs a a"), std::string::npos) << A.Err;
  EXPECT_EQ(A.Err.find(".inputs q q"), std::string::npos) << A.Err;
  EXPECT_NE(B.Err.find("b.blif:2"), std::string::npos) << B.Err;
  EXPECT_NE(B.Err.find(".inputs q q"), std::string::npos) << B.Err;
  EXPECT_EQ(B.Err.find(".inputs a a"), std::string::npos) << B.Err;
}

TEST(Driver, InlineAscriptionSidecarMatchesDiskSidecar) {
  // The daemon's `ascribe` method ships the declared-summary sidecar
  // inline; the CLI reads it from disk. Same bytes both ways.
  const char *Sidecar = "module passthrough\n"
                        "  input a to-sync\n"
                        "  output y from-sync\n"
                        "end\n";
  std::string Dir = ::testing::TempDir();
  writeFile(Dir + "/decl.wsort", Sidecar);

  CheckRequest Disk = inlineRequest(LoopFree, "design.blif");
  Disk.CheckPath = Dir + "/decl.wsort";
  CheckResult FromDisk = runCheck(Disk);

  CheckRequest Inline = Disk;
  Inline.CheckText = Sidecar;
  Inline.HasInlineCheckText = true;
  CheckResult FromInline = runCheck(Inline);

  EXPECT_EQ(FromDisk.ExitCode, 1);
  EXPECT_EQ(FromDisk.ExitCode, FromInline.ExitCode);
  EXPECT_EQ(FromDisk.Out, FromInline.Out);
  EXPECT_EQ(FromDisk.Err, FromInline.Err);
  EXPECT_NE(FromDisk.Out.find("WS102_ASCRIPTION_MISMATCH"),
            std::string::npos)
      << FromDisk.Out;
}

TEST(Driver, ReadFileReadsFilesAndPipesWhole) {
  // Past one 64 KB read and not a multiple of it.
  std::string Bytes(200001, '\0');
  for (size_t I = 0; I != Bytes.size(); ++I)
    Bytes[I] = static_cast<char>('a' + I % 23);
  const std::string Path = ::testing::TempDir() + "/read_file.blif";
  std::ofstream(Path, std::ios::binary) << Bytes;
  EXPECT_EQ(readFile(Path), Bytes);
  std::ofstream(Path, std::ios::binary).flush(); // Now empty.
  EXPECT_EQ(readFile(Path), std::string());
  std::remove(Path.c_str());
  EXPECT_EQ(readFile(Path), std::nullopt);
  EXPECT_EQ(readFile(::testing::TempDir()), std::nullopt); // A directory.

  // A pipe has no size to go by: the string grows as it fills.
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  std::thread Writer([&] {
    for (size_t Off = 0; Off < Bytes.size();) {
      const ssize_t N =
          ::write(Fds[1], Bytes.data() + Off, Bytes.size() - Off);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(Fds[1]);
  });
  const std::optional<std::string> Piped =
      readFile("/proc/self/fd/" + std::to_string(Fds[0]));
  ::close(Fds[0]); // Ends the writer even if the read stopped early.
  Writer.join();
  EXPECT_EQ(Piped, Bytes);
}

TEST(Serve, CodecRoundTripsEveryRequestField) {
  CheckRequest R;
  R.DesignPath = "designs/top.blif";
  R.DesignText = std::string("raw\0bytes\n", 10); // NUL-safe transport.
  R.HasInlineText = true;
  R.DesignName = "top.blif";
  R.Req.CachePath = "warm.wscache";
  R.Req.OutputFormat = analysis::Format::Json;
  R.Req.TraceOutPath = "trace.json";
  R.Req.Stats = true;
  R.Req.TimeoutMs = 1234;
  R.Req.FailpointSpec = "engine.cancel=nth(3)";
  R.Req.FaultSeed = 99;
  R.SummariesOut = "out.wsort";
  R.CheckPath = "decl.wsort";
  R.DotPath = "top.dot";
  R.ConvertIn = "old.wsort";
  R.BinarySummaries = true;
  R.CheckText = "module top\nend\n";
  R.HasInlineCheckText = true;
  R.Quiet = true;
  R.ShowDepth = true;

  std::string Bytes = encodeRequest(Method::Ascribe, R);
  Method M = Method::Check;
  CheckRequest D;
  std::string Why;
  ASSERT_TRUE(decodeBoth(Bytes, M, D, Why)) << Why;
  EXPECT_EQ(M, Method::Ascribe);
  expectSameRequest(D, R);
}

TEST(Serve, CodecBytesArePinned) {
  // The request and response streams byte for byte, as digests taken
  // when every record was still copied whole into its frame. The
  // request has NUL bytes in a string and in its CheckText, strings the
  // writer interns once for several fields, and an empty DesignText;
  // the response has NUL bytes on stdout and an empty stderr.
  CheckRequest R;
  R.DesignPath = std::string("designs/\0top.blif", 17);
  R.DesignName = "top.blif";
  R.Req.CachePath = "top.blif";
  R.Req.OutputFormat = analysis::Format::Json;
  R.Req.TimeoutMs = 300;
  R.Req.FaultSeed = 1u << 20;
  R.CheckPath = "top.blif";
  R.CheckText = std::string("module top\0\nend\n", 16);
  R.HasInlineCheckText = true;
  R.Quiet = true;
  const std::string Req = encodeRequest(Method::Ascribe, R);
  EXPECT_EQ(Req.size(), 115u);
  EXPECT_EQ(support::wire::fnv1a(Req), 0x05f267296eebae78ull);

  CheckResult Res;
  Res.ExitCode = 1;
  Res.Errors = 2;
  Res.Modules = 300;
  Res.Out = std::string("{\"verdict\":\0\"error\"}\n", 21);
  const std::string Resp = encodeResponse(Res, RespStatus::Ok);
  EXPECT_EQ(Resp.size(), 67u);
  EXPECT_EQ(support::wire::fnv1a(Resp), 0xd96980a3d7828f6dull);
}

TEST(Serve, CodecRejectsSetReservedSlots) {
  // The three varints after the fault seed once carried the shard count
  // and the --shard I/N slice. A request framed by hand the way an older
  // client would send a sharded one must be refused, not served whole.
  // Slot -1 is the control: all three zero, the same frame decodes.
  for (int Slot = -1; Slot != 3; ++Slot) {
    support::wire::Writer W;
    W.beginStream(support::wire::StreamKind::Serve, 1);
    W.beginRecord(support::wire::RecordKind::ServeRequest);
    W.putByte(static_cast<uint8_t>(Method::Check));
    W.putByte(static_cast<uint8_t>(analysis::Format::Json));
    W.putByte(0);   // Flags.
    W.putVarint(0); // Timeout.
    W.putVarint(0); // Fault seed.
    for (int I = 0; I != 3; ++I)
      W.putVarint(I == Slot ? 4 : 0);
    for (int I = 0; I != 9; ++I)
      W.putString(I == 0 ? "design.blif" : "");
    W.putBytes("");
    W.putBytes("");
    W.endRecord();
    W.finish();

    Method M;
    CheckRequest D;
    std::string Why;
    const bool Decoded = decodeBoth(W.take(), M, D, Why);
    if (Slot < 0) {
      ASSERT_TRUE(Decoded) << Why;
      EXPECT_EQ(D.DesignPath, "design.blif");
      continue;
    }
    EXPECT_FALSE(Decoded) << "slot " << Slot;
    EXPECT_NE(Why.find("reserved"), std::string::npos) << Why;
  }
}

TEST(Serve, CodecFailsClosedOnFramingDamage) {
  CheckRequest R = inlineRequest(LoopFree, "design.blif");
  std::string Bytes = encodeRequest(Method::Check, R);
  Method M;
  CheckRequest D;
  std::string Why;

  // Truncation at every prefix length: never a successful decode.
  for (size_t Len : {size_t(0), size_t(3), Bytes.size() / 2,
                     Bytes.size() - 1})
    EXPECT_FALSE(
        decodeBoth(std::string_view(Bytes).substr(0, Len), M, D, Why))
        << "decoded a " << Len << "-byte prefix";

  // A flipped byte anywhere in the payload region trips the record
  // checksum (the first 5 bytes are magic+version, which readHeader
  // rejects on its own).
  std::string Flipped = Bytes;
  Flipped[Bytes.size() / 2] ^= 0x40;
  EXPECT_FALSE(decodeBoth(Flipped, M, D, Why));

  // Same discipline on the response side.
  CheckResult Res;
  Res.ExitCode = 1;
  Res.Out = "{\"verdict\":\"error\",\"errors\":1}\n";
  std::string RespBytes = encodeResponse(Res, RespStatus::Ok);
  Response Resp;
  EXPECT_FALSE(decodeResponse(RespBytes.substr(0, RespBytes.size() - 2),
                              Resp, Why));
  std::string RespFlipped = RespBytes;
  RespFlipped[RespBytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(decodeResponse(RespFlipped, Resp, Why));
  // And the two directions don't cross-decode.
  EXPECT_FALSE(decodeResponse(Bytes, Resp, Why));
  EXPECT_FALSE(decodeBoth(RespBytes, M, D, Why));

  ASSERT_TRUE(decodeResponse(RespBytes, Resp, Why)) << Why;
  EXPECT_EQ(Resp.ExitCode, 1);
  EXPECT_EQ(Resp.Out, Res.Out);
}

TEST(Serve, ServerEndToEndGoldenStatsShutdown) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/served_e2e.sock";
  Opts.Workers = 2;
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());

  CheckRequest R = inlineRequest(LoopFree, "design.blif");
  Response Check = requestOnce(Opts.SocketPath, Method::Check, R);
  ASSERT_TRUE(Check.Ok) << support::renderText(Check.Transport);
  CheckResult Cli = runCheck(R);
  EXPECT_EQ(Check.ExitCode, Cli.ExitCode);
  EXPECT_EQ(Check.Out, Cli.Out);
  EXPECT_EQ(Check.Err, Cli.Err);

  Response Stats = requestOnce(Opts.SocketPath, Method::Stats);
  ASSERT_TRUE(Stats.Ok) << support::renderText(Stats.Transport);
  EXPECT_EQ(Stats.ExitCode, 0);
  EXPECT_NE(Stats.Out.find("\"type\":\"served-stats\""), std::string::npos)
      << Stats.Out;
  EXPECT_NE(Stats.Out.find("\"requests\":1"), std::string::npos)
      << Stats.Out;

  // Raw garbage on the socket: rejected (status byte 1, exit 2), the
  // connection is answered, the server stays up.
  {
    auto Fd = support::sock::connectTo(Opts.SocketPath);
    ASSERT_TRUE(bool(Fd));
    ASSERT_FALSE(support::sock::writeAll(*Fd, "not a wire stream")
                     .hasError());
    support::sock::shutdownWrite(*Fd);
    auto Raw = support::sock::readAll(*Fd);
    support::sock::closeFd(*Fd);
    ASSERT_TRUE(bool(Raw));
    Response Rej;
    std::string Why;
    ASSERT_TRUE(decodeResponse(*Raw, Rej, Why)) << Why;
    EXPECT_TRUE(Rej.Rejected);
    EXPECT_EQ(Rej.ExitCode, 2);
    EXPECT_NE(Rej.Err.find("request rejected"), std::string::npos)
        << Rej.Err;
  }

  Response Bye = requestOnce(Opts.SocketPath, Method::Shutdown);
  ASSERT_TRUE(Bye.Ok) << support::renderText(Bye.Transport);
  S.wait();
  // Clean shutdown leaves no socket file (tools/run_tests.sh stage 9
  // asserts the same from the outside).
  struct stat St;
  EXPECT_NE(::stat(Opts.SocketPath.c_str(), &St), 0);
}

TEST(Serve, ResponseDropAndTruncateFaultsFailClosed) {
  ServeOptions Opts;
  Opts.SocketPath = ::testing::TempDir() + "/served_fault.sock";
  Server S(Opts);
  ASSERT_FALSE(S.start().hasError());
  CheckRequest R = inlineRequest(LoopFree, "design.blif");

  // Dropped response: the client reads EOF, decodes nothing, and
  // reports transport damage — exit-2 territory, never a verdict.
  ASSERT_FALSE(support::failpoint::configure("serve.response.drop=nth(1)", 0)
                   .hasError());
  Response Dropped = requestOnce(Opts.SocketPath, Method::Check, R);
  EXPECT_FALSE(Dropped.Ok);
  EXPECT_TRUE(Dropped.Transport.hasError());

  // Truncated response: half a wire stream trips the framing checksum.
  ASSERT_FALSE(
      support::failpoint::configure("serve.response.truncate=nth(1)", 0)
          .hasError());
  Response Torn = requestOnce(Opts.SocketPath, Method::Check, R);
  EXPECT_FALSE(Torn.Ok);
  EXPECT_TRUE(Torn.Transport.hasError());

  support::failpoint::disarmAll();
  Response Fine = requestOnce(Opts.SocketPath, Method::Check, R);
  EXPECT_TRUE(Fine.Ok) << support::renderText(Fine.Transport);
  EXPECT_EQ(Fine.ExitCode, 0);
  S.stop();
  S.wait();
}

} // namespace
