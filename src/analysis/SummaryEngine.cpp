//===- analysis/SummaryEngine.cpp - Parallel cached Stage-1 ---------------===//
//
// Part of the wiresort project.
//
//===----------------------------------------------------------------------===//

#include "analysis/SummaryEngine.h"

#include "analysis/SummaryIO.h"
#include "ir/StructuralHash.h"
#include "support/FailPoint.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace wiresort;
using namespace wiresort::analysis;
using namespace wiresort::ir;

// --- SummaryCache -----------------------------------------------------------

std::optional<ModuleSummary>
SummaryCache::lookup(uint64_t Key, ModuleId Id, const std::string &Name) {
  static trace::Counter &HitCounter = trace::counter("engine.cache_hits");
  static trace::Counter &MissCounter =
      trace::counter("engine.cache_misses");
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    ++Misses;
    MissCounter.add();
    return std::nullopt;
  }
  ++Hits;
  HitCounter.add();
  ModuleSummary S = It->second;
  // Content addressing is design-independent; only the owning design's
  // module id (and, pedantically, the name) need rebinding.
  S.Id = Id;
  S.ModuleName = Name;
  return S;
}

void SummaryCache::insert(uint64_t Key, const ModuleSummary &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.emplace(Key, S);
}

size_t SummaryCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

size_t SummaryCache::hits() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Hits;
}

size_t SummaryCache::misses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Misses;
}

// --- Cache keys -------------------------------------------------------------

namespace {

/// Content hash of a summary, used to key ascribed modules (whose bodies
/// are opaque — the summary IS the content).
uint64_t summaryContentHash(const ModuleSummary &S) {
  uint64_t H = 0x5ca1ab1e;
  for (const auto &[In, Outs] : S.OutputPortSets) {
    H = hashCombine(H, In);
    for (WireId Out : Outs)
      H = hashCombine(H, Out);
    H = hashCombine(H, 0xffffffffULL); // Set delimiter.
  }
  for (const auto &[Out, Ins] : S.InputPortSets) {
    H = hashCombine(H, Out);
    for (WireId In : Ins)
      H = hashCombine(H, In);
    H = hashCombine(H, 0xffffffffULL);
  }
  for (const auto &[Port, Sub] : S.SubSorts)
    H = hashCombine(H, (uint64_t(Port) << 8) | uint64_t(Sub));
  return H;
}

/// Runs inference for one module with panic containment: a throw —
/// injected via the engine.module.throw failpoint or genuine — becomes a
/// WS604_WORKER_PANIC diagnostic attributed to the module, instead of
/// unwinding into the pool (worst case std::terminate).
InferenceResult
inferContained(const Design &D, ModuleId Id,
               const std::map<ModuleId, ModuleSummary> &Subs,
               const support::Deadline *DL, bool &Panicked) {
  auto panic = [&](const char *What) {
    Panicked = true;
    return support::Diag(support::DiagCode::WS604_WORKER_PANIC,
                         "worker panic while summarizing module '" +
                             D.module(Id).Name + "'")
        .withNote("module", D.module(Id).Name)
        .withNote("what", What);
  };
  try {
    if (WS_FAILPOINT("engine.module.throw"))
      throw std::runtime_error("injected fault: engine.module.throw");
    return inferSummary(D, Id, Subs, DL);
  } catch (const std::exception &E) {
    return panic(E.what());
  } catch (...) {
    return panic("unknown exception");
  }
}

/// A module's share of Stage-1 work, for largest-first scheduling: its
/// wires and nets, what its graph build, hash and sweeps walk.
size_t moduleSize(const Module &M) { return M.numWires() + M.Nets.size(); }

/// Runs \p Task(I) for every I in [0, \p N). Without a pool they run here
/// in index order. With one, they go largest \p SizeOf(I) first (ties in
/// index order): the calling thread runs the largest itself while the
/// pool takes the rest in that order, and then waits for the pool, so
/// nothing the tasks share leaves scope before they finish. A throw from
/// the calling thread's task, or from a submit, is contained like a pool
/// task's. \returns the exceptions that escaped, the calling thread's
/// first.
template <typename SizeFn, typename TaskFn>
std::vector<std::exception_ptr> runLargestFirst(ThreadPool *Pool, size_t N,
                                                SizeFn &&SizeOf,
                                                TaskFn &&Task) {
  std::vector<std::exception_ptr> Escaped;
  if (!Pool) {
    for (size_t I = 0; I != N; ++I)
      Task(I);
    return Escaped;
  }
  try {
    std::vector<std::pair<size_t, size_t>> Order; // (size, index)
    Order.reserve(N);
    for (size_t I = 0; I != N; ++I)
      Order.emplace_back(SizeOf(I), I);
    std::stable_sort(Order.begin(), Order.end(),
                     [](const auto &A, const auto &B) {
                       return A.first > B.first;
                     });
    for (size_t K = 1; K < N; ++K)
      Pool->submit([&Task, I = Order[K].second] { Task(I); });
    if (N != 0)
      Task(Order[0].second);
  } catch (...) {
    Escaped.push_back(std::current_exception());
  }
  Pool->wait();
  for (std::exception_ptr &P : Pool->drainExceptions())
    Escaped.push_back(std::move(P));
  return Escaped;
}

/// The one key function behind computeKeys and analyze(): every
/// module-body hash (on \p Pool, largest body first, when there is one),
/// then each module's definitions' keys folded in instance order,
/// serially in topological order, so content addressing is transitive.
/// A throw from a pooled hash is rethrown here, as the serial path would
/// let it pass.
std::vector<uint64_t>
cacheKeys(const Design &D, const std::map<ModuleId, ModuleSummary> &Ascribed,
          ThreadPool *Pool) {
  trace::Span KeysSpan("engine.keys", "engine");
  KeysSpan.note("modules", static_cast<uint64_t>(D.numModules()));
  std::optional<std::vector<ModuleId>> Order = D.topologicalModuleOrder();
  assert(Order && "module instantiation must be acyclic");
  std::vector<ModuleId> Bodies;
  for (ModuleId Id = 0; Id != D.numModules(); ++Id)
    if (!Ascribed.count(Id))
      Bodies.push_back(Id);
  std::vector<uint64_t> Keys(D.numModules(), 0);
  std::vector<std::exception_ptr> Escaped = runLargestFirst(
      Pool, Bodies.size(),
      [&](size_t I) { return moduleSize(D.module(Bodies[I])); },
      [&](size_t I) { Keys[Bodies[I]] = structuralHash(D.module(Bodies[I])); });
  if (!Escaped.empty())
    std::rethrow_exception(Escaped.front());
  for (ModuleId Id : *Order) {
    auto AscIt = Ascribed.find(Id);
    if (AscIt != Ascribed.end()) {
      Keys[Id] = hashCombine(0xa5c81bed, summaryContentHash(AscIt->second));
      continue;
    }
    for (const SubInstance &Inst : D.module(Id).Instances)
      Keys[Id] = hashCombine(Keys[Id], Keys[Inst.Def]);
  }
  return Keys;
}

/// How a module's analysis ended within one analyze() call.
enum class State : uint8_t {
  Waiting,
  Done,
  Looped,
  Skipped,
  Cancelled, ///< Abandoned to the deadline (or an injected cancel).
  Panicked,  ///< Worker threw; contained as WS604.
};

/// One module inferred in a round. Its task, on the pool or the calling
/// thread, writes only its own Job; the calling thread reads it after the
/// round's wait().
struct Job {
  ModuleId Id;
  /// Unset only when the task threw past inferContained (the backstop
  /// then holds the exception).
  std::optional<InferenceResult> Result;
  bool Panicked = false;
};

/// The design's instantiation levels, each in ascending id order: a leaf
/// is level 0, any other module one above its deepest instantiated
/// definition. Every module of a level depends only on lower levels.
std::vector<std::vector<ModuleId>> instantiationLevels(const Design &D) {
  std::optional<std::vector<ModuleId>> Order = D.topologicalModuleOrder();
  assert(Order && "module instantiation must be acyclic");
  std::vector<size_t> LevelOf(D.numModules(), 0);
  for (ModuleId Id : *Order)
    for (const SubInstance &Inst : D.module(Id).Instances)
      LevelOf[Id] = std::max(LevelOf[Id], LevelOf[Inst.Def] + 1);
  std::vector<std::vector<ModuleId>> Levels;
  for (ModuleId Id = 0; Id != D.numModules(); ++Id) {
    if (LevelOf[Id] >= Levels.size())
      Levels.resize(LevelOf[Id] + 1);
    Levels[LevelOf[Id]].push_back(Id);
  }
  return Levels;
}

} // namespace

// --- SummaryEngine ----------------------------------------------------------

std::vector<uint64_t>
SummaryEngine::computeKeys(const Design &D,
                           const std::map<ModuleId, ModuleSummary> &Ascribed) {
  return cacheKeys(D, Ascribed, nullptr);
}

support::Status
SummaryEngine::analyze(const Design &D,
                       std::map<ModuleId, ModuleSummary> &Out,
                       const std::map<ModuleId, ModuleSummary> &Ascribed,
                       const support::Deadline &DL, AnalyzeOutcome *Outcome) {
  // Everything below writes through these aliases; no engine member is
  // touched except the thread-safe Cache, keeping this path re-entrant.
  AnalyzeOutcome Local;
  AnalyzeOutcome &Result = Outcome ? *Outcome : Local;
  EngineStats &Stats = Result.Stats;
  Stats = EngineStats();
  Stats.Modules = D.numModules();

  trace::Span AnalyzeSpan("engine.analyze", "engine");
  AnalyzeSpan.note("modules", static_cast<uint64_t>(D.numModules()));
  // Registry mirrors of EngineStats (docs/OBSERVABILITY.md). The cache
  // hit/miss counters live in SummaryCache::lookup.
  static trace::Histogram &InferUs = trace::histogram("engine.infer_us");
  static trace::Counter &ModulesC = trace::counter("engine.modules");
  static trace::Counter &InferredC = trace::counter("engine.inferred");
  static trace::Counter &AscribedC = trace::counter("engine.ascribed");
  static trace::Counter &CancelledC =
      trace::counter("fault.cancelled_modules");

  unsigned Threads = Cfg.Threads != 0
                         ? Cfg.Threads
                         : std::max(1u, std::thread::hardware_concurrency());
  Stats.ThreadsUsed = Threads;
  // The calling thread is one of the Threads, so the call's one pool
  // holds the others, and no more than the design has modules to give
  // them: none for one thread or one module. The caller outlives the
  // call, so the heap and the sweep scratch it warmed in earlier calls
  // serve the largest module of every round.
  std::optional<ThreadPool> Pool;
  if (size_t Busy = std::min<size_t>(Threads, D.numModules()); Busy > 1)
    Pool.emplace(static_cast<unsigned>(Busy - 1));
  ThreadPool *Workers = Pool ? &*Pool : nullptr;

  Result.Keys = cacheKeys(D, Ascribed, Workers);
  const std::vector<uint64_t> &Keys = Result.Keys;
  SummaryCache *Cache = Cfg.UseCache ? &this->Cache : nullptr;

  // --- Scheduler state. All of it lives on this thread: inference tasks
  // --- read Out (lower levels' summaries, which nothing writes while a
  // --- round runs) and write only their own Job and the thread-safe
  // --- Cache.
  Out.clear();
  std::vector<State> States(D.numModules(), State::Waiting);
  /// Per-module diagnostics (loops, panics; empty for clean modules).
  /// Indexed by module id, which is also the order the final list is
  /// emitted in.
  std::vector<support::DiagList> Failures(D.numModules());
  size_t Hits = 0, Inferred = 0, AscribedCount = 0;
  /// Latched once the deadline fires (or engine.cancel injects); from
  /// then on no new module starts.
  bool CancelFlag = false;
  const support::Deadline *DLPtr = DL.active() ? &DL : nullptr;
  std::vector<std::exception_ptr> Escaped;

  // Zero-width marker span: cheap resolutions cost ~no time but still
  // show up in the trace with their hit/ascribed attribute.
  auto markCheap = [&](ModuleId Id, const char *Result) {
    trace::Span CheapSpan("engine.module", "engine");
    CheapSpan.note("module", D.module(Id).Name).note("result", Result);
    States[Id] = State::Done;
  };

  auto infer = [&](Job &J) {
    trace::Span MSpan("engine.module", "engine");
    MSpan.note("module", D.module(J.Id).Name);
    Timer InferTimer;
    J.Result = inferContained(D, J.Id, Out, DLPtr, J.Panicked);
    InferUs.record(static_cast<uint64_t>(InferTimer.seconds() * 1e6));
    // Inserting here, not in settle(), overlaps copying a large summary
    // with the round's longer inferences. The key was claimed this round,
    // so nothing in this call looks it up before the next round.
    if (Cache && *J.Result)
      Cache->insert(Keys[J.Id], **J.Result);
    MSpan.note("result",
               *J.Result ? "miss" : (J.Panicked ? "panic" : "loop"));
  };

  auto settle = [&](Job &J) {
    ModuleId Id = J.Id;
    if (!J.Result) {
      States[Id] = State::Panicked; // Reported from Escaped below.
      return;
    }
    InferenceResult &Result = *J.Result;
    if (Result) {
      Out[Id] = std::move(*Result);
      ++Inferred;
      States[Id] = State::Done;
    } else if (J.Panicked) {
      Failures[Id] = Result.diags();
      States[Id] = State::Panicked;
    } else if (Result.diags().firstError().code() ==
               support::DiagCode::WS601_CANCELLED) {
      // Inference noticed the deadline mid-module; the module is
      // abandoned, not failed — the one WS601 appended to the verdict
      // covers it.
      CancelFlag = true;
      States[Id] = State::Cancelled;
    } else {
      Failures[Id] = Result.diags();
      States[Id] = State::Looped;
    }
  };

  // One loop for every thread count. Each round resolves its modules in
  // id order on this thread; the ones that need inference run largest
  // first, this thread taking the largest and the pool the rest (all
  // inline when there is no pool), and settle in id order, so the
  // counters and the cache never depend on the schedule.
  // A module whose content key an earlier module of the round claimed
  // waits for the next round: then it hits the leader's summary, or, if
  // the leader failed, infers itself and reports its own diagnostics.
  for (std::vector<ModuleId> &Pending : instantiationLevels(D)) {
    while (!Pending.empty()) {
      std::vector<Job> Jobs;
      std::vector<ModuleId> Deferred;
      std::unordered_set<uint64_t> Claimed;
      for (ModuleId Id : Pending) {
        // A dependent of an unsummarizable module can never be summarized
        // itself. Cancellation taints as Cancelled (so the WS601 tally
        // reflects everything the deadline cost); any other failure
        // taints as Skipped (the root cause is already reported).
        bool DepFailed = false, DepCancelled = false;
        for (const SubInstance &Inst : D.module(Id).Instances) {
          DepFailed |= States[Inst.Def] != State::Done;
          DepCancelled |= States[Inst.Def] == State::Cancelled;
        }
        if (DepFailed && !DepCancelled) {
          States[Id] = State::Skipped;
          continue;
        }
        if (DepCancelled || CancelFlag || DL.expired() ||
            WS_FAILPOINT("engine.cancel")) {
          CancelFlag = true;
          States[Id] = State::Cancelled;
          continue;
        }
        if (auto AscIt = Ascribed.find(Id); AscIt != Ascribed.end()) {
          Out[Id] = AscIt->second;
          ++AscribedCount;
          markCheap(Id, "ascribed");
          continue;
        }
        if (Cache) {
          // Checking the claim before the lookup keeps a deferred twin
          // at one hit and no miss, the count a one-by-one sweep gives.
          if (Claimed.count(Keys[Id])) {
            Deferred.push_back(Id);
            continue;
          }
          if (auto Hit = Cache->lookup(Keys[Id], Id, D.module(Id).Name)) {
            Out[Id] = std::move(*Hit);
            ++Hits;
            markCheap(Id, "hit");
            continue;
          }
          Claimed.insert(Keys[Id]);
        }
        Jobs.push_back(Job{Id, std::nullopt, false});
      }

      for (std::exception_ptr &P : runLargestFirst(
               Workers, Jobs.size(),
               [&](size_t I) { return moduleSize(D.module(Jobs[I].Id)); },
               [&](size_t I) { infer(Jobs[I]); }))
        Escaped.push_back(std::move(P));
      for (Job &J : Jobs)
        settle(J);
      Pending = std::move(Deferred);
    }
  }

  // --- Verdict: every failed module's diagnostics, in module-id order —
  // --- the same list serial analyzeDesign emits, whatever the schedule.
  support::Status Verdict;
  for (const support::DiagList &Diags : Failures)
    Verdict.append(Diags);

  // Backstop: the engine contains throws per-module, so nothing should
  // reach the pool's catch-all or the calling thread's; if something
  // does (a throw outside inferContained), it is still a structured
  // error, not a terminate.
  for (std::exception_ptr &P : Escaped) {
    std::string What = "unknown exception";
    try {
      std::rethrow_exception(P);
    } catch (const std::exception &E) {
      What = E.what();
    } catch (...) {
    }
    Verdict.add(support::Diag(support::DiagCode::WS604_WORKER_PANIC,
                              "worker panic escaped containment")
                    .withNote("what", What));
  }

  size_t DoneCount = 0, CancelledCount = 0, PanickedCount = 0;
  for (State S : States) {
    switch (S) {
    case State::Done:
      ++DoneCount;
      break;
    case State::Cancelled:
      ++CancelledCount;
      break;
    case State::Panicked:
      ++PanickedCount;
      break;
    default:
      break;
    }
  }
  if (CancelFlag || CancelledCount != 0) {
    CancelledC.add(CancelledCount);
    Verdict.add(
        support::Diag(support::DiagCode::WS601_CANCELLED,
                      "analysis cancelled before completion")
            .withNote("completed", std::to_string(DoneCount))
            .withNote("cancelled", std::to_string(CancelledCount))
            .withNote("modules", std::to_string(D.numModules())));
  }

  // Out holds exactly the completed modules; they survive even in a
  // cancelled run (partial progress warms the cache).
  Stats.CacheHits = Hits;
  Stats.Inferred = Inferred;
  Stats.Ascribed = AscribedCount;
  Stats.Cancelled = CancelledCount;
  Stats.Panicked = PanickedCount;
  ModulesC.add(Stats.Modules);
  InferredC.add(Stats.Inferred);
  AscribedC.add(Stats.Ascribed);
  return Verdict;
}

// --- Disk persistence -------------------------------------------------------

namespace {

/// Cache payload schema version carried by the StreamBegin record.
/// v1/v2 were text caches, which this build no longer reads.
constexpr uint64_t CachePayloadVersion = 3;

/// Composes a cache-v3 wire stream: StreamBegin(Cache, 3), then one
/// CacheEntry record (8-byte key + name-based summary body) per entry,
/// then StreamEnd. The framing checksums every record.
std::string
composeCachePayload(const Design &D,
                    const std::vector<std::pair<uint64_t,
                                                const ModuleSummary *>>
                        &Entries) {
  support::wire::Writer W;
  W.beginStream(support::wire::StreamKind::Cache, CachePayloadVersion);
  for (const auto &[Key, S] : Entries) {
    W.beginRecord(support::wire::RecordKind::CacheEntry);
    W.putFixed64(Key);
    analysis::detail::encodeSummaryBody(W, D.module(S->Id), *S);
    W.endRecord();
  }
  W.finish();
  return W.take();
}

/// saveCache's crash-safe atomic write: compose in memory, write
/// Path+".tmp", fsync, rename. The cache.save.partial failpoint writes
/// half the payload and dies without the rename, so Path keeps its
/// previous content (CrashRecoveryTest's property).
support::Status atomicWriteCache(const std::string &Path,
                                 const std::string &Payload) {
  static trace::Counter &RetriesC = trace::counter("fault.retries");
  const std::string Tmp = Path + ".tmp";

  auto ioFail = [](const char *Op, const std::string &P) {
    return support::Diag(support::DiagCode::WS602_CACHE_IO,
                         std::string("cannot save summary cache: ") + Op +
                             " failed",
                         support::Severity::Warning)
        .withNote("path", P)
        .withNote("detail", std::strerror(errno));
  };

  // Transient failures retry with backoff; persistent ones degrade to a
  // warning (the verdict never depends on the cache).
  support::Status LastFailure;
  for (int Attempt = 0; Attempt != 3; ++Attempt) {
    if (Attempt != 0) {
      RetriesC.add();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1u << Attempt));
    }

    int Fd;
    if (WS_FAILPOINT("cache.save.open")) {
      errno = EIO;
      Fd = -1;
    } else {
      Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    }
    if (Fd < 0) {
      LastFailure = ioFail("open", Tmp);
      continue;
    }

    // Crash simulation: write a torn prefix and die without the rename.
    // The recovery property (CrashRecoveryTest) is that Path still
    // holds the previous cache — the torn bytes only ever live in .tmp.
    if (WS_FAILPOINT("cache.save.partial")) {
      (void)!::write(Fd, Payload.data(), Payload.size() / 2);
      ::_exit(125);
    }

    bool WriteFailed = false;
    size_t Off = 0;
    while (Off != Payload.size()) {
      if (WS_FAILPOINT("cache.save.write")) {
        errno = EIO;
        WriteFailed = true;
        break;
      }
      ssize_t N =
          ::write(Fd, Payload.data() + Off, Payload.size() - Off);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        WriteFailed = true;
        break;
      }
      Off += static_cast<size_t>(N);
    }
    if (WriteFailed) {
      LastFailure = ioFail("write", Tmp);
      ::close(Fd);
      ::unlink(Tmp.c_str());
      continue;
    }

    int FsyncRc;
    if (WS_FAILPOINT("cache.save.fsync")) {
      errno = EIO;
      FsyncRc = -1;
    } else {
      FsyncRc = ::fsync(Fd);
    }
    if (FsyncRc != 0) {
      LastFailure = ioFail("fsync", Tmp);
      ::close(Fd);
      ::unlink(Tmp.c_str());
      continue;
    }
    if (::close(Fd) != 0) {
      LastFailure = ioFail("close", Tmp);
      ::unlink(Tmp.c_str());
      continue;
    }

    int RenameRc;
    if (WS_FAILPOINT("cache.save.rename")) {
      errno = EIO;
      ::unlink(Tmp.c_str());
      RenameRc = -1;
    } else {
      RenameRc = ::rename(Tmp.c_str(), Path.c_str());
    }
    if (RenameRc != 0) {
      LastFailure = ioFail("rename", Path);
      ::unlink(Tmp.c_str());
      continue;
    }
    return {};
  }
  return LastFailure;
}

} // namespace

support::Status SummaryEngine::saveCache(
    const std::string &Path, const Design &D,
    const std::map<ModuleId, ModuleSummary> &Summaries,
    const std::vector<uint64_t> &Keys) {
  std::vector<std::pair<uint64_t, const ModuleSummary *>> Entries;
  Entries.reserve(Summaries.size());
  for (const auto &[Id, S] : Summaries)
    if (Id < Keys.size())
      Entries.emplace_back(Keys[Id], &S);
  return atomicWriteCache(Path, composeCachePayload(D, Entries));
}

support::Expected<CacheLoadResult>
SummaryEngine::loadCache(const std::string &Path, const Design &D) {
  static trace::Counter &QuarantinedC =
      trace::counter("fault.quarantined_records");
  CacheLoadResult Res;

  std::ifstream File(Path);
  if (!File)
    return Res; // Cold start: a missing sidecar is not an error.
  if (WS_FAILPOINT("cache.load.read")) {
    // Injected unreadable file: degrade to a cold start with a warning,
    // exactly like a real EIO mid-read would.
    Res.Warnings.add(
        support::Diag(support::DiagCode::WS602_CACHE_IO,
                      "cannot read summary cache; starting cold",
                      support::Severity::Warning)
            .withNote("path", Path)
            .withNote("detail", "injected fault: cache.load.read"));
    return Res;
  }
  std::stringstream SS;
  SS << File.rdbuf();
  std::string Bytes = SS.str();
  if (Bytes.empty())
    return Res; // Cold start, like a missing sidecar.

  // The one format is the cache-v3 wire stream. Anything else — a
  // pre-v3 text cache, a design, a `.wsort` sidecar — is refused with
  // WS502 and left untouched: --cache may have named the wrong file.
  // Framing damage (bad checksum, truncation) quarantines the rest of
  // the stream: a length prefix after a corrupt frame cannot be trusted.
  support::wire::Reader R(Bytes);
  std::string Why;
  auto formatError = [&](const std::string &Msg) {
    return support::Diag(support::DiagCode::WS502_CACHE_FORMAT, Msg)
        .withLoc(support::SrcLoc{Path, 0, 0});
  };
  if (!R.readHeader(&Why))
    return formatError("not a loadable summary cache: " + Why);

  auto quarantineRest = [&](size_t Offset, const std::string &Reason) {
    ++Res.Quarantined;
    QuarantinedC.add();
    Res.Warnings.add(
        support::Diag(support::DiagCode::WS603_CACHE_CORRUPT,
                      "corrupt cache stream quarantined from damaged "
                      "record onward; affected modules will be "
                      "re-inferred",
                      support::Severity::Warning)
            .withLoc(support::SrcLoc{Path, 0, 0})
            .withNote("offset", std::to_string(Offset))
            .withNote("detail", Reason));
  };

  const ModuleIndex Modules(D);
  bool SawBegin = false;
  for (;;) {
    support::wire::Reader::Record Rec;
    switch (R.next(Rec)) {
    case support::wire::Reader::Item::End:
      return Res;
    case support::wire::Reader::Item::Exhausted:
      quarantineRest(Rec.Offset, "stream truncated before StreamEnd");
      return Res;
    case support::wire::Reader::Item::Truncated:
      quarantineRest(Rec.Offset, "record truncated");
      return Res;
    case support::wire::Reader::Item::Corrupt:
      quarantineRest(Rec.Offset, "record checksum mismatch");
      return Res;
    case support::wire::Reader::Item::Record:
      break;
    }
    if (Rec.Kind == support::wire::RecordKind::StreamBegin) {
      support::wire::Reader::Cursor C(Rec, R);
      uint8_t Kind = 0;
      uint64_t Version = 0;
      if (!C.getByte(Kind) || !C.getVarint(Version) ||
          Kind != static_cast<uint8_t>(support::wire::StreamKind::Cache))
        return formatError("not a summary cache stream (wrong stream kind)");
      if (Version > CachePayloadVersion)
        return formatError("cache format version " +
                           std::to_string(Version) +
                           " is newer than this build understands");
      SawBegin = true;
      continue;
    }
    if (Rec.Kind != support::wire::RecordKind::CacheEntry)
      continue; // Forward compat: skip record kinds we don't know.
    if (!SawBegin)
      return formatError("cache record before StreamBegin");
    if (WS_FAILPOINT("cache.load.corrupt")) {
      quarantineRest(Rec.Offset, "injected fault: cache.load.corrupt");
      return Res;
    }
    support::wire::Reader::Cursor C(Rec, R);
    uint64_t Key = 0;
    ModuleSummary S;
    std::string DecodeWhy;
    // The record passed its checksum, so a body that no longer resolves
    // is provably *stale*, not corrupt — the design evolved past it
    // (module renamed away, interface changed). Stale entries never hit,
    // so skipping silently loses nothing.
    if (!C.getFixed64(Key) ||
        !detail::decodeSummaryBody(C, D, Modules, S, DecodeWhy))
      continue;
    Cache.insert(Key, S);
    ++Res.Loaded;
  }
}
