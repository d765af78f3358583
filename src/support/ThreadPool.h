//===- support/ThreadPool.h - Fixed-size FIFO thread pool -------*- C++ -*-===//
//
// Part of the wiresort project, a reproduction of "Wire Sorts: A Language
// Abstraction for Safe Hardware Composition" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small thread pool for module-sized work: one round of Stage-1
/// inference (the SummaryEngine submits a round's modules but the
/// largest, infers that one on its own thread, and waits for the rest)
/// and one connection per task in the serving daemon. Tasks
/// take microseconds to seconds, so the design optimizes for simplicity
/// and verifiable synchronization over lock-free throughput: one FIFO
/// queue under one mutex, shared by every worker. submit() is safe from
/// any thread, including from inside a running task.
///
//===----------------------------------------------------------------------===//

#ifndef WIRESORT_SUPPORT_THREADPOOL_H
#define WIRESORT_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace wiresort {

/// Fixed-size pool of workers serving one FIFO task queue.
///
/// Lifetime: workers start in the constructor and join in the destructor,
/// which first lets them drain the queue. wait() blocks until every
/// submitted task (including tasks submitted by running tasks) has
/// finished; the pool is reusable after wait().
class ThreadPool {
public:
  /// Creates \p NumThreads workers; 0 picks hardware_concurrency (at
  /// least 1). A pool of size 1 still runs tasks on its single worker
  /// thread, preserving the submit/wait discipline of larger pools.
  explicit ThreadPool(unsigned NumThreads = 0) {
    if (NumThreads == 0) {
      NumThreads = std::thread::hardware_concurrency();
      if (NumThreads == 0)
        NumThreads = 1;
    }
    Workers.reserve(NumThreads);
    for (unsigned I = 0; I != NumThreads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Stopping = true;
    }
    WorkAvailable.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Enqueues \p Task at the back of the queue. Safe from any thread.
  void submit(std::function<void()> Task) {
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      ++Pending;
      Queue.push_back(std::move(Task));
    }
    WorkAvailable.notify_one();
  }

  /// Blocks until all submitted tasks have completed. Must not be called
  /// from inside a task (it would deadlock a single-threaded pool).
  void wait() {
    std::unique_lock<std::mutex> Lock(Mutex);
    AllDone.wait(Lock, [this] { return Pending == 0; });
  }

  /// Exceptions that escaped tasks since the last drain, in completion
  /// order. A throwing task on a plain std::thread would std::terminate
  /// the process; here the worker catches it, keeps serving the queue,
  /// and parks the std::exception_ptr for the owner to collect after
  /// wait() — the containment contract docs/ROBUSTNESS.md describes.
  /// (The SummaryEngine additionally catches per-module so a panic can
  /// be *attributed*; this is the backstop for everything else.)
  std::vector<std::exception_ptr> drainExceptions() {
    std::unique_lock<std::mutex> Lock(Mutex);
    return std::exchange(Escaped, {});
  }

private:
  void workerLoop() {
    for (;;) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        WorkAvailable.wait(Lock,
                           [this] { return Stopping || !Queue.empty(); });
        if (Queue.empty())
          return; // Stopping, and the queue is drained.
        Task = std::move(Queue.front());
        Queue.pop_front();
      }
      std::exception_ptr Thrown;
      try {
        Task();
      } catch (...) {
        Thrown = std::current_exception();
      }
      Task = nullptr; // Release captures before reporting completion.
      {
        std::unique_lock<std::mutex> Lock(Mutex);
        if (Thrown)
          Escaped.push_back(std::move(Thrown));
        if (--Pending == 0)
          AllDone.notify_all();
      }
    }
  }

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t Pending = 0;
  bool Stopping = false;
  /// Exceptions that escaped tasks, awaiting drainExceptions().
  std::vector<std::exception_ptr> Escaped;
};

} // namespace wiresort

#endif // WIRESORT_SUPPORT_THREADPOOL_H
