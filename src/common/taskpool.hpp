// A small fixed-size worker-thread pool for deterministic fan-out.
//
// TaskPool::run(n, fn) executes fn(i) for every index i in [0, n) across a
// fixed set of worker threads (the calling thread participates too) and
// blocks until every index has run. It is built for the cluster simulator's
// parallel drain (serve/cluster.cpp), whose requirements shape the
// contract:
//
//   * Index-addressed work, not futures. Tasks are independent by
//     construction (each index touches its own replica); the pool never
//     orders them, and the CALLER commits results in index order afterwards
//     -- that commit discipline, not the pool, is what makes parallel runs
//     bit-identical to sequential ones.
//   * Chunked hand-out. Indices are claimed in contiguous chunks via one
//     atomic counter, so a million tiny tasks cost a few hundred
//     fetch_adds, and neighbouring indices (neighbouring replicas) stay on
//     one thread for locality.
//   * Deterministic exception propagation. If any invocation throws, run()
//     finishes the remaining indices (tasks are independent), then rethrows
//     the exception raised by the LOWEST index -- the same exception a
//     sequential loop would have surfaced first.
//   * Reusable. One pool serves any number of run() calls; workers idle on
//     a condition variable between them. run() itself must not be called
//     concurrently or reentrantly (one fan-out at a time).
//
// A pool of size 1 spawns no threads at all: run() degenerates to the plain
// sequential loop, so `threads = 1` configurations carry zero threading
// overhead (and zero behavior risk).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace monde::common {

/// Fixed worker-thread pool; see the file comment for the contract.
class TaskPool {
 public:
  /// `threads` is the TOTAL parallelism of a run() call: the calling thread
  /// plus threads - 1 spawned workers. Must be >= 1; 1 means fully
  /// sequential (no threads are spawned).
  explicit TaskPool(std::size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Total parallelism (spawned workers + the caller).
  [[nodiscard]] std::size_t threads() const { return workers_.size() + 1; }

  /// Execute fn(i) for every i in [0, n); blocks until all ran. Every index
  /// executes exactly once even when some throw; the lowest-index exception
  /// is rethrown. Not reentrant; one run() at a time.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// One fan-out in flight. Lives on run()'s stack; workers borrow it
  /// through job_ under mu_.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 1;
    std::atomic<std::size_t> next{0};    ///< first unclaimed index
    std::atomic<std::size_t> done{0};    ///< indices finished (success or throw)
    std::atomic<std::size_t> active{0};  ///< workers currently inside the job
    std::mutex err_mu;
    std::size_t err_index = 0;  ///< lowest throwing index so far
    std::exception_ptr err;     ///< its exception (null = no failure)
  };

  /// Claim and execute chunks until the job is exhausted.
  void work_on(Job& job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;       ///< wakes workers: new job or shutdown
  std::condition_variable done_cv_;  ///< wakes run(): all indices finished
  Job* job_ = nullptr;               ///< current fan-out (null = idle)
  std::uint64_t generation_ = 0;     ///< bumped per run(); workers join each job once
  bool stop_ = false;
};

}  // namespace monde::common
