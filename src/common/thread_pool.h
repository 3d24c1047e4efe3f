// Deterministic parallel execution substrate.
//
// A fixed-size worker pool exposing one primitive, ParallelFor(n, fn):
// run fn(0) .. fn(n-1) exactly once each, on the caller plus the pool's
// workers, and return when all are done. Work items must be independent
// of execution order; everything in this repo that runs on the pool is
// structured so that results are bitwise identical for any thread count
// (per-task RNG streams forked in canonical order, outputs written to
// pre-sized slots, floating-point reductions performed by the caller in
// canonical index order).
//
// This header is the only sanctioned home of raw std::thread in the
// repo (enforced by the `no-raw-thread` lint rule): bounding all
// parallelism to one substrate is what keeps the determinism contract
// and the TSan matrix meaningful.
#ifndef LIGHTTR_COMMON_THREAD_POOL_H_
#define LIGHTTR_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lighttr {

/// Fixed-size worker pool. A pool of size 1 spawns no threads at all:
/// ParallelFor degrades to a plain serial loop on the caller, which is
/// the bit-exact serial reference path (`--threads=1`).
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller is the remaining
  /// executor). `threads` is clamped to at least 1.
  explicit ThreadPool(int threads);

  /// Joins all workers. No ParallelFor may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executor count (workers + the calling thread).
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n), each exactly once, distributing
  /// indices dynamically over the caller and the workers. Blocks until
  /// every index has completed. If any invocation throws, the first
  /// captured exception is rethrown on the caller after the barrier
  /// (remaining indices still run). Reentrant calls from inside a task
  /// run inline on the invoking thread — nested parallelism collapses
  /// to serial instead of deadlocking.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// True when the current thread is a worker of *any* ThreadPool.
  /// Library kernels use this to stay serial inside pool tasks instead
  /// of re-entering a pool.
  static bool OnWorkerThread();

 private:
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};  // next unclaimed index
    size_t workers_done = 0;      // guarded by ThreadPool::mutex_
    std::exception_ptr error;     // first failure, guarded by mutex_
  };

  void WorkerLoop();
  void RunShare(Job* job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a new job (or shutdown)
  std::condition_variable done_cv_;  // caller: all workers finished
  Job* job_ = nullptr;               // guarded by mutex_
  uint64_t generation_ = 0;          // bumped per job, guarded by mutex_
  bool shutdown_ = false;            // guarded by mutex_
};

/// The most executors any pool is asked for: LIGHTTR_THREADS, a
/// program's --threads and ResolveThreadCount all stop here.
inline constexpr int kMaxThreads = 1024;

/// Thread count from the environment: LIGHTTR_THREADS when its digits
/// (ParseNumber) name a count in [1, kMaxThreads], otherwise
/// std::thread::hardware_concurrency (at least 1). This is the
/// process-wide default ("--threads=0").
int DefaultThreadCount();

/// Maps a requested thread count to an effective one: values in
/// [1, kMaxThreads] pass through, values < 1 resolve to
/// DefaultThreadCount(), and a value past the cap is a CHECK failure.
int ResolveThreadCount(int requested);

/// Lazily constructed process-global pool (DefaultThreadCount() wide).
/// Shared by data-parallel kernels (e.g. the blocked GEMM row split).
ThreadPool* GlobalThreadPool();

/// Replaces the global pool with one of `threads` executors. Callers
/// must ensure no ParallelFor is running on the old pool. Used by the
/// --threads flag and by benchmarks sweeping thread counts.
void SetGlobalThreadCount(int threads);

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_THREAD_POOL_H_
