#include "common/thread_pool.h"

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/check.h"
#include "common/parse_number.h"

namespace lighttr {

namespace {

// Set while a thread executes pool work (its own share of a ParallelFor
// included, for workers only — the caller keeps false so it can still
// fan out further sections after this one completes).
thread_local bool t_on_worker_thread = false;

// The pool this thread is currently dispatching a ParallelFor on, if
// any. Catches caller-side reentrancy: the caller runs its own share of
// a section, and a nested ParallelFor on the *same* pool from that
// share must collapse to inline (a different pool is free to fan out).
thread_local const void* t_dispatching_pool = nullptr;

}  // namespace

bool ThreadPool::OnWorkerThread() { return t_on_worker_thread; }

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunShare(Job* job) {
  std::exception_ptr error;
  for (;;) {
    const size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->n) break;
    try {
      (*job->fn)(i);
    } catch (...) {
      // Remember the first failure but keep draining indices: every
      // index must run exactly once regardless of other tasks' fate.
      if (!error) error = std::current_exception();
    }
  }
  if (error) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!job->error) job->error = error;
  }
}

void ThreadPool::WorkerLoop() {
  t_on_worker_thread = true;
  uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    RunShare(job);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++job->workers_done;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || OnWorkerThread() ||
      t_dispatching_pool == this) {
    // Serial reference path: a size-1 pool, a single task, or a nested
    // call from inside a pool task all run inline, in index order.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LIGHTTR_CHECK(job_ == nullptr);  // one section at a time per pool
    job_ = &job;
    ++generation_;
  }
  work_cv_.notify_all();
  const void* previous_pool = t_dispatching_pool;
  t_dispatching_pool = this;
  RunShare(&job);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job.workers_done == workers_.size(); });
    job_ = nullptr;
  }
  t_dispatching_pool = previous_pool;
  if (job.error) std::rethrow_exception(job.error);
}

int DefaultThreadCount() {
  uint64_t parsed = 0;
  if (const char* env = std::getenv("LIGHTTR_THREADS");
      env != nullptr && ParseNumber(env, &parsed) && parsed >= 1 &&
      parsed <= static_cast<uint64_t>(kMaxThreads)) {
    return static_cast<int>(parsed);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware >= 1 ? static_cast<int>(hardware) : 1;
}

int ResolveThreadCount(int requested) {
  LIGHTTR_CHECK_LE(requested, kMaxThreads);
  return requested >= 1 ? requested : DefaultThreadCount();
}

namespace {
struct GlobalPoolState {
  std::mutex mutex;
  std::unique_ptr<ThreadPool> pool;  // guarded by mutex
};
GlobalPoolState& GlobalPool() {
  static GlobalPoolState state;
  return state;
}
}  // namespace

ThreadPool* GlobalThreadPool() {
  GlobalPoolState& state = GlobalPool();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!state.pool) {
    state.pool = std::make_unique<ThreadPool>(DefaultThreadCount());
  }
  return state.pool.get();
}

void SetGlobalThreadCount(int threads) {
  GlobalPoolState& state = GlobalPool();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.pool = std::make_unique<ThreadPool>(ResolveThreadCount(threads));
}

}  // namespace lighttr
