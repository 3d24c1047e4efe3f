// Tests for the deterministic parallel execution substrate
// (common/thread_pool) and the thread-local FLOPs accounting it must
// compose with: every index runs exactly once at any width, exceptions
// cross the barrier, nested sections collapse to serial, and worker
// FLOPs merge exactly at the ParallelFor barrier.
#include "common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "nn/flops.h"

namespace lighttr {
namespace {

TEST(ThreadPoolTest, ReportsRequestedWidthAndClampsToOne) {
  ThreadPool one(1);
  EXPECT_EQ(one.threads(), 1);
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
  ThreadPool eight(8);
  EXPECT_EQ(eight.threads(), 8);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int width : {1, 2, 8}) {
    ThreadPool pool(width);
    const size_t n = 1000;
    std::vector<std::atomic<int>> counts(n);
    pool.ParallelFor(n, [&](size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(counts[i].load(), 1) << "width=" << width << " index=" << i;
    }
  }
}

TEST(ThreadPoolTest, ZeroAndSingleIterationWork) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller (no handoff), so a plain int is safe.
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i % 7 == 3) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must survive a throwing section and run the next one fully.
  std::atomic<int> ran{0};
  pool.ParallelFor(64, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  const size_t outer = 16;
  const size_t inner = 8;
  std::vector<std::atomic<int>> counts(outer * inner);
  pool.ParallelFor(outer, [&](size_t i) {
    // Reentrant call: must run serially on this thread, not deadlock.
    pool.ParallelFor(inner, [&](size_t j) {
      counts[i * inner + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPoolTest, OnWorkerThreadDistinguishesCallerFromWorkers) {
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
  ThreadPool pool(8);
  std::atomic<int> worker_hits{0};
  std::atomic<int> caller_hits{0};
  pool.ParallelFor(256, [&](size_t) {
    (ThreadPool::OnWorkerThread() ? worker_hits : caller_hits).fetch_add(1);
  });
  // Every index ran on either the caller or a worker; the flag never
  // leaks back onto the caller.
  EXPECT_EQ(worker_hits.load() + caller_hits.load(), 256);
  EXPECT_FALSE(ThreadPool::OnWorkerThread());
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  ASSERT_EQ(unsetenv("LIGHTTR_THREADS"), 0);
  const int hardware = DefaultThreadCount();
  EXPECT_GE(hardware, 1);
  ASSERT_EQ(setenv("LIGHTTR_THREADS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(DefaultThreadCount(), 5);
  EXPECT_EQ(ResolveThreadCount(0), 5);
  ASSERT_EQ(setenv("LIGHTTR_THREADS", "1024", 1), 0);
  EXPECT_EQ(DefaultThreadCount(), kMaxThreads);
  // Anything but plain digits naming [1, kMaxThreads] falls back to the
  // hardware count, exactly as an unset variable does.
  for (const char* bad : {"garbage", "2x", " 2", "+2", "0", "-3", "1025",
                          "2000", ""}) {
    ASSERT_EQ(setenv("LIGHTTR_THREADS", bad, 1), 0);
    EXPECT_EQ(DefaultThreadCount(), hardware) << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv("LIGHTTR_THREADS"), 0);
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(kMaxThreads), kMaxThreads);
}

TEST(ThreadPoolTest, GlobalPoolIsResizable) {
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadPool()->threads(), 3);
  std::atomic<int> ran{0};
  GlobalThreadPool()->ParallelFor(10, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
  SetGlobalThreadCount(1);
  EXPECT_EQ(GlobalThreadPool()->threads(), 1);
}

TEST(ThreadPoolTest, WorkerFlopsMergeExactlyAtTheBarrier) {
  ThreadPool pool(8);
  const nn::ScopedFlopCount scope;
  const size_t n = 100;
  pool.ParallelFor(n, [&](size_t) { nn::AddFlops(7); });
  // All worker-side AddFlops happen-before the barrier's return, so the
  // dispatching thread reads the exact total (no lost or torn counts).
  EXPECT_EQ(scope.Elapsed(), static_cast<int64_t>(7 * n));
}

TEST(ThreadPoolTest, ThreadFlopsCountsOnlyTheCallingThread) {
  const int64_t before_thread = nn::ThreadFlops();
  const int64_t before_total = nn::TotalFlops();
  nn::AddFlops(11);
  EXPECT_EQ(nn::ThreadFlops() - before_thread, 11);
  EXPECT_EQ(nn::TotalFlops() - before_total, 11);
}

}  // namespace
}  // namespace lighttr
