// Global floating-point-operation accounting (paper Fig. 5(b)).
//
// The matrix kernels and element-wise ops report their work here. Each
// thread accumulates into its own registered slot (a relaxed atomic
// that only its owner writes, by a load and a store, with no locked
// add), so counting is race-free under the thread pool; TotalFlops()
// merges every live slot plus the drained counts of exited threads. The merge is exact at any synchronization barrier:
// after ThreadPool::ParallelFor returns, all worker-side AddFlops calls
// happen-before the caller's TotalFlops read.
#ifndef LIGHTTR_NN_FLOPS_H_
#define LIGHTTR_NN_FLOPS_H_

#include <cstdint>

namespace lighttr::nn {

/// Adds `n` floating point operations to the calling thread's counter.
void AddFlops(int64_t n);

/// Total FLOPs recorded since program start, across all threads (live
/// thread slots + counts drained from exited threads).
int64_t TotalFlops();

/// FLOPs recorded by the calling thread alone (still included in
/// TotalFlops; exposed for tests and per-worker telemetry).
int64_t ThreadFlops();

/// Measures FLOPs executed between construction and Elapsed(). Spans
/// pool sections correctly when constructed and read on the thread that
/// issues the ParallelFor (worker counts merge at the barrier).
class ScopedFlopCount {
 public:
  ScopedFlopCount() : start_(TotalFlops()) {}
  int64_t Elapsed() const { return TotalFlops() - start_; }

 private:
  int64_t start_;
};

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_FLOPS_H_
