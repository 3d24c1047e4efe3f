// Thread-local tensor arena: a size-classed pool allocator behind every
// Matrix (and therefore every Tensor temporary) and every graph node
// (nn/tensor.cc draws each node as one fixed-size block).
//
// Training allocates the same handful of shapes thousands of times per
// round — gate pre-activations, gradients, packed GEMM operands, graph
// nodes. The arena turns that churn into freelist hits: blocks are
// 32-byte aligned (AVX2 vector width), bucketed by power-of-two element
// count, and recycled on release instead of returned to the heap.
// Steady-state rounds perform ~0 heap allocations in the tensor hot path
// (the `bench_kernels --smoke` gate asserts this).
//
// Determinism: the arena hands out storage only — values are always
// written before being read (ArenaBuffer zero-fills on construction),
// so recycling cannot leak state between tensors. Freelists are plain
// vectors (LIFO), never address-ordered maps, keeping the determinism
// lint family happy and the reuse pattern independent of allocator
// addresses.
//
// Thread-safety: one arena per thread (thread_local), zero locks.
// Blocks are fungible heap memory: a buffer released on a different
// thread than it was acquired on simply joins the releasing thread's
// pool (long-lived model state built on the coordinator but retired on
// a pool worker stays safe — only the per-thread stats attribution
// shifts). A thread caches at most kMaxCachedBytes, so one that frees
// what others allocate stays bounded.
#ifndef LIGHTTR_NN_ARENA_H_
#define LIGHTTR_NN_ARENA_H_

#include <cstddef>
#include <cstdint>

namespace lighttr::nn {

/// Numeric type of all network math. Double keeps finite-difference
/// gradient checks tight; at these model sizes it is not slower than
/// float on scalar CPU code. (Lives here, below matrix.h, so the arena
/// can size blocks in elements.)
using Scalar = double;

/// Lifetime counters of one thread's arena. Deltas across a workload
/// are the allocation-churn metric: a steady-state training round must
/// show pool_hits advancing while heap_allocations stays flat.
struct ArenaStats {
  int64_t acquires = 0;          // total Acquire() calls
  int64_t pool_hits = 0;         // served from a freelist
  int64_t heap_allocations = 0;  // fell through to ::operator new
  int64_t releases = 0;          // total Release() calls
  int64_t cached_blocks = 0;     // currently parked in freelists
  int64_t cached_bytes = 0;      // bytes parked in freelists
};

/// Bound on one thread's cached_bytes. A released block that would take
/// the cache past it goes back to the heap, so a thread that frees what
/// other threads allocate (a coordinator retiring the gradients and Adam
/// moments its pool workers built) cannot grow without bound. It sits
/// about 2x above the largest single-threaded job's cache (~68 MB,
/// RNTrajRec+FL at LIGHTTR_SCALE=full), so no such job reaches it.
inline constexpr int64_t kMaxCachedBytes = int64_t{128} << 20;

/// This thread's arena stats (see ArenaStats).
ArenaStats ThreadArenaStats();

/// Frees every block cached by this thread's arena (stats keep their
/// lifetime counts). Used by tests to prove reuse semantics and by
/// long-lived processes to return memory after a burst.
void TrimThreadArena();

/// When true, Acquire/Release on this thread bypass the freelists and
/// hit the heap directly — the "no arena" baseline for bench_kernels.
/// Returns the previous value.
bool SetArenaBypass(bool bypass);

/// Raw arena entry points (ArenaBuffer is the owning wrapper).
/// AcquireArenaBlock returns a 32-byte-aligned, uninitialised block of
/// at least `elements` Scalars; ReleaseArenaBlock parks it for reuse.
/// `elements` must be the same value passed to Acquire.
Scalar* AcquireArenaBlock(size_t elements);
void ReleaseArenaBlock(Scalar* block, size_t elements);

/// Value-semantic Scalar buffer drawing from the thread arena — the
/// storage behind Matrix. Mirrors the std::vector<Scalar> it replaced:
/// sized construction zero-fills, copies are deep, moves steal.
class ArenaBuffer {
 public:
  ArenaBuffer() = default;
  explicit ArenaBuffer(size_t size);
  ArenaBuffer(const ArenaBuffer& other);
  ArenaBuffer(ArenaBuffer&& other) noexcept;
  ArenaBuffer& operator=(const ArenaBuffer& other);
  ArenaBuffer& operator=(ArenaBuffer&& other) noexcept;
  ~ArenaBuffer();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Scalar* data() { return data_; }
  const Scalar* data() const { return data_; }
  Scalar& operator[](size_t i) { return data_[i]; }
  Scalar operator[](size_t i) const { return data_[i]; }

  Scalar* begin() { return data_; }
  Scalar* end() { return data_ + size_; }
  const Scalar* begin() const { return data_; }
  const Scalar* end() const { return data_ + size_; }

 private:
  Scalar* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_ARENA_H_
