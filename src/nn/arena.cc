#include "nn/arena.h"

#include <algorithm>
#include <bit>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define LIGHTTR_ARENA_POISON(ptr, bytes) ASAN_POISON_MEMORY_REGION(ptr, bytes)
#define LIGHTTR_ARENA_UNPOISON(ptr, bytes) \
  ASAN_UNPOISON_MEMORY_REGION(ptr, bytes)
#else
#define LIGHTTR_ARENA_POISON(ptr, bytes) (void)0
#define LIGHTTR_ARENA_UNPOISON(ptr, bytes) (void)0
#endif

namespace lighttr::nn {

namespace {

// AVX2 vector width: every block can be loaded with aligned 4-double
// vectors (kernels currently use unaligned loads, so this is headroom,
// not a correctness requirement).
constexpr size_t kAlignment = 32;
// Blocks above this many elements (16 MiB) skip the freelists: shapes
// that large are one-off experiment buffers, not per-step temporaries,
// and caching them would pin memory for the process lifetime.
constexpr size_t kMaxCachedElements = size_t{1} << 21;
constexpr size_t kNumClasses = 22;  // class c holds 2^c elements, c <= 21

// Whether a request of `elements` is served by a size class (0 wraps
// past the limit and, like an oversized request, goes to the heap).
bool Cacheable(size_t elements) { return elements - 1 < kMaxCachedElements; }

// Index of the smallest power-of-two class holding `n` >= 1 elements;
// the smallest class, 2, holds one AVX2 vector of Scalars.
size_t ClassIndex(size_t n) {
  return std::max<size_t>(2, std::bit_width(n - 1));
}

Scalar* HeapAcquire(size_t elements) {
  return static_cast<Scalar*>(
      ::operator new(elements * sizeof(Scalar), std::align_val_t{kAlignment}));
}

void HeapRelease(Scalar* block) {
  ::operator delete(block, std::align_val_t{kAlignment});
}

// A heap block of the full class size for a cacheable request, so any
// arena may later park it in a freelist.
Scalar* HeapAcquireBlock(size_t elements) {
  if (!Cacheable(elements)) return HeapAcquire(elements);
  return HeapAcquire(size_t{1} << ClassIndex(elements));
}

// Trivially destructible, so it stays readable while the thread's other
// thread_locals are torn down: a buffer freed after this thread's arena
// is gone (by a thread_local or static that outlives it) goes straight
// to the heap.
thread_local bool t_arena_gone = false;

// One thread's pool: LIFO freelists per power-of-two size class. LIFO
// keeps the hottest (cache-resident) block on top; plain vectors keep
// reuse order independent of block addresses.
class Arena {
 public:
  ~Arena() {
    Trim();
    t_arena_gone = true;
  }

  Scalar* Acquire(size_t elements) {
    ++stats_.acquires;
    if (!Cacheable(elements)) {
      ++stats_.heap_allocations;
      return HeapAcquire(elements);
    }
    // Cacheable sizes always allocate the full class size — even under
    // bypass — so a block's footprint never depends on the bypass flag
    // at acquire time (toggling it between acquire and release must not
    // park an undersized block in a freelist).
    const size_t c = ClassIndex(elements);
    if (bypass_) {
      ++stats_.heap_allocations;
      return HeapAcquire(size_t{1} << c);
    }
    std::vector<Scalar*>& list = freelists_[c];
    if (!list.empty()) {
      Scalar* block = list.back();
      list.pop_back();
      ++stats_.pool_hits;
      --stats_.cached_blocks;
      stats_.cached_bytes -= static_cast<int64_t>(ClassBytes(c));
      LIGHTTR_ARENA_UNPOISON(block, ClassBytes(c));
      return block;
    }
    ++stats_.heap_allocations;
    return HeapAcquire(size_t{1} << c);
  }

  void Release(Scalar* block, size_t elements) {
    ++stats_.releases;
    if (bypass_ || !Cacheable(elements)) {
      HeapRelease(block);
      return;
    }
    const size_t c = ClassIndex(elements);
    const int64_t bytes = static_cast<int64_t>(ClassBytes(c));
    if (stats_.cached_bytes + bytes > kMaxCachedBytes) {
      HeapRelease(block);
      return;
    }
    freelists_[c].push_back(block);
    ++stats_.cached_blocks;
    stats_.cached_bytes += bytes;
    LIGHTTR_ARENA_POISON(block, ClassBytes(c));
  }

  void Trim() {
    for (size_t c = 0; c < kNumClasses; ++c) {
      for (Scalar* block : freelists_[c]) {
        LIGHTTR_ARENA_UNPOISON(block, ClassBytes(c));
        HeapRelease(block);
      }
      freelists_[c].clear();
    }
    stats_.cached_blocks = 0;
    stats_.cached_bytes = 0;
  }

  bool SetBypass(bool bypass) {
    const bool previous = bypass_;
    bypass_ = bypass;
    return previous;
  }

  const ArenaStats& stats() const { return stats_; }

 private:
  static size_t ClassBytes(size_t c) { return (size_t{1} << c) * sizeof(Scalar); }

  std::vector<Scalar*> freelists_[kNumClasses];
  ArenaStats stats_;
  bool bypass_ = false;
};

// Null once this thread's arena has been destroyed.
Arena* ThreadArena() {
  if (t_arena_gone) return nullptr;
  thread_local Arena arena;
  return &arena;
}

}  // namespace

ArenaStats ThreadArenaStats() {
  Arena* arena = ThreadArena();
  return arena != nullptr ? arena->stats() : ArenaStats{};
}

void TrimThreadArena() {
  if (Arena* arena = ThreadArena()) arena->Trim();
}

bool SetArenaBypass(bool bypass) {
  Arena* arena = ThreadArena();
  return arena != nullptr && arena->SetBypass(bypass);
}

Scalar* AcquireArenaBlock(size_t elements) {
  if (Arena* arena = ThreadArena()) return arena->Acquire(elements);
  return HeapAcquireBlock(elements);
}

void ReleaseArenaBlock(Scalar* block, size_t elements) {
  if (Arena* arena = ThreadArena()) {
    arena->Release(block, elements);
  } else {
    HeapRelease(block);
  }
}

ArenaBuffer::ArenaBuffer(size_t size) : size_(size) {
  if (size_ == 0) return;
  data_ = AcquireArenaBlock(size_);
  std::fill(data_, data_ + size_, Scalar{0});
}

ArenaBuffer::ArenaBuffer(const ArenaBuffer& other) : size_(other.size_) {
  if (size_ == 0) return;
  data_ = AcquireArenaBlock(size_);
  std::copy(other.data_, other.data_ + size_, data_);
}

ArenaBuffer::ArenaBuffer(ArenaBuffer&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

ArenaBuffer& ArenaBuffer::operator=(const ArenaBuffer& other) {
  if (this == &other) return *this;
  // Same-size assignment reuses the block in place; anything else
  // swaps through a fresh copy.
  if (size_ == other.size_) {
    if (size_ != 0) std::copy(other.data_, other.data_ + size_, data_);
    return *this;
  }
  ArenaBuffer copy(other);
  *this = std::move(copy);
  return *this;
}

ArenaBuffer& ArenaBuffer::operator=(ArenaBuffer&& other) noexcept {
  if (this == &other) return *this;
  if (data_ != nullptr) ReleaseArenaBlock(data_, size_);
  data_ = other.data_;
  size_ = other.size_;
  other.data_ = nullptr;
  other.size_ = 0;
  return *this;
}

ArenaBuffer::~ArenaBuffer() {
  if (data_ != nullptr) ReleaseArenaBlock(data_, size_);
}

}  // namespace lighttr::nn
