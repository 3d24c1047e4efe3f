#include "nn/flops.h"

#include <atomic>
#include <mutex>
#include <vector>

namespace lighttr::nn {

namespace {

// Registry of per-thread counters. A thread's slot is registered on its
// first AddFlops and drained into `retired` when the thread exits, so
// totals survive worker churn. The registry itself is intentionally
// never destroyed: thread_local destructors of late-exiting threads may
// run after static destructors would have torn it down.
struct FlopRegistry {
  std::mutex mutex;
  std::vector<const std::atomic<int64_t>*> slots;  // guarded by mutex
  int64_t retired = 0;                             // guarded by mutex
};

FlopRegistry& Registry() {
  static FlopRegistry* registry = new FlopRegistry();
  return *registry;
}

struct ThreadSlot {
  std::atomic<int64_t> count{0};

  ThreadSlot() {
    FlopRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.slots.push_back(&count);
  }

  ~ThreadSlot() {
    FlopRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.retired += count.load(std::memory_order_relaxed);
    for (size_t i = 0; i < registry.slots.size(); ++i) {
      if (registry.slots[i] == &count) {
        registry.slots.erase(registry.slots.begin() +
                             static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
};

ThreadSlot& Slot() {
  thread_local ThreadSlot slot;
  return slot;
}

}  // namespace

void AddFlops(int64_t n) {
  // Only the owning thread writes its slot, so a relaxed load and store
  // keep the count exact without a locked add; other threads only read
  // it (TotalFlops), through relaxed atomic loads.
  std::atomic<int64_t>& count = Slot().count;
  count.store(count.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
}

int64_t ThreadFlops() {
  return Slot().count.load(std::memory_order_relaxed);
}

int64_t TotalFlops() {
  FlopRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  int64_t total = registry.retired;
  for (const std::atomic<int64_t>* slot : registry.slots) {
    total += slot->load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace lighttr::nn
