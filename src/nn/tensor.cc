#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <cstddef>

#include "common/check.h"
#include "nn/arena.h"

namespace lighttr::nn {

namespace {

// Every node is one std::allocate_shared block (control block plus
// TensorNode) drawn from the tensor arena, so nodes share its
// freelists, stats, cache bound, thread rules and ASan poisoning
// (DESIGN.md §14.4). The control block adds a vtable pointer and two
// counts to TensorNode; NodeAllocator::allocate static_asserts that the
// block fits.
constexpr size_t kNodeElements =
    (sizeof(TensorNode) + 4 * sizeof(void*) + sizeof(Scalar) - 1) /
    sizeof(Scalar);

// The allocator std::allocate_shared rebinds to its control block type.
template <typename T>
struct NodeAllocator {
  using value_type = T;

  NodeAllocator() = default;
  template <typename U>
  NodeAllocator(const NodeAllocator<U>&) noexcept {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    static_assert(sizeof(T) <= kNodeElements * sizeof(Scalar));
    static_assert(alignof(T) <= alignof(std::max_align_t));
    LIGHTTR_CHECK_EQ(n, 1u);
    return static_cast<T*>(
        static_cast<void*>(AcquireArenaBlock(kNodeElements)));
  }
  void deallocate(T* block, size_t) noexcept {
    ReleaseArenaBlock(static_cast<Scalar*>(static_cast<void*>(block)),
                      kNodeElements);
  }

  template <typename U>
  bool operator==(const NodeAllocator<U>&) const noexcept {
    return true;
  }
};

// Both thread_local: each pool worker builds and walks its own client's
// graph, so creation order only needs to be monotonic per thread (a
// backward graph never spans threads — ops created during one forward
// all run on one thread; shared leaves carry no backward_fn, so their
// cross-thread sequence values never influence the topological sort).
thread_local uint64_t g_sequence = 0;
thread_local int g_no_grad_depth = 0;
// Visit epochs are process-global (unlike g_sequence): a model's graph
// nodes outlive one round and may be walked from a different worker
// thread next round, so per-thread epochs could collide with a stale
// visit_tag and silently skip a node's backward_fn.
std::atomic<uint64_t> g_visit_epoch{0};

std::shared_ptr<TensorNode> NewNode(Matrix value, bool requires_grad) {
  auto node = std::allocate_shared<TensorNode>(NodeAllocator<TensorNode>());
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->sequence = ++g_sequence;
  return node;
}

}  // namespace

NoGradScope::NoGradScope() { ++g_no_grad_depth; }
NoGradScope::~NoGradScope() { --g_no_grad_depth; }
bool NoGradScope::Active() { return g_no_grad_depth > 0; }

Tensor Tensor::Constant(Matrix value) {
  return Tensor(NewNode(std::move(value), /*requires_grad=*/false));
}

Tensor Tensor::Variable(Matrix value) {
  return Tensor(NewNode(std::move(value), /*requires_grad=*/true));
}

Tensor Tensor::MakeOp(Matrix value, std::vector<Tensor> parents,
                      std::function<void(TensorNode&)> backward_fn) {
  LIGHTTR_DCHECK(!NoGradScope::Active());
  LIGHTTR_DCHECK(std::any_of(parents.begin(), parents.end(),
                             [](const Tensor& p) { return p.requires_grad(); }));
  std::shared_ptr<TensorNode> node =
      NewNode(std::move(value), /*requires_grad=*/true);
  node->parents = std::move(parents);
  node->backward_fn = std::move(backward_fn);
  return Tensor(std::move(node));
}

Scalar Tensor::ScalarValue() const {
  LIGHTTR_CHECK_EQ(rows(), 1u);
  LIGHTTR_CHECK_EQ(cols(), 1u);
  return node_->value(0, 0);
}

void Tensor::Backward() {
  LIGHTTR_CHECK(defined());
  LIGHTTR_CHECK_EQ(node_->value.size(), 1u);
  if (!node_->requires_grad) return;  // graph has no trainable leaves

  // Collect reachable nodes (iterative DFS to survive deep BPTT
  // graphs). Visited marks live on the nodes themselves, stamped with a
  // fresh epoch per walk, so no pointer-keyed set is needed.
  const uint64_t epoch =
      g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<TensorNode*> reachable;
  std::vector<TensorNode*> stack{node_.get()};
  node_->visit_tag = epoch;
  while (!stack.empty()) {
    TensorNode* current = stack.back();
    stack.pop_back();
    reachable.push_back(current);
    for (const Tensor& parent : current->parents) {
      TensorNode* p = parent.node();
      if (p->requires_grad && p->visit_tag != epoch) {
        p->visit_tag = epoch;
        stack.push_back(p);
      }
    }
  }

  // Creation order is a valid topological order of the dynamic graph.
  std::sort(reachable.begin(), reachable.end(),
            [](const TensorNode* a, const TensorNode* b) {
              return a->sequence > b->sequence;
            });

  node_->EnsureGrad()(0, 0) += Scalar{1};
  for (TensorNode* current : reachable) {
    if (current->backward_fn && !current->grad.empty()) {
      current->backward_fn(*current);
    }
  }
}

}  // namespace lighttr::nn
