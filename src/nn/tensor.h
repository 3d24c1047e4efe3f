// Reverse-mode automatic differentiation on matrices.
//
// A Tensor is a shared handle to a node in a dynamically built
// computation graph. Operations (nn/ops.h) create new nodes that record
// their parents and a backward closure; Tensor::Backward() on a scalar
// runs the closures in reverse creation order, accumulating gradients.
//
// An op records only when RecordsGradient() holds for its inputs: some
// input requires a gradient and no NoGradScope is alive. Otherwise it
// returns its value alone, as a Constant, and builds no parents list,
// no closure and no backward-only buffer, so inference is tape-free.
// Every node, recorded or not, is one tensor-arena block (nn/arena.h),
// counted in ArenaStats like the matrices it holds.
#ifndef LIGHTTR_NN_TENSOR_H_
#define LIGHTTR_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace lighttr::nn {

class Tensor;

/// One vertex of the computation graph. Library users interact with
/// Tensor; TensorNode is exposed for op implementations.
struct TensorNode {
  Matrix value;
  Matrix grad;  // empty until EnsureGrad()
  std::vector<Tensor> parents;
  /// Accumulates into the parents' grads given this node's grad.
  std::function<void(TensorNode&)> backward_fn;
  bool requires_grad = false;
  uint64_t sequence = 0;  // creation order; a valid topological order
  /// Backward()'s visited mark: equals the walk's epoch when this node
  /// has been reached. Avoids a pointer-keyed set (whose iteration
  /// order would depend on allocator addresses). Process-global epochs
  /// keep tags valid when a client model migrates between pool workers.
  uint64_t visit_tag = 0;

  /// Allocates (zero-filled) grad storage on first use.
  Matrix& EnsureGrad() {
    if (grad.empty() && !value.empty()) {
      grad = Matrix::Zeros(value.rows(), value.cols());
    }
    return grad;
  }
};

/// Disables graph recording while alive (inference / teacher forward).
/// Ops created inside the scope behave as if no input required a
/// gradient. Scopes nest.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// True when any NoGradScope is alive.
  static bool Active();
};

/// Shared handle to a TensorNode; cheap to copy.
class Tensor {
 public:
  /// Null tensor (no node). Most APIs require a non-null tensor.
  Tensor() = default;

  /// Wraps a constant matrix (no gradient). Also the value-only result
  /// of an op that does not record.
  static Tensor Constant(Matrix value);

  /// Wraps a leaf variable that accumulates gradients (a parameter).
  static Tensor Variable(Matrix value);

  /// Creates a recorded op result node. Ops call it only when
  /// RecordsGradient() holds for `parents`.
  static Tensor MakeOp(Matrix value, std::vector<Tensor> parents,
                       std::function<void(TensorNode&)> backward_fn);

  // Accessors are const even when they expose mutable node state: a
  // Tensor is a shared handle, so constness is shallow (like shared_ptr).
  // Dereferencing a null (default-constructed) tensor is a contract
  // violation — the DCHECK turns it into a named failure at the call site
  // instead of a raw segfault inside an op.
  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const {
    LIGHTTR_DCHECK(node_ != nullptr);
    return node_->value;
  }
  Matrix& mutable_value() const {
    LIGHTTR_DCHECK(node_ != nullptr);
    return node_->value;
  }
  Matrix& grad() const {
    LIGHTTR_DCHECK(node_ != nullptr);
    return node_->EnsureGrad();
  }
  const Matrix& grad_or_empty() const {
    LIGHTTR_DCHECK(node_ != nullptr);
    return node_->grad;
  }
  bool requires_grad() const {
    LIGHTTR_DCHECK(node_ != nullptr);
    return node_->requires_grad;
  }
  TensorNode* node() const { return node_.get(); }

  size_t rows() const { return value().rows(); }
  size_t cols() const { return value().cols(); }

  /// Convenience for 1x1 tensors (losses).
  Scalar ScalarValue() const;

  /// Runs reverse-mode differentiation from this scalar node: seeds its
  /// gradient with 1 and applies every reachable backward closure in
  /// reverse creation order. Leaf gradients accumulate across calls
  /// until explicitly zeroed.
  void Backward();

  /// Zeroes the gradient (leaves allocation in place).
  void ZeroGrad() const {
    if (!node_->grad.empty()) node_->grad.Fill(Scalar{0});
  }

 private:
  explicit Tensor(std::shared_ptr<TensorNode> node) : node_(std::move(node)) {}

  std::shared_ptr<TensorNode> node_;
};

/// True when an op on `inputs` records a graph node: some input
/// requires a gradient and no NoGradScope is alive. Every op decides
/// this before it builds anything.
template <typename... Inputs>
bool RecordsGradient(const Inputs&... inputs) {
  return !NoGradScope::Active() && (inputs.requires_grad() || ...);
}

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_TENSOR_H_
