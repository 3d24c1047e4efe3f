// Loss functions: cross-entropy for road-segment prediction (Eq. 14),
// mean squared error for moving-ratio prediction (Eq. 15), and the L2
// knowledge-distillation loss (Eq. 16).
#ifndef LIGHTTR_NN_LOSSES_H_
#define LIGHTTR_NN_LOSSES_H_

#include <span>
#include <vector>

#include "nn/tensor.h"

namespace lighttr::nn {

/// Mean softmax cross-entropy over rows of `logits` ([n, C]) against
/// integer `targets` (size n). When `logit_bias` is non-null it is added
/// to the logits before the softmax — this carries the constraint-mask
/// weights of Eq. 10/11 in log space (masked-out classes get -inf-like
/// penalties instead of hard zeros, keeping gradients finite).
Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& targets,
                           const Matrix* logit_bias = nullptr);

/// SoftmaxCrossEntropy's value on plain matrices, for fused ops: the
/// mean over rows of -log p(target) under softmax(logits + bias), where
/// `logit_bias` is null or points at logits.size() row-major entries.
/// Fills `probs` (logits' shape) for the backward when it is non-null,
/// and counts the op's FLOPs.
Scalar SoftmaxCrossEntropyValue(const Matrix& logits,
                                std::span<const int> targets,
                                const Scalar* logit_bias, Matrix* probs);

/// SoftmaxCrossEntropy's backward on plain matrices: adds the logits'
/// gradient for the loss gradient `upstream` into `logits_grad`.
void SoftmaxCrossEntropyGrad(const Matrix& probs,
                             std::span<const int> targets, Scalar upstream,
                             Matrix* logits_grad);

/// Mean squared error between `pred` and a constant `target` of the same
/// shape.
Tensor MseLoss(const Tensor& pred, const Matrix& target);

/// Knowledge-distillation loss of Eq. 16: mean squared L2 distance
/// between student outputs and (constant) teacher outputs.
inline Tensor L2DistillLoss(const Tensor& student, const Matrix& teacher) {
  return MseLoss(student, teacher);
}

/// Index of the maximum entry of row `r`.
size_t ArgmaxRow(const Matrix& m, size_t r);

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_LOSSES_H_
