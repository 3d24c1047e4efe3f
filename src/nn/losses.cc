#include "nn/losses.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "nn/flops.h"

namespace lighttr::nn {

Scalar SoftmaxCrossEntropyValue(const Matrix& logits,
                                std::span<const int> targets,
                                const Scalar* logit_bias, Matrix* probs) {
  const size_t n = logits.rows();
  const size_t classes = logits.cols();
  LIGHTTR_CHECK_EQ(targets.size(), n);
  if (probs != nullptr) LIGHTTR_CHECK(probs->SameShape(logits));
  Scalar total_loss{0};
  for (size_t r = 0; r < n; ++r) {
    LIGHTTR_CHECK_GE(targets[r], 0);
    LIGHTTR_CHECK_LT(static_cast<size_t>(targets[r]), classes);
    const Scalar* row = logits.data() + r * classes;
    const Scalar* bias =
        logit_bias != nullptr ? logit_bias + r * classes : nullptr;
    const auto z = [row, bias](size_t c) {
      return bias != nullptr ? row[c] + bias[c] : row[c];
    };
    Scalar row_max = -std::numeric_limits<Scalar>::infinity();
    for (size_t c = 0; c < classes; ++c) row_max = std::max(row_max, z(c));
    Scalar* p = probs != nullptr ? probs->data() + r * classes : nullptr;
    Scalar denom{0};
    for (size_t c = 0; c < classes; ++c) {
      const Scalar e = std::exp(z(c) - row_max);
      if (p != nullptr) p[c] = e;
      denom += e;
    }
    const auto target = static_cast<size_t>(targets[r]);
    Scalar p_target;
    if (p != nullptr) {
      for (size_t c = 0; c < classes; ++c) p[c] /= denom;
      p_target = p[target];
    } else {
      p_target = std::exp(z(target) - row_max) / denom;
    }
    total_loss += -std::log(std::max(p_target, Scalar{1e-12}));
  }
  AddFlops(static_cast<int64_t>(6 * n * classes));
  return total_loss / static_cast<Scalar>(n);
}

void SoftmaxCrossEntropyGrad(const Matrix& probs,
                             std::span<const int> targets, Scalar upstream,
                             Matrix* logits_grad) {
  const Scalar g = upstream / static_cast<Scalar>(targets.size());
  for (size_t r = 0; r < probs.rows(); ++r) {
    for (size_t c = 0; c < probs.cols(); ++c) {
      Scalar delta = probs(r, c);
      if (c == static_cast<size_t>(targets[r])) delta -= Scalar{1};
      (*logits_grad)(r, c) += g * delta;
    }
  }
  AddFlops(static_cast<int64_t>(2 * probs.size()));
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& targets,
                           const Matrix* logit_bias) {
  if (logit_bias != nullptr) {
    LIGHTTR_CHECK(logit_bias->SameShape(logits.value()));
  }
  const Scalar* bias = logit_bias != nullptr ? logit_bias->data() : nullptr;
  Matrix out(1, 1);
  if (!RecordsGradient(logits)) {
    out(0, 0) = SoftmaxCrossEntropyValue(logits.value(), targets, bias,
                                         nullptr);
    return Tensor::Constant(std::move(out));
  }
  // Probabilities are kept for the backward pass.
  Matrix probs(logits.rows(), logits.cols());
  out(0, 0) = SoftmaxCrossEntropyValue(logits.value(), targets, bias, &probs);
  return Tensor::MakeOp(
      std::move(out), {logits},
      [logits, targets, probs = std::move(probs)](TensorNode& self) {
        if (!logits.requires_grad()) return;
        SoftmaxCrossEntropyGrad(probs, targets, self.grad(0, 0),
                                &logits.grad());
      });
}

Tensor MseLoss(const Tensor& pred, const Matrix& target) {
  LIGHTTR_CHECK(pred.value().SameShape(target));
  const size_t n = pred.value().size();
  Scalar total{0};
  for (size_t i = 0; i < n; ++i) {
    const Scalar d = pred.value().data()[i] - target.data()[i];
    total += d * d;
  }
  AddFlops(static_cast<int64_t>(3 * n));
  Matrix out(1, 1);
  out(0, 0) = total / static_cast<Scalar>(n);
  if (!RecordsGradient(pred)) return Tensor::Constant(std::move(out));
  return Tensor::MakeOp(std::move(out), {pred}, [pred, target](TensorNode& self) {
    if (!pred.requires_grad()) return;
    const size_t count = pred.value().size();
    const Scalar g = self.grad(0, 0) * Scalar{2} / static_cast<Scalar>(count);
    Matrix& pg = pred.grad();
    for (size_t i = 0; i < count; ++i) {
      pg.data()[i] += g * (pred.value().data()[i] - target.data()[i]);
    }
    AddFlops(static_cast<int64_t>(3 * count));
  });
}

size_t ArgmaxRow(const Matrix& m, size_t r) {
  LIGHTTR_CHECK_LT(r, m.rows());
  LIGHTTR_CHECK_GE(m.cols(), 1u);
  size_t best = 0;
  for (size_t c = 1; c < m.cols(); ++c) {
    if (m(r, c) > m(r, best)) best = c;
  }
  return best;
}

}  // namespace lighttr::nn
