#include "nn/layers.h"

#include <cmath>

#include "common/check.h"
#include "nn/ops.h"

namespace lighttr::nn {

Dense::Dense(size_t in_dim, size_t out_dim, const std::string& prefix,
             ParameterSet* params, Rng* rng) {
  LIGHTTR_CHECK(params != nullptr);
  LIGHTTR_CHECK_GE(in_dim, 1u);
  LIGHTTR_CHECK_GE(out_dim, 1u);
  w_ = Tensor::Variable(Matrix::Xavier(in_dim, out_dim, rng));
  b_ = Tensor::Variable(Matrix::Zeros(1, out_dim));
  params->Register(prefix + ".w", w_);
  params->Register(prefix + ".b", b_);
}

Tensor Dense::Forward(const Tensor& x) const {
  LIGHTTR_DCHECK_EQ(x.cols(), in_dim());
  return AddRowBroadcast(MatMul(x, w_), b_);
}

GruCell::GruCell(size_t input_dim, size_t hidden_dim,
                 const std::string& prefix, ParameterSet* params, Rng* rng)
    : hidden_dim_(hidden_dim),
      gate_r_(hidden_dim + input_dim, hidden_dim, prefix + ".r", params, rng),
      gate_z_(hidden_dim + input_dim, hidden_dim, prefix + ".z", params, rng),
      gate_h_(hidden_dim + input_dim, hidden_dim, prefix + ".h", params, rng) {}

Tensor GruCell::Forward(const Tensor& x, const Tensor& h_prev) const {
  LIGHTTR_DCHECK_EQ(h_prev.cols(), hidden_dim_);
  LIGHTTR_DCHECK_EQ(h_prev.rows(), x.rows());
  // One fused graph node instead of the ~12-op chain
  //   Add(h, Mul(z, Sub(Tanh(...), h))) — see GruStep in nn/ops.h.
  return GruStep(x, h_prev, gate_r_.weight(), gate_r_.bias(),
                 gate_z_.weight(), gate_z_.bias(), gate_h_.weight(),
                 gate_h_.bias());
}

Tensor GruCell::InitialState() const {
  return Tensor::Constant(Matrix::Zeros(1, hidden_dim_));
}

RnnCell::RnnCell(size_t input_dim, size_t hidden_dim,
                 const std::string& prefix, ParameterSet* params, Rng* rng)
    : hidden_dim_(hidden_dim),
      cell_(hidden_dim + input_dim, hidden_dim, prefix + ".cell", params,
            rng) {}

Tensor RnnCell::Forward(const Tensor& x, const Tensor& h_prev) const {
  LIGHTTR_DCHECK_EQ(h_prev.cols(), hidden_dim_);
  LIGHTTR_DCHECK_EQ(h_prev.rows(), x.rows());
  return Tanh(cell_.Forward(ConcatCols(h_prev, x)));
}

Tensor RnnCell::InitialState() const {
  return Tensor::Constant(Matrix::Zeros(1, hidden_dim_));
}

Embedding::Embedding(size_t vocab, size_t dim, const std::string& prefix,
                     ParameterSet* params, Rng* rng) {
  LIGHTTR_CHECK(params != nullptr);
  // Small-range init, as customary for embeddings.
  table_ = Tensor::Variable(Matrix::RandomUniform(vocab, dim, 0.1, rng));
  params->Register(prefix + ".table", table_);
}

Tensor Embedding::Forward(std::span<const int> ids) const {
  return EmbeddingLookup(table_, ids);
}

CausalConv1d::CausalConv1d(size_t in_dim, size_t out_dim, size_t kernel,
                           const std::string& prefix, ParameterSet* params,
                           Rng* rng)
    : kernel_(kernel),
      dense_(in_dim * kernel, out_dim, prefix + ".conv", params, rng) {
  LIGHTTR_CHECK_GE(kernel, 1u);
}

Tensor CausalConv1d::Forward(const Tensor& x) const {
  return dense_.Forward(Im2RowCausal(x, kernel_));
}

Tensor ScaledDotProductAttention(const Tensor& q, const Tensor& k,
                                 const Tensor& v) {
  LIGHTTR_DCHECK_EQ(q.cols(), k.cols());
  LIGHTTR_DCHECK_EQ(k.rows(), v.rows());
  const auto d = static_cast<Scalar>(q.cols());
  const Tensor scores =
      Scale(MatMul(q, Transpose(k)), Scalar{1} / std::sqrt(d));
  return MatMul(SoftmaxRows(scores), v);
}

}  // namespace lighttr::nn
