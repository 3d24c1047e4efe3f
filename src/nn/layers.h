// Neural layers built from autograd ops: Dense, GRU cell (Eq. 5),
// vanilla RNN cell, embedding table, and scaled dot-product attention.
#ifndef LIGHTTR_NN_LAYERS_H_
#define LIGHTTR_NN_LAYERS_H_

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/parameter.h"
#include "nn/tensor.h"

namespace lighttr::nn {

/// Fully-connected layer: y = x W + b.
class Dense {
 public:
  /// Creates parameters and registers them in `params` under
  /// "<prefix>.w" / "<prefix>.b".
  Dense(size_t in_dim, size_t out_dim, const std::string& prefix,
        ParameterSet* params, Rng* rng);

  /// x is [n, in_dim]; returns [n, out_dim].
  Tensor Forward(const Tensor& x) const;

  size_t in_dim() const { return w_.rows(); }
  size_t out_dim() const { return w_.cols(); }
  const Tensor& weight() const { return w_; }
  const Tensor& bias() const { return b_; }

 private:
  Tensor w_;
  Tensor b_;
};

/// Gated recurrent unit cell implementing Eq. 5 of the paper:
///   r_t = sigma(W_r [h_{t-1}, g_t] + b_r)
///   z_t = sigma(W_z [h_{t-1}, g_t] + b_z)
///   h~  = tanh(W_h [r_t * h_{t-1}, g_t] + b_h)
///   h_t = (1 - z_t) * h_{t-1} + z_t * h~
class GruCell {
 public:
  GruCell(size_t input_dim, size_t hidden_dim, const std::string& prefix,
          ParameterSet* params, Rng* rng);

  /// x is [1, input_dim], h_prev is [1, hidden_dim]; returns the next
  /// hidden state [1, hidden_dim].
  Tensor Forward(const Tensor& x, const Tensor& h_prev) const;

  /// Zero-valued initial hidden state (constant).
  Tensor InitialState() const;

  size_t hidden_dim() const { return hidden_dim_; }

 private:
  size_t hidden_dim_;
  Dense gate_r_;
  Dense gate_z_;
  Dense gate_h_;
};

/// Vanilla tanh RNN cell: h_t = tanh(W [h_{t-1}, x_t] + b).
class RnnCell {
 public:
  RnnCell(size_t input_dim, size_t hidden_dim, const std::string& prefix,
          ParameterSet* params, Rng* rng);

  Tensor Forward(const Tensor& x, const Tensor& h_prev) const;
  Tensor InitialState() const;
  size_t hidden_dim() const { return hidden_dim_; }

 private:
  size_t hidden_dim_;
  Dense cell_;
};

/// Trainable embedding table [vocab, dim].
class Embedding {
 public:
  Embedding(size_t vocab, size_t dim, const std::string& prefix,
            ParameterSet* params, Rng* rng);

  /// Rows of the table at `ids`, shape [ids.size(), dim].
  Tensor Forward(std::span<const int> ids) const;

  size_t vocab() const { return table_.rows(); }
  size_t dim() const { return table_.cols(); }

 private:
  Tensor table_;
};

/// Causal temporal convolution — the CNN-based ST-operator family of
/// paper Table II. y_t depends on x_{t-k+1..t}.
class CausalConv1d {
 public:
  CausalConv1d(size_t in_dim, size_t out_dim, size_t kernel,
               const std::string& prefix, ParameterSet* params, Rng* rng);

  /// x is [T, in_dim]; returns [T, out_dim].
  Tensor Forward(const Tensor& x) const;

  size_t kernel() const { return kernel_; }

 private:
  size_t kernel_;
  Dense dense_;
};

/// Scaled dot-product attention: softmax(Q K^T / sqrt(d)) V.
/// Q is [nq, d], K and V are [nk, d]; the result is [nq, d].
Tensor ScaledDotProductAttention(const Tensor& q, const Tensor& k,
                                 const Tensor& v);

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_LAYERS_H_
