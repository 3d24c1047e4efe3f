// Differentiable operations on Tensors.
//
// Every function returns a new Tensor whose backward closure accumulates
// gradients into its inputs. An op records (parents, closure, the
// buffers its backward reads) only when RecordsGradient() holds for its
// inputs; otherwise it returns its value alone (nn/tensor.h). Shapes are
// validated with LIGHTTR_CHECK (shape errors are programming errors, not
// runtime conditions).
#ifndef LIGHTTR_NN_OPS_H_
#define LIGHTTR_NN_OPS_H_

#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace lighttr::nn {

/// Element-wise a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);

/// x + bias with bias broadcast across rows; x is [m,n], bias [1,n].
Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias);

/// Element-wise a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Element-wise (Hadamard) product a * b (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);

/// s * a for a compile-time-constant scalar s.
Tensor Scale(const Tensor& a, Scalar s);

/// Matrix product a ([m,k]) x b ([k,n]).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Element-wise logistic sigmoid.
Tensor Sigmoid(const Tensor& a);

/// Element-wise hyperbolic tangent.
Tensor Tanh(const Tensor& a);

/// Element-wise max(x, 0).
Tensor Relu(const Tensor& a);

/// Horizontal concatenation [a | b]; equal row counts.
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Vertical concatenation of tensors with equal column counts. Used to
/// assemble per-step row vectors into a [T, n] sequence matrix.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Rows [begin, begin+len) of a.
Tensor SliceRows(const Tensor& a, size_t begin, size_t len);

/// a^T.
Tensor Transpose(const Tensor& a);

/// Row-wise softmax (used by attention).
Tensor SoftmaxRows(const Tensor& a);

/// Sum of all entries, as a 1x1 tensor.
Tensor Sum(const Tensor& a);

/// Mean of all entries, as a 1x1 tensor.
Tensor Mean(const Tensor& a);

/// Inverted dropout. Identity when !training or p == 0.
Tensor Dropout(const Tensor& a, double p, bool training, Rng* rng);

/// Gathers rows of `table` ([V,D]) at `ids`, giving [ids.size(), D].
/// Backward scatter-adds into the table rows.
Tensor EmbeddingLookup(const Tensor& table, std::span<const int> ids);

/// One fused GRU step (paper Eq. 5), replacing the ~12-node op chain a
/// composed implementation builds per step with a single graph node:
///   r = sigma(x_h W_r + b_r)   with x_h = [h_prev | x] (never
///   z = sigma(x_h W_z + b_z)    materialized: the weight blocks are
///   h~ = tanh([r*h_prev | x] W_h + b_h)        addressed directly)
///   out = h_prev + z * (h~ - h_prev)
/// The r/z pre-activations share one packed [n, 2H] buffer filled by
/// offset GEMM calls and activated in a single vectorized sigmoid
/// sweep; the backward is hand-derived (validated by
/// GradCheck.GruCellUnrolled). Weights are [(H+I), H], biases [1, H].
Tensor GruStep(const Tensor& x, const Tensor& h_prev, const Tensor& wr,
               const Tensor& br, const Tensor& wz, const Tensor& bz,
               const Tensor& wh, const Tensor& bh);

/// Causal temporal im2row: stacks each row of x ([T, C]) with its k-1
/// predecessors (zero-padded at the start) into [T, k*C]. A Dense layer
/// on the result is a causal 1-D convolution — the CNN-based ST-operator
/// of paper Table II.
Tensor Im2RowCausal(const Tensor& x, size_t kernel);

/// Logits restricted to candidate classes: h ([1,H]) against columns
/// `candidates` of W ([H,C]) plus b ([1,C]) entries, giving [1,K].
/// This is the fast path of the constraint mask layer: only candidate
/// road segments get logits, cutting the output-projection cost from
/// O(H*C) to O(H*K).
Tensor CandidateLogits(const Tensor& h, const Tensor& w, const Tensor& b,
                       const std::vector<int>& candidates);

/// The parameters of the multi-task decoder head (paper Eq. 8-11), for
/// hidden size H, segment-embedding size E and C road segments.
struct MtHeadWeights {
  Tensor dense_w;    // [H, H]    h_d = state W + b
  Tensor dense_b;    // [1, H]
  Tensor seg_w;      // [H, C]    segment logits (CandidateLogits)
  Tensor seg_b;      // [1, C]
  Tensor emb_table;  // [C, E]    segment embedding
  Tensor proj_w;     // [E, H]    embedding projection
  Tensor proj_b;     // [1, H]
  Tensor ratio_w;    // [H + E, 1] moving-ratio regressor
  Tensor ratio_b;    // [1, 1]
};

/// One head step's outputs.
struct MtHeadOutput {
  Tensor ce_loss;             // masked cross-entropy; undefined without a target
  Tensor ratio;               // [1, 1] predicted moving ratio
  int predicted_segment = 0;  // argmax of the logits under the mask
};

/// One fused multi-task head step on decoder state `state` ([1, H]):
///   h_d    = state W_d + b_d                              (Eq. 8)
///   logits = CandidateLogits(h_d, W_s, b_s, candidates)
///   ce     = SoftmaxCrossEntropy(logits, target, log_mask) (Eq. 10-11)
///   e      = E[segment]    (conditioning_segment, or the masked argmax
///                           when it is negative)
///   h_e    = ReLU(h_d + e W_p + b_p)
///   ratio  = sigmoid([h_e | e] W_r + b_r)                  (Eq. 9)
/// `target_index` is the target's position in `candidates`, or -1 for
/// no loss (ce_loss stays undefined). Values and FLOP counts equal those
/// of the composed chain of ops above, bit for bit. When it records, it
/// records three nodes instead of the chain's 13: h_d, then ce, then
/// ratio, so the backward runs the ratio branch first, as the chain's
/// does; the hand-written backward replays the chain's accumulation
/// order (DESIGN.md §14.3). A recording step needs every weight to
/// require a gradient, as model parameters do.
MtHeadOutput MtHeadStep(const Tensor& state, const MtHeadWeights& weights,
                        const std::vector<int>& candidates,
                        const std::vector<Scalar>& log_mask, int target_index,
                        int conditioning_segment);

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_OPS_H_
