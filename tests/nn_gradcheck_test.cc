// Finite-difference gradient checks for every op and layer in nn/.
// Double precision keeps central differences tight (tolerance 1e-6
// relative on smooth ops).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::nn {
namespace {

// Builds `loss = f(params)` twice per perturbed entry and compares the
// numeric derivative with the autograd gradient.
void CheckGradients(const std::vector<Tensor>& leaves,
                    const std::function<Tensor()>& build_loss,
                    double tolerance = 1e-6) {
  Tensor loss = build_loss();
  ASSERT_EQ(loss.value().size(), 1u);
  for (const Tensor& leaf : leaves) leaf.ZeroGrad();
  loss.Backward();

  const double eps = 1e-5;
  for (size_t li = 0; li < leaves.size(); ++li) {
    const Tensor& leaf = leaves[li];
    Matrix analytic = leaf.grad();
    for (size_t i = 0; i < leaf.value().size(); ++i) {
      Scalar* entry = leaf.mutable_value().data() + i;
      const Scalar saved = *entry;
      *entry = saved + eps;
      const Scalar up = build_loss().ScalarValue();
      *entry = saved - eps;
      const Scalar down = build_loss().ScalarValue();
      *entry = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double got = analytic.data()[i];
      const double scale = std::max({1.0, std::abs(numeric), std::abs(got)});
      EXPECT_NEAR(numeric, got, tolerance * scale)
          << "leaf " << li << " entry " << i;
    }
  }
}

Tensor RandomVariable(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Variable(Matrix::RandomUniform(rows, cols, 0.8, &rng));
}

TEST(GradCheck, AddSubMul) {
  Tensor a = RandomVariable(3, 4, 1);
  Tensor b = RandomVariable(3, 4, 2);
  CheckGradients({a, b}, [&] { return Mean(Mul(Add(a, b), Sub(a, b))); });
}

TEST(GradCheck, MatMul) {
  Tensor a = RandomVariable(3, 5, 3);
  Tensor b = RandomVariable(5, 2, 4);
  CheckGradients({a, b}, [&] { return Mean(MatMul(a, b)); });
}

TEST(GradCheck, AddRowBroadcast) {
  Tensor x = RandomVariable(4, 3, 5);
  Tensor bias = RandomVariable(1, 3, 6);
  CheckGradients({x, bias}, [&] { return Mean(AddRowBroadcast(x, bias)); });
}

TEST(GradCheck, ActivationsChain) {
  Tensor a = RandomVariable(2, 6, 7);
  CheckGradients({a}, [&] { return Mean(Tanh(Sigmoid(a))); });
}

TEST(GradCheck, ReluAwayFromKink) {
  // Entries are bounded away from zero so the subgradient is unambiguous.
  Rng rng(8);
  Matrix m(3, 3);
  for (size_t i = 0; i < m.size(); ++i) {
    const double v = rng.Uniform(0.2, 1.0);
    m.data()[i] = rng.Bernoulli(0.5) ? v : -v;
  }
  Tensor a = Tensor::Variable(std::move(m));
  CheckGradients({a}, [&] { return Mean(Relu(a)); });
}

TEST(GradCheck, ConcatSliceTranspose) {
  Tensor a = RandomVariable(2, 3, 9);
  Tensor b = RandomVariable(2, 2, 10);
  CheckGradients({a, b}, [&] {
    Tensor cat = ConcatCols(a, b);              // [2,5]
    Tensor t = Transpose(cat);                  // [5,2]
    return Mean(Mul(SliceRows(t, 1, 3), SliceRows(t, 2, 3)));
  });
}

TEST(GradCheck, ConcatRows) {
  Tensor a = RandomVariable(1, 4, 11);
  Tensor b = RandomVariable(2, 4, 12);
  CheckGradients({a, b}, [&] {
    return Mean(Sigmoid(ConcatRows({a, b, a})));
  });
}

TEST(GradCheck, SoftmaxRows) {
  Tensor a = RandomVariable(3, 5, 13);
  Tensor w = RandomVariable(3, 5, 14);
  CheckGradients({a, w}, [&] { return Mean(Mul(SoftmaxRows(a), w)); });
}

TEST(GradCheck, EmbeddingLookup) {
  Tensor table = RandomVariable(6, 3, 15);
  CheckGradients({table}, [&] {
    return Mean(Tanh(EmbeddingLookup(table, std::vector<int>{1, 4, 1})));
  });
}

TEST(GradCheck, CandidateLogits) {
  Tensor h = RandomVariable(1, 4, 16);
  Tensor w = RandomVariable(4, 9, 17);
  Tensor b = RandomVariable(1, 9, 18);
  CheckGradients({h, w, b}, [&] {
    return Mean(Tanh(CandidateLogits(h, w, b, {2, 5, 7})));
  });
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Tensor logits = RandomVariable(3, 6, 19);
  CheckGradients({logits},
                 [&] { return SoftmaxCrossEntropy(logits, {2, 0, 5}); });
}

TEST(GradCheck, SoftmaxCrossEntropyWithMask) {
  Tensor logits = RandomVariable(2, 4, 20);
  Rng rng(21);
  Matrix bias = Matrix::RandomUniform(2, 4, 2.0, &rng);
  CheckGradients(
      {logits}, [&] { return SoftmaxCrossEntropy(logits, {1, 3}, &bias); });
}

TEST(GradCheck, MseLoss) {
  Tensor pred = RandomVariable(4, 2, 22);
  Rng rng(23);
  Matrix target = Matrix::RandomUniform(4, 2, 1.0, &rng);
  CheckGradients({pred}, [&] { return MseLoss(pred, target); });
}

TEST(GradCheck, DenseLayer) {
  ParameterSet params;
  Rng rng(24);
  Dense dense(4, 3, "d", &params, &rng);
  Tensor x = RandomVariable(2, 4, 25);
  std::vector<Tensor> leaves{x};
  for (size_t i = 0; i < params.size(); ++i) leaves.push_back(params.tensor(i));
  CheckGradients(leaves, [&] { return Mean(Tanh(dense.Forward(x))); });
}

TEST(GradCheck, GruCellUnrolled) {
  ParameterSet params;
  Rng rng(26);
  GruCell gru(3, 4, "gru", &params, &rng);
  Tensor x0 = RandomVariable(1, 3, 27);
  Tensor x1 = RandomVariable(1, 3, 28);
  std::vector<Tensor> leaves{x0, x1};
  for (size_t i = 0; i < params.size(); ++i) leaves.push_back(params.tensor(i));
  CheckGradients(leaves, [&] {
    Tensor h = gru.Forward(x0, gru.InitialState());
    h = gru.Forward(x1, h);
    return Mean(h);
  });
}

TEST(GradCheck, RnnCell) {
  ParameterSet params;
  Rng rng(29);
  RnnCell cell(3, 4, "rnn", &params, &rng);
  Tensor x = RandomVariable(1, 3, 30);
  std::vector<Tensor> leaves{x};
  for (size_t i = 0; i < params.size(); ++i) leaves.push_back(params.tensor(i));
  CheckGradients(leaves, [&] {
    Tensor h = cell.Forward(x, cell.InitialState());
    return Mean(cell.Forward(x, h));
  });
}

TEST(GradCheck, Attention) {
  Tensor q = RandomVariable(2, 4, 31);
  Tensor k = RandomVariable(3, 4, 32);
  Tensor v = RandomVariable(3, 4, 33);
  CheckGradients({q, k, v}, [&] {
    return Mean(ScaledDotProductAttention(q, k, v));
  });
}

TEST(GradCheck, Im2RowCausal) {
  Tensor x = RandomVariable(4, 3, 35);
  Tensor w = RandomVariable(6, 2, 36);
  CheckGradients({x, w}, [&] {
    return Mean(Tanh(MatMul(Im2RowCausal(x, 2), w)));
  });
}

TEST(GradCheck, MtHeadStep) {
  // Hidden 4, embedding 3, 6 segments; the ratio branch is conditioned
  // on a fixed segment, so no perturbation can move the argmax it reads.
  Tensor state = RandomVariable(1, 4, 40);
  MtHeadWeights w;
  w.dense_w = RandomVariable(4, 4, 41);
  w.dense_b = RandomVariable(1, 4, 42);
  w.seg_w = RandomVariable(4, 6, 43);
  w.seg_b = RandomVariable(1, 6, 44);
  w.emb_table = RandomVariable(6, 3, 45);
  w.proj_w = RandomVariable(3, 4, 46);
  w.proj_b = RandomVariable(1, 4, 47);
  w.ratio_w = RandomVariable(7, 1, 48);
  w.ratio_b = RandomVariable(1, 1, 49);
  const std::vector<int> candidates = {1, 4, 2, 4};
  const std::vector<Scalar> log_mask = {-0.2, -1.5, -0.7, -0.1};
  Matrix ratio_target(1, 1);
  ratio_target(0, 0) = 0.3;
  CheckGradients(
      {state, w.dense_w, w.dense_b, w.seg_w, w.seg_b, w.emb_table, w.proj_w,
       w.proj_b, w.ratio_w, w.ratio_b},
      [&] {
        const MtHeadOutput out =
            MtHeadStep(state, w, candidates, log_mask, 2, 5);
        return Add(Scale(out.ce_loss, 0.5), MseLoss(out.ratio, ratio_target));
      });
}

TEST(GradCheck, GradientAccumulatesWhenTensorReused) {
  Tensor a = RandomVariable(2, 2, 34);
  CheckGradients({a}, [&] { return Mean(Mul(a, a)); });
}

}  // namespace
}  // namespace lighttr::nn
