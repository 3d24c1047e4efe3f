// Forward-value and behaviour tests for the nn ops, FLOP accounting,
// NoGradScope, dropout semantics, and softmax properties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/finite.h"
#include "nn/flops.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::nn {
namespace {

Matrix M2x2(Scalar a, Scalar b, Scalar c, Scalar d) {
  Matrix m(2, 2);
  m(0, 0) = a;
  m(0, 1) = b;
  m(1, 0) = c;
  m(1, 1) = d;
  return m;
}

TEST(Ops, AddSubMulValues) {
  const Tensor a = Tensor::Constant(M2x2(1, 2, 3, 4));
  const Tensor b = Tensor::Constant(M2x2(5, 6, 7, 8));
  EXPECT_DOUBLE_EQ(Add(a, b).value()(1, 1), 12.0);
  EXPECT_DOUBLE_EQ(Sub(a, b).value()(0, 0), -4.0);
  EXPECT_DOUBLE_EQ(Mul(a, b).value()(1, 0), 21.0);
  EXPECT_DOUBLE_EQ(Scale(a, 0.5).value()(0, 1), 1.0);
}

TEST(Ops, MatMulKnownProduct) {
  const Tensor a = Tensor::Constant(M2x2(1, 2, 3, 4));
  const Tensor b = Tensor::Constant(M2x2(5, 6, 7, 8));
  const Matrix c = MatMul(a, b).value();
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Ops, AddRowBroadcast) {
  const Tensor x = Tensor::Constant(M2x2(1, 2, 3, 4));
  Matrix bias(1, 2);
  bias(0, 0) = 10;
  bias(0, 1) = 20;
  const Matrix y = AddRowBroadcast(x, Tensor::Constant(bias)).value();
  EXPECT_DOUBLE_EQ(y(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(y(1, 1), 24.0);
}

TEST(Ops, ActivationValues) {
  Matrix m(1, 3);
  m(0, 0) = 0.0;
  m(0, 1) = -2.0;
  m(0, 2) = 3.0;
  const Tensor x = Tensor::Constant(m);
  EXPECT_DOUBLE_EQ(Sigmoid(x).value()(0, 0), 0.5);
  EXPECT_NEAR(Tanh(x).value()(0, 2), std::tanh(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(Relu(x).value()(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(Relu(x).value()(0, 2), 3.0);
}

TEST(Ops, ConcatAndSlice) {
  const Tensor a = Tensor::Constant(M2x2(1, 2, 3, 4));
  const Tensor b = Tensor::Constant(M2x2(5, 6, 7, 8));
  const Tensor cat = ConcatCols(a, b);
  EXPECT_EQ(cat.cols(), 4u);
  EXPECT_DOUBLE_EQ(cat.value()(1, 2), 7.0);
  const Tensor rows = ConcatRows({a, b});
  EXPECT_EQ(rows.rows(), 4u);
  EXPECT_DOUBLE_EQ(rows.value()(3, 0), 7.0);
  EXPECT_DOUBLE_EQ(SliceRows(rows, 2, 1).value()(0, 1), 6.0);
}

TEST(Ops, TransposeValues) {
  const Tensor a = Tensor::Constant(M2x2(1, 2, 3, 4));
  const Matrix t = Transpose(a).value();
  EXPECT_DOUBLE_EQ(t(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(t(1, 0), 2.0);
}

TEST(Ops, SoftmaxRowsSumToOneAndOrder) {
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(0, 2) = 3.0;
  m(1, 0) = -1000.0;  // numerical stability check
  m(1, 1) = -1001.0;
  m(1, 2) = -1002.0;
  const Matrix p = SoftmaxRows(Tensor::Constant(m)).value();
  for (size_t r = 0; r < 2; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 3; ++c) sum += p(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_GT(p(0, 2), p(0, 1));
  EXPECT_GT(p(1, 0), p(1, 2));
  EXPECT_FALSE(lighttr::IsNan(p(1, 0)));
}

TEST(Ops, SumAndMean) {
  const Tensor a = Tensor::Constant(M2x2(1, 2, 3, 4));
  EXPECT_DOUBLE_EQ(Sum(a).ScalarValue(), 10.0);
  EXPECT_DOUBLE_EQ(Mean(a).ScalarValue(), 2.5);
}

TEST(Ops, DropoutIdentityWhenNotTraining) {
  Rng rng(1);
  const Tensor a = Tensor::Constant(M2x2(1, 2, 3, 4));
  const Tensor out = Dropout(a, 0.5, /*training=*/false, &rng);
  EXPECT_DOUBLE_EQ(out.value()(1, 1), 4.0);
}

TEST(Ops, DropoutPreservesExpectation) {
  Rng rng(2);
  Matrix ones = Matrix::Full(1, 2000, 1.0);
  const Tensor a = Tensor::Constant(std::move(ones));
  const Tensor out = Dropout(a, 0.4, /*training=*/true, &rng);
  double sum = 0.0;
  int zeros = 0;
  for (size_t i = 0; i < out.value().size(); ++i) {
    sum += out.value().data()[i];
    zeros += out.value().data()[i] == 0.0 ? 1 : 0;
  }
  EXPECT_NEAR(sum / 2000.0, 1.0, 0.06);        // inverted scaling
  EXPECT_NEAR(zeros / 2000.0, 0.4, 0.05);      // drop rate
}

TEST(Ops, EmbeddingLookupGathersRows) {
  Matrix table(3, 2);
  table(0, 0) = 1;
  table(1, 0) = 2;
  table(2, 0) = 3;
  const Tensor t = Tensor::Constant(table);
  const Matrix out = EmbeddingLookup(t, {2, 0, 2}).value();
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_DOUBLE_EQ(out(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(out(2, 0), 3.0);
}

TEST(Ops, CandidateLogitsMatchesFullProjection) {
  Rng rng(3);
  const Tensor h = Tensor::Constant(Matrix::RandomUniform(1, 4, 1.0, &rng));
  const Tensor w = Tensor::Constant(Matrix::RandomUniform(4, 7, 1.0, &rng));
  const Tensor b = Tensor::Constant(Matrix::RandomUniform(1, 7, 1.0, &rng));
  const Matrix full = AddRowBroadcast(MatMul(h, w), b).value();
  const Matrix sparse = CandidateLogits(h, w, b, {1, 3, 6}).value();
  EXPECT_NEAR(sparse(0, 0), full(0, 1), 1e-12);
  EXPECT_NEAR(sparse(0, 1), full(0, 3), 1e-12);
  EXPECT_NEAR(sparse(0, 2), full(0, 6), 1e-12);
}

// The serial loops CandidateLogits ran before its blocked rewrite, kept
// as the bitwise reference: the forward of every candidate k, then the
// backward adding upstream `g` into the given grads in k order.
Matrix ReferenceCandidateForward(const Matrix& h, const Matrix& w,
                                 const Matrix& b,
                                 const std::vector<int>& candidates) {
  Matrix out(1, candidates.size());
  for (size_t k = 0; k < candidates.size(); ++k) {
    const auto cls = static_cast<size_t>(candidates[k]);
    Scalar acc = b(0, cls);
    for (size_t i = 0; i < h.cols(); ++i) acc += h(0, i) * w(i, cls);
    out(0, k) = acc;
  }
  return out;
}

void ReferenceCandidateBackward(const Matrix& h, const Matrix& w,
                                const std::vector<int>& candidates,
                                const Matrix& g, Matrix* hg, Matrix* wg,
                                Matrix* bg) {
  for (size_t k = 0; k < candidates.size(); ++k) {
    if (g(0, k) == Scalar{0}) continue;
    const auto cls = static_cast<size_t>(candidates[k]);
    if (hg != nullptr) {
      for (size_t i = 0; i < h.cols(); ++i) (*hg)(0, i) += g(0, k) * w(i, cls);
    }
    if (wg != nullptr) {
      for (size_t i = 0; i < h.cols(); ++i) (*wg)(i, cls) += g(0, k) * h(0, i);
    }
    if (bg != nullptr) (*bg)(0, cls) += g(0, k);
  }
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0;
}

// Runs CandidateLogits' backward closure with upstream `g` on grads that
// start at `seed` values (so the accumulation order shows in the bits).
void RunCandidateBackward(const Tensor& logits, const Matrix& g) {
  TensorNode& node = *logits.node();
  ASSERT_TRUE(node.backward_fn);
  node.grad = g;
  node.backward_fn(node);
}

struct CandidateCase {
  size_t hidden = 0;
  std::vector<int> candidates;
  Matrix upstream;
  bool h_trains = true;
  bool w_trains = true;
};

// Checks forward values and every grad against the reference, bitwise.
void ExpectCandidateLogitsMatchReference(const CandidateCase& c, Rng* rng) {
  const size_t classes = 61;
  const Matrix hv = Matrix::RandomUniform(1, c.hidden, 1.0, rng);
  const Matrix wv = Matrix::RandomUniform(c.hidden, classes, 1.0, rng);
  const Matrix bv = Matrix::RandomUniform(1, classes, 1.0, rng);
  const Tensor h = c.h_trains ? Tensor::Variable(hv) : Tensor::Constant(hv);
  const Tensor w = c.w_trains ? Tensor::Variable(wv) : Tensor::Constant(wv);
  const Tensor b = Tensor::Variable(bv);
  // Nonzero starting grads, as after an earlier op's backward.
  Matrix hg = Matrix::RandomUniform(1, c.hidden, 1.0, rng);
  Matrix wg = Matrix::RandomUniform(c.hidden, classes, 1.0, rng);
  Matrix bg = Matrix::RandomUniform(1, classes, 1.0, rng);
  if (c.h_trains) h.grad() = hg;
  if (c.w_trains) w.grad() = wg;
  b.grad() = bg;

  const Tensor logits = CandidateLogits(h, w, b, c.candidates);
  ASSERT_TRUE(SameBits(logits.value(),
                       ReferenceCandidateForward(hv, wv, bv, c.candidates)))
      << "hidden " << c.hidden << ", " << c.candidates.size() << " candidates";
  RunCandidateBackward(logits, c.upstream);
  ReferenceCandidateBackward(hv, wv, c.candidates, c.upstream,
                             c.h_trains ? &hg : nullptr,
                             c.w_trains ? &wg : nullptr, &bg);
  // A constant input keeps no grad at all.
  EXPECT_TRUE(c.h_trains ? SameBits(h.grad_or_empty(), hg)
                         : h.grad_or_empty().empty());
  EXPECT_TRUE(c.w_trains ? SameBits(w.grad_or_empty(), wg)
                         : w.grad_or_empty().empty());
  EXPECT_TRUE(SameBits(b.grad_or_empty(), bg));
}

TEST(Ops, CandidateLogitsMatchesSerialReferenceBitwise) {
  Rng rng(7);
  for (const size_t hidden : {1, 3, 4, 5, 32, 33, 48}) {
    for (const size_t count : {1, 2, 3, 4, 5, 7, 8, 32, 33}) {
      CandidateCase c;
      c.hidden = hidden;
      for (size_t k = 0; k < count; ++k) {
        c.candidates.push_back(static_cast<int>(rng.UniformInt(0, 60)));
      }
      // Repeated ids: the grads of a repeated column sum in k order.
      if (count >= 3) c.candidates[count - 1] = c.candidates[0];
      c.upstream = Matrix::RandomUniform(1, count, 1.0, &rng);
      if (count >= 2) c.upstream(0, 1) = 0.0;  // an upstream zero is skipped
      ExpectCandidateLogitsMatchReference(c, &rng);
      c.h_trains = false;
      ExpectCandidateLogitsMatchReference(c, &rng);
      c.h_trains = true;
      c.w_trains = false;
      ExpectCandidateLogitsMatchReference(c, &rng);
    }
  }
}

TEST(Ops, CandidateLogitsAllZeroUpstreamLeavesGradsUnallocated) {
  Rng rng(8);
  const Tensor h = Tensor::Variable(Matrix::RandomUniform(1, 5, 1.0, &rng));
  const Tensor w = Tensor::Variable(Matrix::RandomUniform(5, 9, 1.0, &rng));
  const Tensor b = Tensor::Variable(Matrix::RandomUniform(1, 9, 1.0, &rng));
  const Tensor logits = CandidateLogits(h, w, b, {8, 0, 3, 3, 5});
  RunCandidateBackward(logits, Matrix::Zeros(1, 5));
  EXPECT_TRUE(h.grad_or_empty().empty());
  EXPECT_TRUE(w.grad_or_empty().empty());
  EXPECT_TRUE(b.grad_or_empty().empty());
}

TEST(Ops, CandidateLogitsUnderNoGradScopeRecordsNothing) {
  Rng rng(9);
  const Matrix hv = Matrix::RandomUniform(1, 33, 1.0, &rng);
  const Matrix wv = Matrix::RandomUniform(33, 40, 1.0, &rng);
  const Matrix bv = Matrix::RandomUniform(1, 40, 1.0, &rng);
  const std::vector<int> candidates = {39, 1, 2, 3, 4, 5, 1};
  NoGradScope no_grad;
  const Tensor logits =
      CandidateLogits(Tensor::Variable(hv), Tensor::Variable(wv),
                      Tensor::Variable(bv), candidates);
  EXPECT_FALSE(logits.requires_grad());
  EXPECT_FALSE(logits.node()->backward_fn);
  EXPECT_TRUE(SameBits(logits.value(),
                       ReferenceCandidateForward(hv, wv, bv, candidates)));
}

TEST(Ops, Im2RowCausalLayout) {
  Matrix x(3, 2);
  for (size_t r = 0; r < 3; ++r) {
    x(r, 0) = static_cast<Scalar>(10 * (r + 1));
    x(r, 1) = static_cast<Scalar>(10 * (r + 1) + 1);
  }
  const Matrix out = Im2RowCausal(Tensor::Constant(x), 2).value();
  ASSERT_EQ(out.cols(), 4u);
  // Row 0: [pad, x0]; row 2: [x1, x2].
  EXPECT_DOUBLE_EQ(out(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(out(2, 0), 20.0);
  EXPECT_DOUBLE_EQ(out(2, 2), 30.0);
}

TEST(Losses, CrossEntropyUniformLogits) {
  const Tensor logits = Tensor::Constant(Matrix::Zeros(2, 4));
  const Tensor loss = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.ScalarValue(), std::log(4.0), 1e-9);
}

TEST(Losses, CrossEntropyBiasShiftsDistribution) {
  const Tensor logits = Tensor::Constant(Matrix::Zeros(1, 2));
  Matrix bias(1, 2);
  bias(0, 0) = 0.0;
  bias(0, 1) = -100.0;  // class 1 effectively masked out
  const Tensor loss = SoftmaxCrossEntropy(logits, {0}, &bias);
  EXPECT_NEAR(loss.ScalarValue(), 0.0, 1e-9);
}

TEST(Losses, MseKnownValue) {
  Matrix pred(2, 1);
  pred(0, 0) = 1.0;
  pred(1, 0) = 3.0;
  Matrix target(2, 1);
  target(0, 0) = 0.0;
  target(1, 0) = 1.0;
  const Tensor loss = MseLoss(Tensor::Constant(pred), target);
  EXPECT_NEAR(loss.ScalarValue(), (1.0 + 4.0) / 2.0, 1e-12);
}

TEST(Losses, ArgmaxRow) {
  Matrix m(2, 3);
  m(0, 1) = 5.0;
  m(1, 2) = 2.0;
  EXPECT_EQ(ArgmaxRow(m, 0), 1u);
  EXPECT_EQ(ArgmaxRow(m, 1), 2u);
}

TEST(Autograd, NoGradScopeSkipsTape) {
  Rng rng(4);
  Tensor w = Tensor::Variable(Matrix::RandomUniform(2, 2, 1.0, &rng));
  NoGradScope no_grad;
  Tensor y = MatMul(Tensor::Constant(M2x2(1, 2, 3, 4)), w);
  EXPECT_FALSE(y.requires_grad());
}

TEST(Autograd, BackwardAccumulatesAcrossCalls) {
  Tensor w = Tensor::Variable(M2x2(1, 1, 1, 1));
  Mean(w).Backward();
  Mean(w).Backward();
  EXPECT_NEAR(w.grad()(0, 0), 2.0 * 0.25, 1e-12);
  w.ZeroGrad();
  EXPECT_DOUBLE_EQ(w.grad()(0, 0), 0.0);
}

TEST(Autograd, BackwardOnConstantGraphIsNoOp) {
  const Tensor a = Tensor::Constant(M2x2(1, 2, 3, 4));
  Tensor loss = Mean(Mul(a, a));
  loss.Backward();  // must not crash
  SUCCEED();
}

TEST(Flops, MatMulCountsTwoMnk) {
  Rng rng(5);
  const Matrix a = Matrix::RandomUniform(3, 4, 1.0, &rng);
  const Matrix b = Matrix::RandomUniform(4, 5, 1.0, &rng);
  ScopedFlopCount counter;
  (void)MatMulValues(a, b);
  EXPECT_EQ(counter.Elapsed(), 2 * 3 * 4 * 5);
}

TEST(Flops, ScopedCounterIsolatesRegions) {
  Rng rng(6);
  const Matrix a = Matrix::RandomUniform(2, 2, 1.0, &rng);
  ScopedFlopCount outer;
  (void)MatMulValues(a, a);
  const int64_t first = outer.Elapsed();
  (void)MatMulValues(a, a);
  EXPECT_EQ(outer.Elapsed(), 2 * first);
}

TEST(Layers, DenseShapes) {
  ParameterSet params;
  Rng rng(7);
  Dense dense(3, 5, "d", &params, &rng);
  EXPECT_EQ(params.NumScalars(), 3 * 5 + 5);
  const Tensor y = dense.Forward(Tensor::Constant(Matrix::Zeros(4, 3)));
  EXPECT_EQ(y.rows(), 4u);
  EXPECT_EQ(y.cols(), 5u);
}

TEST(Layers, GruStateInRange) {
  ParameterSet params;
  Rng rng(8);
  GruCell gru(3, 4, "g", &params, &rng);
  Tensor h = gru.InitialState();
  for (int step = 0; step < 5; ++step) {
    h = gru.Forward(
        Tensor::Constant(Matrix::RandomUniform(1, 3, 2.0, &rng)), h);
    for (size_t i = 0; i < h.value().size(); ++i) {
      EXPECT_GT(h.value().data()[i], -1.0);
      EXPECT_LT(h.value().data()[i], 1.0);
    }
  }
}

TEST(Layers, AttentionIsConvexCombination) {
  // With a single key/value row, attention returns exactly that row.
  Rng rng(9);
  const Tensor q = Tensor::Constant(Matrix::RandomUniform(2, 4, 1.0, &rng));
  const Matrix value_row = Matrix::RandomUniform(1, 4, 1.0, &rng);
  const Tensor kv = Tensor::Constant(value_row);
  const Matrix out = ScaledDotProductAttention(q, kv, kv).value();
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(out(r, c), value_row(0, c), 1e-12);
    }
  }
}

TEST(Layers, CausalConv1dShapes) {
  ParameterSet params;
  Rng rng(10);
  CausalConv1d conv(3, 5, 4, "c", &params, &rng);
  const Tensor y = conv.Forward(Tensor::Constant(Matrix::Zeros(7, 3)));
  EXPECT_EQ(y.rows(), 7u);
  EXPECT_EQ(y.cols(), 5u);
  EXPECT_EQ(params.NumScalars(), 3 * 4 * 5 + 5);
}

}  // namespace
}  // namespace lighttr::nn
