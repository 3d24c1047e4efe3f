// Forward-value and behaviour tests for the nn ops, FLOP accounting,
// NoGradScope, dropout semantics, and softmax properties; the fused
// MtHeadStep against the composed chain it replaced; value-only ops;
// and graph-node storage in the tensor arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/finite.h"
#include "common/thread_pool.h"
#include "nn/arena.h"
#include "nn/flops.h"
#include "nn/kernels/kernels.h"
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
  const Matrix out = EmbeddingLookup(t, std::vector<int>{2, 0, 2}).value();
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

// ---------------------------------------------------------------------
// The fused MT-head step against the composed chain it replaced.
// ---------------------------------------------------------------------

// The body MtHead::Run had before the fused step: the bitwise oracle.
MtHeadOutput ComposedMtHead(const Tensor& state, const MtHeadWeights& w,
                            const std::vector<int>& candidates,
                            const std::vector<Scalar>& log_mask,
                            int target_index, int conditioning_segment) {
  const Tensor h_d = AddRowBroadcast(MatMul(state, w.dense_w), w.dense_b);
  const Tensor logits = CandidateLogits(h_d, w.seg_w, w.seg_b, candidates);
  const Matrix mask_row = Matrix::RowVector(log_mask);

  MtHeadOutput step;
  if (target_index >= 0) {
    step.ce_loss = SoftmaxCrossEntropy(logits, {target_index}, &mask_row);
  }
  size_t best = 0;
  for (size_t k = 1; k < candidates.size(); ++k) {
    if (logits.value()(0, k) + mask_row(0, k) >
        logits.value()(0, best) + mask_row(0, best)) {
      best = k;
    }
  }
  step.predicted_segment = candidates[best];

  const int condition = conditioning_segment >= 0 ? conditioning_segment
                                                  : step.predicted_segment;
  const Tensor e_emb =
      EmbeddingLookup(w.emb_table, std::vector<int>{condition});
  const Tensor h_e = Relu(
      Add(h_d, AddRowBroadcast(MatMul(e_emb, w.proj_w), w.proj_b)));
  step.ratio = Sigmoid(AddRowBroadcast(
      MatMul(ConcatCols(h_e, e_emb), w.ratio_w), w.ratio_b));
  return step;
}

constexpr size_t kHeadEmbed = 16;
constexpr size_t kHeadSegments = 40;

// A decoder state and head weights, all trainable, with nonzero seeded
// grads so that accumulation order shows in the bits. Equal seeds give
// equal fixtures.
struct HeadFixture {
  Tensor state;
  MtHeadWeights w;

  // The state, then head.dense.{w,b}, head.seg.{w,b}, head.emb.table,
  // head.embproj.{w,b}, head.ratio.{w,b}.
  std::vector<Tensor> Leaves() const {
    return {state,       w.dense_w, w.dense_b, w.seg_w,   w.seg_b,
            w.emb_table, w.proj_w,  w.proj_b,  w.ratio_w, w.ratio_b};
  }
};

HeadFixture MakeHeadFixture(size_t hidden, uint64_t seed, bool trainable) {
  Rng rng(seed);
  const auto make = [&](size_t rows, size_t cols) {
    Matrix value = Matrix::RandomUniform(rows, cols, 1.0, &rng);
    return trainable ? Tensor::Variable(std::move(value))
                     : Tensor::Constant(std::move(value));
  };
  HeadFixture f;
  f.state = make(1, hidden);
  f.w.dense_w = make(hidden, hidden);
  f.w.dense_b = make(1, hidden);
  f.w.seg_w = make(hidden, kHeadSegments);
  f.w.seg_b = make(1, kHeadSegments);
  f.w.emb_table = make(kHeadSegments, kHeadEmbed);
  f.w.proj_w = make(kHeadEmbed, hidden);
  f.w.proj_b = make(1, hidden);
  f.w.ratio_w = make(hidden + kHeadEmbed, 1);
  f.w.ratio_b = make(1, 1);
  if (trainable) {
    for (const Tensor& leaf : f.Leaves()) {
      leaf.grad() =
          Matrix::RandomUniform(leaf.rows(), leaf.cols(), 1.0, &rng);
    }
  }
  return f;
}

struct HeadCase {
  std::vector<int> candidates;
  std::vector<Scalar> log_mask;
  int target_index = -1;          // -1: the truth is out of range
  int conditioning_segment = -1;  // -1: condition on the argmax
};

using HeadFn = MtHeadOutput (*)(const Tensor&, const MtHeadWeights&,
                                const std::vector<int>&,
                                const std::vector<Scalar>&, int, int);

// One step's forward and backward: the loss weighs the cross-entropy
// and the ratio's squared error, as Eq. 13 does.
struct HeadRun {
  MtHeadOutput out;
  int64_t flops = 0;
};

HeadRun RunHead(HeadFn head, const HeadFixture& f, const HeadCase& c) {
  HeadRun run;
  const ScopedFlopCount counter;
  run.out = head(f.state, f.w, c.candidates, c.log_mask, c.target_index,
                 c.conditioning_segment);
  Tensor loss = MseLoss(run.out.ratio, Matrix::Full(1, 1, 0.3));
  if (run.out.ce_loss.defined()) {
    loss = Add(Scale(run.out.ce_loss, 0.5), loss);
  }
  loss.Backward();
  run.flops = counter.Elapsed();
  return run;
}

void ExpectFusedHeadMatchesComposed(size_t hidden, const HeadCase& c,
                                    uint64_t seed) {
  const HeadFixture fused_fixture = MakeHeadFixture(hidden, seed, true);
  const HeadFixture composed_fixture = MakeHeadFixture(hidden, seed, true);
  const HeadRun fused = RunHead(&MtHeadStep, fused_fixture, c);
  const HeadRun composed = RunHead(&ComposedMtHead, composed_fixture, c);

  const std::string where = "hidden " + std::to_string(hidden) + ", " +
                            std::to_string(c.candidates.size()) +
                            " candidates, target " +
                            std::to_string(c.target_index) + ", condition " +
                            std::to_string(c.conditioning_segment);
  EXPECT_EQ(fused.out.predicted_segment, composed.out.predicted_segment)
      << where;
  ASSERT_EQ(fused.out.ce_loss.defined(), composed.out.ce_loss.defined())
      << where;
  if (fused.out.ce_loss.defined()) {
    EXPECT_TRUE(SameBits(fused.out.ce_loss.value(),
                         composed.out.ce_loss.value()))
        << where;
  }
  EXPECT_TRUE(SameBits(fused.out.ratio.value(), composed.out.ratio.value()))
      << where;
  EXPECT_EQ(fused.flops, composed.flops) << where;
  const std::vector<Tensor> got = fused_fixture.Leaves();
  const std::vector<Tensor> want = composed_fixture.Leaves();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(SameBits(got[i].grad_or_empty(), want[i].grad_or_empty()))
        << where << ", leaf " << i;
  }
}

TEST(MtHeadStep, MatchesComposedChainBitwise) {
  const KernelMode previous = ActiveKernelMode();
  Rng rng(31);
  uint64_t seed = 100;
  for (const KernelMode mode : {KernelMode::kScalar, KernelMode::kAuto}) {
    ActivateKernels(mode);
    for (const size_t hidden : {32u, 48u}) {
      // 7 distinct ids (not a multiple of 4), 8 distinct, and 5 with
      // repeated ids.
      for (const std::vector<int>& candidates :
           {std::vector<int>{3, 17, 29, 8, 39, 0, 21},
            std::vector<int>{4, 12, 33, 7, 26, 15, 38, 1},
            std::vector<int>{9, 22, 9, 30, 22}}) {
        HeadCase c;
        c.candidates = candidates;
        for (size_t k = 0; k < candidates.size(); ++k) {
          c.log_mask.push_back(rng.Uniform(-4.0, 0.0));
        }
        for (const int target : {2, -1}) {
          c.target_index = target;
          // Conditioning on the truth (an id outside the candidates when
          // the truth is out of range), and on the argmax.
          for (const int condition :
               {target >= 0 ? candidates[static_cast<size_t>(target)] : 35,
                -1}) {
            c.conditioning_segment = condition;
            ExpectFusedHeadMatchesComposed(hidden, c, ++seed);
          }
        }
      }
    }
  }
  ActivateKernels(previous);
}

// Distinct nodes with a backward reachable from `roots`.
size_t RecordedNodes(const std::vector<Tensor>& roots) {
  std::vector<const TensorNode*> seen;
  std::vector<const TensorNode*> stack;
  for (const Tensor& root : roots) {
    if (root.defined()) stack.push_back(root.node());
  }
  while (!stack.empty()) {
    const TensorNode* node = stack.back();
    stack.pop_back();
    if (!node->backward_fn ||
        std::find(seen.begin(), seen.end(), node) != seen.end()) {
      continue;
    }
    seen.push_back(node);
    for (const Tensor& parent : node->parents) stack.push_back(parent.node());
  }
  return seen.size();
}

TEST(MtHeadStep, TeacherForcedStepRecordsAtMostThreeNodes) {
  const HeadFixture f = MakeHeadFixture(32, 5, true);
  const std::vector<int> candidates = {3, 17, 29, 8, 39};
  const std::vector<Scalar> mask = {-0.5, -1.0, -0.1, -2.0, -0.3};
  const MtHeadOutput fused =
      MtHeadStep(f.state, f.w, candidates, mask, 1, candidates[1]);
  EXPECT_LE(RecordedNodes({fused.ce_loss, fused.ratio}), 3u);
  const MtHeadOutput composed =
      ComposedMtHead(f.state, f.w, candidates, mask, 1, candidates[1]);
  EXPECT_EQ(RecordedNodes({composed.ce_loss, composed.ratio}), 13u);
}

// ---------------------------------------------------------------------
// Value-only ops: under NoGradScope, or on inputs that need no
// gradient, every op returns the recorded path's value bits and FLOP
// count with no parents and no backward.
// ---------------------------------------------------------------------

struct OpCase {
  const char* name;
  std::vector<Matrix> inputs;
  std::function<Tensor(const std::vector<Tensor>&)> run;
};

std::vector<OpCase> ValueOnlyCases() {
  Rng rng(41);
  const auto m = [&](size_t rows, size_t cols) {
    return Matrix::RandomUniform(rows, cols, 1.0, &rng);
  };
  const Matrix bias = m(1, 3);
  const Matrix mse_target = m(2, 3);
  HeadFixture head = MakeHeadFixture(8, 3, false);
  std::vector<Matrix> head_inputs;
  for (const Tensor& leaf : head.Leaves()) head_inputs.push_back(leaf.value());
  const auto head_weights = [](const std::vector<Tensor>& in) {
    MtHeadWeights w;
    w.dense_w = in[1];
    w.dense_b = in[2];
    w.seg_w = in[3];
    w.seg_b = in[4];
    w.emb_table = in[5];
    w.proj_w = in[6];
    w.proj_b = in[7];
    w.ratio_w = in[8];
    w.ratio_b = in[9];
    return w;
  };
  const std::vector<int> head_candidates = {3, 17, 29, 3, 39};
  const std::vector<Scalar> head_mask = {-0.5, -1.0, -0.1, -2.0, -0.3};
  using In = const std::vector<Tensor>&;
  return {
      {"Add", {m(2, 3), m(2, 3)}, [](In in) { return Add(in[0], in[1]); }},
      {"AddRowBroadcast", {m(2, 3), m(1, 3)},
       [](In in) { return AddRowBroadcast(in[0], in[1]); }},
      {"Sub", {m(2, 3), m(2, 3)}, [](In in) { return Sub(in[0], in[1]); }},
      {"Mul", {m(2, 3), m(2, 3)}, [](In in) { return Mul(in[0], in[1]); }},
      {"Scale", {m(2, 3)}, [](In in) { return Scale(in[0], 0.3); }},
      {"MatMul", {m(2, 3), m(3, 4)},
       [](In in) { return MatMul(in[0], in[1]); }},
      {"Sigmoid", {m(2, 3)}, [](In in) { return Sigmoid(in[0]); }},
      {"Tanh", {m(2, 3)}, [](In in) { return Tanh(in[0]); }},
      {"Relu", {m(2, 3)}, [](In in) { return Relu(in[0]); }},
      {"ConcatCols", {m(2, 3), m(2, 1)},
       [](In in) { return ConcatCols(in[0], in[1]); }},
      {"ConcatRows", {m(1, 3), m(2, 3)},
       [](In in) { return ConcatRows({in[0], in[1], in[0]}); }},
      {"SliceRows", {m(4, 3)}, [](In in) { return SliceRows(in[0], 1, 2); }},
      {"Transpose", {m(2, 3)}, [](In in) { return Transpose(in[0]); }},
      {"SoftmaxRows", {m(2, 3)}, [](In in) { return SoftmaxRows(in[0]); }},
      {"Sum", {m(2, 3)}, [](In in) { return Sum(in[0]); }},
      {"Mean", {m(2, 3)}, [](In in) { return Mean(in[0]); }},
      {"Dropout", {m(4, 5)},
       [](In in) {
         Rng dropout_rng(5);
         return Dropout(in[0], 0.3, /*training=*/true, &dropout_rng);
       }},
      {"EmbeddingLookup", {m(6, 3)},
       [](In in) {
         return EmbeddingLookup(in[0], std::vector<int>{4, 1, 4});
       }},
      {"GruStep",
       {m(2, 3), m(2, 4), m(7, 4), m(1, 4), m(7, 4), m(1, 4), m(7, 4),
        m(1, 4)},
       [](In in) {
         return GruStep(in[0], in[1], in[2], in[3], in[4], in[5], in[6],
                        in[7]);
       }},
      {"Im2RowCausal", {m(4, 3)},
       [](In in) { return Im2RowCausal(in[0], 2); }},
      {"CandidateLogits", {m(1, 4), m(4, 9), m(1, 9)},
       [](In in) { return CandidateLogits(in[0], in[1], in[2], {2, 8, 2}); }},
      {"SoftmaxCrossEntropy", {m(2, 3)},
       [](In in) { return SoftmaxCrossEntropy(in[0], {2, 0}); }},
      {"SoftmaxCrossEntropy masked", {m(1, 3)},
       [bias](In in) { return SoftmaxCrossEntropy(in[0], {1}, &bias); }},
      {"MseLoss", {m(2, 3)},
       [mse_target](In in) { return MseLoss(in[0], mse_target); }},
      {"MtHeadStep ce", head_inputs,
       [=](In in) {
         return MtHeadStep(in[0], head_weights(in), head_candidates,
                           head_mask, 1, -1)
             .ce_loss;
       }},
      {"MtHeadStep ratio", head_inputs,
       [=](In in) {
         return MtHeadStep(in[0], head_weights(in), head_candidates,
                           head_mask, 1, -1)
             .ratio;
       }},
  };
}

struct OpRun {
  Tensor out;
  int64_t flops = 0;
};

OpRun RunOp(const OpCase& c, bool variables) {
  std::vector<Tensor> inputs;
  for (const Matrix& value : c.inputs) {
    inputs.push_back(variables ? Tensor::Variable(value)
                               : Tensor::Constant(value));
  }
  OpRun run;
  const ScopedFlopCount counter;
  run.out = c.run(inputs);
  run.flops = counter.Elapsed();
  return run;
}

void ExpectValueOnly(const OpCase& c, const OpRun& recorded,
                     const OpRun& run, const char* how) {
  EXPECT_TRUE(SameBits(run.out.value(), recorded.out.value()))
      << c.name << " " << how;
  EXPECT_EQ(run.flops, recorded.flops) << c.name << " " << how;
  EXPECT_FALSE(run.out.requires_grad()) << c.name << " " << how;
  EXPECT_TRUE(run.out.node()->parents.empty()) << c.name << " " << how;
  EXPECT_FALSE(run.out.node()->backward_fn) << c.name << " " << how;
}

TEST(ValueOnlyOps, EveryOpRecordsNothingWithoutAGradient) {
  for (const OpCase& c : ValueOnlyCases()) {
    const OpRun recorded = RunOp(c, /*variables=*/true);
    ASSERT_TRUE(recorded.out.requires_grad()) << c.name;
    ASSERT_TRUE(recorded.out.node()->backward_fn) << c.name;
    {
      NoGradScope no_grad;
      ExpectValueOnly(c, recorded, RunOp(c, /*variables=*/true),
                      "under NoGradScope");
    }
    ExpectValueOnly(c, recorded, RunOp(c, /*variables=*/false),
                    "on constants");
  }
}

// ---------------------------------------------------------------------
// Graph-node storage.
// ---------------------------------------------------------------------

TEST(NodeStorage, PoolRecyclesNodesAfterWarmUp) {
  TrimThreadArena();
  const Tensor a = Tensor::Constant(Matrix::Full(1, 4, 1.0));
  (void)Add(a, a);  // warm: its node and matrix blocks parked in the arena
  const ArenaStats before = ThreadArenaStats();
  for (int i = 0; i < 10; ++i) (void)Add(a, a);
  const ArenaStats after = ThreadArenaStats();
  // Each Add draws two blocks, its node and its matrix, both reused.
  EXPECT_EQ(after.acquires - before.acquires, 20);
  EXPECT_EQ(after.pool_hits - before.pool_hits, 20);
  EXPECT_EQ(after.heap_allocations, before.heap_allocations);
  EXPECT_EQ(after.releases - before.releases, 20);
  EXPECT_EQ(after.cached_blocks, before.cached_blocks);
  TrimThreadArena();
  EXPECT_EQ(ThreadArenaStats().cached_blocks, 0);
}

// A thread_local constructed before its thread's arena, and so
// destroyed after it.
struct LateHolder {
  Tensor tensor;
};

TEST(NodeStorage, NodesOutliveTheirThreadAndItsPool) {
  Tensor from_worker;
  {
    ThreadPool pool(2);
    std::atomic<bool> worker_ran{false};
    // One index runs on the worker; the caller waits for it.
    pool.ParallelFor(2, [&](size_t) {  // lint: shared-state(from_worker)
      if (!ThreadPool::OnWorkerThread()) {
        while (!worker_ran.load()) std::this_thread::yield();
        return;
      }
      thread_local LateHolder holder;
      holder.tensor = Tensor::Constant(Matrix::Full(1, 3, 2.0));
      from_worker = Add(holder.tensor, holder.tensor);
      worker_ran.store(true);
    });
  }  // the worker exits: its pool and arena go, then `holder` frees
  EXPECT_DOUBLE_EQ(from_worker.value()(0, 2), 4.0);
  from_worker = Tensor();  // freed on another thread than it came from
}

}  // namespace
}  // namespace lighttr::nn
