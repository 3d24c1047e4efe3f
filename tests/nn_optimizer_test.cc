// Tests for the Adam optimizer and its state blobs, clipping, weight
// decay, and the ParameterSet registry with its FedAvg helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "nn/losses.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"

namespace lighttr::nn {
namespace {

// Minimizes ||w - target||^2 and returns the final w.
Matrix MinimizeQuadratic(Optimizer* optimizer, int steps) {
  ParameterSet params;
  Tensor w = Tensor::Variable(Matrix::Full(1, 3, 5.0));
  params.Register("w", w);
  Matrix target(1, 3);
  target(0, 0) = 1.0;
  target(0, 1) = -2.0;
  target(0, 2) = 0.5;
  for (int i = 0; i < steps; ++i) {
    Tensor loss = MseLoss(w, target);
    loss.Backward();
    optimizer->Step(&params);
  }
  return w.value();
}

TEST(Adam, ConvergesOnQuadratic) {
  AdamOptimizer adam(0.1, 0.9, 0.999, 1e-8, /*clip_norm=*/0,
                     /*weight_decay=*/0);
  const Matrix w = MinimizeQuadratic(&adam, 400);
  EXPECT_NEAR(w(0, 0), 1.0, 1e-2);
  EXPECT_NEAR(w(0, 1), -2.0, 1e-2);
}

TEST(Adam, WeightDecayShrinksUnusedWeights) {
  ParameterSet params;
  Tensor w = Tensor::Variable(Matrix::Full(1, 1, 4.0));
  params.Register("w", w);
  AdamOptimizer adam(0.1, 0.9, 0.999, 1e-8, 0, /*weight_decay=*/0.5);
  for (int i = 0; i < 10; ++i) {
    w.grad();  // allocate zero grad: pure decay steps
    adam.Step(&params);
  }
  EXPECT_LT(std::abs(w.value()(0, 0)), 4.0);
}

TEST(Optimizer, StepZeroesGradients) {
  ParameterSet params;
  Tensor w = Tensor::Variable(Matrix::Full(1, 2, 1.0));
  params.Register("w", w);
  Tensor loss = Mean(w);
  loss.Backward();
  AdamOptimizer adam(0.1);
  adam.Step(&params);
  EXPECT_DOUBLE_EQ(w.grad()(0, 0), 0.0);
}

// ---------------------------------------------------------------------
// Adam state blobs: run-state snapshots carry them, so a restored blob
// is untrusted input until every shape agrees.
// ---------------------------------------------------------------------

// Two tensors of different shapes (3x3 and 1x5: 14 scalars, a vector
// body plus a tail per tensor).
std::unique_ptr<ParameterSet> MakeModel(uint64_t seed) {
  auto params = std::make_unique<ParameterSet>();
  Rng rng(seed);
  params->Register("w1",
                   Tensor::Variable(Matrix::RandomUniform(3, 3, 1.0, &rng)));
  params->Register("w2",
                   Tensor::Variable(Matrix::RandomUniform(1, 5, 1.0, &rng)));
  return params;
}

// Fills every gradient with a value fixed by (tensor, element, step),
// then steps.
void StepWithGradients(AdamOptimizer* adam, ParameterSet* params, int step) {
  for (size_t i = 0; i < params->size(); ++i) {
    Matrix& g = params->tensor(i).grad();
    for (size_t j = 0; j < g.size(); ++j) {
      g.data()[j] = std::sin(0.7 * static_cast<double>((i + 1) * (j + 1)) +
                             static_cast<double>(step));
    }
  }
  adam->Step(params);
}

bool BitwiseEqual(const std::vector<Scalar>& a, const std::vector<Scalar>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0;
}

TEST(AdamState, RejectsMomentsOfDifferentShapes) {
  // A 4x8 first moment next to a 1x1 second moment: the matrix counts
  // agree, so only a per-matrix shape check catches it. Accepted, the
  // next Step would read 32 elements of the one-element v.
  BinaryWriter writer;
  writer.WriteU8(1);  // Adam kind tag
  writer.WriteI64(3);
  writer.WriteU32(1);
  writer.WriteU32(4);
  writer.WriteU32(8);
  for (int i = 0; i < 32; ++i) writer.WriteF64(0.0);
  writer.WriteU32(1);
  writer.WriteU32(1);
  writer.WriteU32(1);
  writer.WriteF64(0.0);
  AdamOptimizer adam(0.1);
  const Status status = adam.DeserializeState(writer.Take());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The rejected blob left the optimizer untouched and usable.
  ParameterSet params;
  Tensor w = Tensor::Variable(Matrix::Full(4, 8, 1.0));
  params.Register("w", w);
  w.grad().Fill(0.5);
  adam.Step(&params);
  EXPECT_LT(w.value()(0, 0), 1.0);
}

// A moment matrix of 2^31 x 2^30 = 2^61 elements: its byte size wraps
// to 0 in 64 bits, so a multiply-then-compare bound check passes it and
// the decode writes 4,096 values into a block sized for none.
std::string WrappingDimensionsBlob() {
  BinaryWriter writer;
  writer.WriteU8(1);  // Adam kind tag
  writer.WriteI64(1);
  writer.WriteU32(1);
  writer.WriteU32(0x80000000u);
  writer.WriteU32(0x40000000u);
  for (int i = 0; i < 4096; ++i) writer.WriteF64(1.0);
  return writer.Take();
}

TEST(AdamState, RejectsDimensionsWhoseByteSizeWraps) {
  AdamOptimizer adam(0.1);
  const Status status = adam.DeserializeState(WrappingDimensionsBlob());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(AdamState, RejectsMalformedBlobs) {
  auto params = MakeModel(1);
  AdamOptimizer adam(0.01);
  for (int step = 0; step < 2; ++step) {
    StepWithGradients(&adam, params.get(), step);
  }
  const std::string blob = adam.SerializeState();
  AdamOptimizer fresh(0.01);
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(fresh.DeserializeState(blob.substr(0, len)).ok())
        << "prefix of " << len << " bytes";
  }
  EXPECT_FALSE(fresh.DeserializeState(blob + '\0').ok());
  std::string wrong_kind = blob;
  wrong_kind[0] = 2;
  EXPECT_FALSE(fresh.DeserializeState(wrong_kind).ok());
  // The step count is the i64 right after the one-byte kind tag.
  BinaryWriter negative;
  negative.WriteU8(static_cast<uint8_t>(blob[0]));
  negative.WriteI64(-1);
  negative.WriteBytes(blob.data() + 9, blob.size() - 9);
  EXPECT_FALSE(fresh.DeserializeState(negative.Take()).ok());
  // Moments Step cannot write: a NaN or an infinity in either moment, or
  // a negative second moment. Each moment list is a u32 count and then,
  // per matrix, u32 rows and cols and the values.
  const size_t first_m = 9 + 4 + 8;
  size_t first_v = 9 + 4 + 4 + 8;
  for (size_t i = 0; i < params->size(); ++i) {
    first_v += 8 + 8 * params->tensor(i).value().size();
  }
  auto with_moment = [&blob](size_t offset, Scalar value) {
    std::string edited = blob;
    std::memcpy(&edited[offset], &value, sizeof(value));
    return edited;
  };
  for (const Scalar poison : {std::numeric_limits<Scalar>::quiet_NaN(),
                              std::numeric_limits<Scalar>::infinity(),
                              -std::numeric_limits<Scalar>::infinity()}) {
    EXPECT_FALSE(fresh.DeserializeState(with_moment(first_m, poison)).ok());
    EXPECT_FALSE(fresh.DeserializeState(with_moment(first_v, poison)).ok());
  }
  EXPECT_FALSE(fresh.DeserializeState(with_moment(first_v, -0.5)).ok());
  // A negative first moment is an ordinary state.
  EXPECT_TRUE(fresh.DeserializeState(with_moment(first_m, -0.5)).ok());
  // The untouched blob loads: the rejections above are the edits'.
  EXPECT_TRUE(fresh.DeserializeState(blob).ok());
}

TEST(AdamState, SerializeRoundTripsByteIdentically) {
  auto params = MakeModel(2);
  AdamOptimizer adam(0.01);
  for (int step = 0; step < 3; ++step) {
    StepWithGradients(&adam, params.get(), step);
  }
  const std::string blob = adam.SerializeState();
  AdamOptimizer restored(0.01);
  ASSERT_TRUE(restored.DeserializeState(blob).ok());
  EXPECT_EQ(restored.SerializeState(), blob);
}

TEST(AdamState, RestoredOptimizerStepsBitwiseLikeTheOriginal) {
  auto original_params = MakeModel(3);
  AdamOptimizer original(0.01);
  for (int step = 0; step < 3; ++step) {
    StepWithGradients(&original, original_params.get(), step);
  }
  // Same values and a fresh optimizer loaded from the original's state.
  auto restored_params = MakeModel(4);
  restored_params->AssignFlat(original_params->Flatten());
  AdamOptimizer restored(0.01);
  ASSERT_TRUE(restored.DeserializeState(original.SerializeState()).ok());

  StepWithGradients(&original, original_params.get(), 3);
  StepWithGradients(&restored, restored_params.get(), 3);
  EXPECT_TRUE(
      BitwiseEqual(original_params->Flatten(), restored_params->Flatten()));
  EXPECT_EQ(original.SerializeState(), restored.SerializeState());
}

TEST(Clipping, ScalesDownLargeGradients) {
  ParameterSet params;
  Tensor w = Tensor::Variable(Matrix::Full(1, 4, 0.0));
  params.Register("w", w);
  Matrix& g = w.grad();
  g.Fill(10.0);  // norm = 20
  ClipGradientsByGlobalNorm(&params, 2.0);
  EXPECT_NEAR(std::sqrt(w.grad().SquaredNorm()), 2.0, 1e-9);
}

TEST(Clipping, LeavesSmallGradientsAlone) {
  ParameterSet params;
  Tensor w = Tensor::Variable(Matrix::Full(1, 4, 0.0));
  params.Register("w", w);
  w.grad().Fill(0.1);
  ClipGradientsByGlobalNorm(&params, 5.0);
  EXPECT_DOUBLE_EQ(w.grad()(0, 0), 0.1);
}

// A NaN or Inf anywhere makes the global norm non-finite: every
// gradient, the finite ones too, comes out zero rather than scaled by
// max_norm / NaN.
TEST(Clipping, NonFiniteGradientsComeOutZero) {
  for (const Scalar poison : {std::numeric_limits<Scalar>::quiet_NaN(),
                              std::numeric_limits<Scalar>::infinity(),
                              -std::numeric_limits<Scalar>::infinity()}) {
    SCOPED_TRACE(poison);
    ParameterSet params;
    Tensor a = Tensor::Variable(Matrix::Full(1, 3, 0.0));
    Tensor b = Tensor::Variable(Matrix::Full(2, 2, 0.0));
    params.Register("a", a);
    params.Register("b", b);
    a.grad().Fill(0.5);
    b.grad().Fill(2.0);
    b.grad()(1, 0) = poison;
    ClipGradientsByGlobalNorm(&params, 5.0);
    for (const Tensor& t : {a, b}) {
      for (size_t i = 0; i < t.grad().size(); ++i) {
        EXPECT_EQ(t.grad().data()[i], 0.0);
      }
    }
  }
}

TEST(ParameterSet, FlattenAssignRoundTrip) {
  ParameterSet params;
  Rng rng(1);
  Tensor a = Tensor::Variable(Matrix::RandomUniform(2, 3, 1.0, &rng));
  Tensor b = Tensor::Variable(Matrix::RandomUniform(1, 4, 1.0, &rng));
  params.Register("a", a);
  params.Register("b", b);
  EXPECT_EQ(params.NumScalars(), 10);

  std::vector<Scalar> flat = params.Flatten();
  ASSERT_EQ(flat.size(), 10u);
  for (Scalar& x : flat) x += 1.0;
  params.AssignFlat(flat);
  EXPECT_EQ(params.Flatten(), flat);
}

TEST(ParameterSet, GetByName) {
  ParameterSet params;
  Tensor a = Tensor::Variable(Matrix::Full(1, 1, 7.0));
  params.Register("only", a);
  EXPECT_DOUBLE_EQ(params.Get("only").value()(0, 0), 7.0);
}

TEST(ParameterSet, SerializeDeserializeRoundTrip) {
  auto source = MakeModel(1);
  auto dest = MakeModel(2);
  const std::string blob = source->Serialize();
  // The float32 layout: magic and count, then per tensor a u32 name
  // length, the name, u32 rows and cols, and four bytes per value.
  size_t layout = 8;
  for (size_t i = 0; i < source->size(); ++i) {
    layout += 12 + source->name(i).size() +
              4 * source->tensor(i).value().size();
  }
  EXPECT_EQ(blob.size(), layout);
  ASSERT_TRUE(dest->Deserialize(blob).ok());
  // float32 wire format: equality within float precision.
  const auto a = source->Flatten();
  const auto b = dest->Flatten();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-6);
  }
}

TEST(ParameterSet, DeserializeRejectsCorruption) {
  ParameterSet params;
  params.Register("w", Tensor::Variable(Matrix::Full(2, 2, 1.0)));
  const std::string blob = params.Serialize();

  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_FALSE(params.Deserialize(bad_magic).ok());

  EXPECT_FALSE(params.Deserialize(blob.substr(0, blob.size() - 3)).ok());
  EXPECT_FALSE(params.Deserialize(blob + "zz").ok());

  ParameterSet other_name;
  other_name.Register("v", Tensor::Variable(Matrix::Full(2, 2, 1.0)));
  EXPECT_FALSE(other_name.Deserialize(blob).ok());

  ParameterSet other_shape;
  other_shape.Register("w", Tensor::Variable(Matrix::Full(2, 3, 1.0)));
  EXPECT_FALSE(other_shape.Deserialize(blob).ok());
}

}  // namespace
}  // namespace lighttr::nn
