#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/finite.h"
#include "nn/kernels/kernels.h"

namespace lighttr::nn {

namespace {

// Optimizer state blobs: u8 kind tag, then the concrete optimizer's
// counters and moment matrices at full Scalar precision. Embedded in
// run-state snapshots, which carry the integrity CRC; blobs here only
// need to be bounds-safe to parse.
constexpr uint8_t kStateKindAdam = 1;

// Whether `m` and `v` are moments Step can have written: one shape,
// finite values and a non-negative second moment. (The default clip
// zeroes a non-finite gradient, and v is a decayed sum of squares.)
bool MomentsHold(const Matrix& m, const Matrix& v) {
  if (!m.SameShape(v)) return false;
  for (size_t i = 0; i < m.size(); ++i) {
    if (!IsFinite(m.data()[i]) || !IsFinite(v.data()[i]) ||
        v.data()[i] < Scalar{0}) {
      return false;
    }
  }
  return true;
}

// Adam's state blob, as a field walk (common/binary_io.h): the kind tag,
// the step count, then the first and the second moments, each a u32
// matrix count and the matrices.
template <typename Io, typename Steps, typename Moments>
void WalkAdamState(Io& io, Steps& steps, Moments& m, Moments& v) {
  io.Expect(kStateKindAdam, "state blob is not Adam state: kind");
  io.I64(steps);
  io.Check(steps >= 0, "negative Adam step count");
  for (Moments* moments : {&m, &v}) {
    io.Count(*moments);
    for (auto& matrix : *moments) io.F64Matrix(matrix);
  }
  io.Check(m.size() == v.size(), "Adam moment vectors differ in length");
  for (size_t i = 0; i < std::min(m.size(), v.size()); ++i) {
    io.Check(MomentsHold(m[i], v[i]),
             "Adam moments differ in shape, are not finite, or hold a "
             "negative second moment");
  }
}

}  // namespace

void ClipGradientsByGlobalNorm(ParameterSet* params, Scalar max_norm) {
  if (max_norm <= Scalar{0}) return;
  Scalar total{0};
  for (size_t i = 0; i < params->size(); ++i) {
    total += params->tensor(i).grad().SquaredNorm();
  }
  const Scalar norm = std::sqrt(total);
  if (norm <= max_norm) return;
  if (!IsFinite(norm)) {
    // A NaN/Inf gradient cannot be rescaled into a sane one; zero it
    // rather than hand the optimizer poison.
    params->ZeroGrads();
    return;
  }
  const Scalar scale = max_norm / norm;
  for (size_t i = 0; i < params->size(); ++i) {
    Matrix& g = params->tensor(i).grad();
    for (size_t j = 0; j < g.size(); ++j) g.data()[j] *= scale;
  }
}

AdamOptimizer::AdamOptimizer(Scalar learning_rate, Scalar beta1, Scalar beta2,
                             Scalar epsilon, Scalar clip_norm,
                             Scalar weight_decay)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      clip_norm_(clip_norm),
      weight_decay_(weight_decay) {
  LIGHTTR_CHECK_GT(learning_rate, Scalar{0});
  LIGHTTR_CHECK_GT(epsilon, Scalar{0});
}

void AdamOptimizer::Step(ParameterSet* params) {
  LIGHTTR_CHECK(params != nullptr);
  ClipGradientsByGlobalNorm(params, clip_norm_);
  if (m_.empty()) {
    for (size_t i = 0; i < params->size(); ++i) {
      const Matrix& value = params->tensor(i).value();
      m_.emplace_back(value.rows(), value.cols());
      v_.emplace_back(value.rows(), value.cols());
    }
  }
  LIGHTTR_CHECK_EQ(m_.size(), params->size());
  for (size_t i = 0; i < params->size(); ++i) {
    // A restored state whose shapes do not match the model is a
    // programming error (wrong architecture for the snapshot). The
    // kernel reads value.size() elements of both moments.
    const Matrix& value = params->tensor(i).value();
    LIGHTTR_CHECK(m_[i].SameShape(value));
    LIGHTTR_CHECK(v_[i].SameShape(value));
  }
  ++step_count_;
  const kernels::AdamCoefficients coefficients = {
      beta1_,
      beta2_,
      Scalar{1} - std::pow(beta1_, static_cast<Scalar>(step_count_)),
      Scalar{1} - std::pow(beta2_, static_cast<Scalar>(step_count_)),
      learning_rate_,
      epsilon_,
      weight_decay_,
  };
  for (size_t i = 0; i < params->size(); ++i) {
    Matrix& value = params->tensor(i).mutable_value();
    kernels::AdamUpdate(value.data(), params->tensor(i).grad().data(),
                        m_[i].data(), v_[i].data(), value.size(),
                        coefficients);
  }
  params->ZeroGrads();
}

std::string AdamOptimizer::SerializeState() const {
  return WriteFields([&](FieldWriter& io) {
    WalkAdamState(io, step_count_, m_, v_);
  });
}

Status AdamOptimizer::DeserializeState(const std::string& bytes) {
  int64_t steps = 0;
  std::vector<Matrix> m;
  std::vector<Matrix> v;
  LIGHTTR_RETURN_NOT_OK(
      ReadFields(bytes, "Adam state blob", [&](FieldReader& io) {
        WalkAdamState(io, steps, m, v);
      }));
  step_count_ = steps;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::Ok();
}

}  // namespace lighttr::nn
