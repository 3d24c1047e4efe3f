#include "nn/optimizer.h"

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

void WriteMatrices(BinaryWriter* writer, const std::vector<Matrix>& matrices) {
  writer->WriteU32(static_cast<uint32_t>(matrices.size()));
  for (const Matrix& m : matrices) {
    writer->WriteU32(static_cast<uint32_t>(m.rows()));
    writer->WriteU32(static_cast<uint32_t>(m.cols()));
    writer->WriteF64Array(m.data(), m.size());
  }
}

Status ReadMatrices(BinaryReader* reader, std::vector<Matrix>* out) {
  uint32_t count = 0;
  LIGHTTR_RETURN_NOT_OK(reader->ReadU32(&count));
  out->clear();
  for (uint32_t k = 0; k < count; ++k) {
    uint32_t rows = 0;
    uint32_t cols = 0;
    LIGHTTR_RETURN_NOT_OK(reader->ReadU32(&rows));
    LIGHTTR_RETURN_NOT_OK(reader->ReadU32(&cols));
    // Two u32 dimensions multiply without wrapping in 64 bits; the
    // reader's check then bounds the allocation by the bytes present.
    LIGHTTR_RETURN_NOT_OK(
        reader->CheckF64Count(static_cast<uint64_t>(rows) * cols));
    Matrix m(rows, cols);
    LIGHTTR_RETURN_NOT_OK(reader->ReadF64Array(m.data(), m.size()));
    out->push_back(std::move(m));
  }
  return Status::Ok();
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
  BinaryWriter writer;
  writer.WriteU8(kStateKindAdam);
  writer.WriteI64(step_count_);
  WriteMatrices(&writer, m_);
  WriteMatrices(&writer, v_);
  return writer.Take();
}

Status AdamOptimizer::DeserializeState(const std::string& bytes) {
  BinaryReader reader(bytes);
  uint8_t kind = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&kind));
  if (kind != kStateKindAdam) {
    return Status::InvalidArgument("state blob is not Adam state");
  }
  int64_t steps = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&steps));
  if (steps < 0) {
    return Status::InvalidArgument("negative Adam step count");
  }
  std::vector<Matrix> m;
  std::vector<Matrix> v;
  LIGHTTR_RETURN_NOT_OK(ReadMatrices(&reader, &m));
  LIGHTTR_RETURN_NOT_OK(ReadMatrices(&reader, &v));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in Adam state blob");
  }
  if (m.size() != v.size()) {
    return Status::InvalidArgument("Adam moment vectors differ in length");
  }
  for (size_t i = 0; i < m.size(); ++i) {
    if (!m[i].SameShape(v[i])) {
      return Status::InvalidArgument("Adam moment matrices differ in shape");
    }
  }
  step_count_ = steps;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::Ok();
}

}  // namespace lighttr::nn
