#include "nn/parameter.h"

#include <algorithm>

#include "common/binary_io.h"
#include "common/check.h"

namespace lighttr::nn {

namespace {

// The magic names the element width: "LTR1" float32, "LTRD" float64.
constexpr char kMagic[4] = {'L', 'T', 'R', '1'};
constexpr char kMagic64[4] = {'L', 'T', 'R', 'D'};

// The blob's field walk (common/binary_io.h): the magic, the tensor
// count, then each tensor's u32-length name, u32 rows and cols, and
// values at the magic's width. Decoding checks the count, names and
// shapes against `items` and writes the values into its tensors.
template <typename Io, typename Items>
void WalkBlob(Io& io, Items& items, bool wide) {
  io.Magic(wide ? kMagic64 : kMagic, "bad parameter blob magic");
  io.Expect(static_cast<uint32_t>(items.size()),
            "parameter count mismatch: blob holds");
  for (auto& [name, tensor] : items) {
    std::string stored = name;
    io.String32(stored);
    io.Check(stored == name, "parameter name mismatch: expected ", name);
    Matrix& m = tensor.mutable_value();  // a Tensor is a shallow-const handle
    auto rows = static_cast<uint32_t>(m.rows());
    auto cols = static_cast<uint32_t>(m.cols());
    io.U32(rows);
    io.U32(cols);
    io.Check(rows == m.rows() && cols == m.cols(),
             "parameter shape mismatch for ", name);
    if (wide) {
      io.F64Array(m.data(), m.size());
    } else {
      io.F32Array(m.data(), m.size());
    }
  }
}

}  // namespace

void ParameterSet::Register(std::string name, Tensor tensor) {
  LIGHTTR_CHECK(tensor.defined());
  LIGHTTR_CHECK(tensor.requires_grad());
  for (const auto& [existing, unused] : items_) {
    LIGHTTR_CHECK(existing != name);
  }
  items_.emplace_back(std::move(name), std::move(tensor));
}

const Tensor& ParameterSet::Get(const std::string& name) const {
  for (const auto& [existing, tensor] : items_) {
    if (existing == name) return tensor;
  }
  LIGHTTR_CHECK(false && "parameter not found");
  return items_.front().second;  // unreachable
}

int64_t ParameterSet::NumScalars() const {
  int64_t total = 0;
  for (const auto& [name, tensor] : items_) {
    total += static_cast<int64_t>(tensor.value().size());
  }
  return total;
}

std::vector<Scalar> ParameterSet::Flatten() const {
  std::vector<Scalar> flat;
  flat.reserve(static_cast<size_t>(NumScalars()));
  for (const auto& [name, tensor] : items_) {
    const Matrix& m = tensor.value();
    flat.insert(flat.end(), m.data(), m.data() + m.size());
  }
  return flat;
}

void ParameterSet::AssignFlat(const std::vector<Scalar>& flat) {
  LIGHTTR_CHECK_EQ(static_cast<int64_t>(flat.size()), NumScalars());
  size_t offset = 0;
  for (auto& [name, tensor] : items_) {
    Matrix& m = tensor.mutable_value();
    std::copy(flat.data() + offset, flat.data() + offset + m.size(), m.data());
    offset += m.size();
  }
}

void ParameterSet::ZeroGrads() {
  for (auto& [name, tensor] : items_) tensor.ZeroGrad();
}

std::string ParameterSet::Serialize(BlobPrecision precision) const {
  return WriteFields([&](FieldWriter& io) {
    WalkBlob(io, items_, precision == BlobPrecision::kFloat64);
  });
}

Status ParameterSet::Deserialize(const std::string& bytes) {
  // The magic names the width the walk then reads and checks.
  const bool wide = bytes.compare(0, 4, kMagic64, sizeof(kMagic64)) == 0;
  return ReadFields(bytes, "parameter blob", [&](FieldReader& io) {
    WalkBlob(io, items_, wide);
  });
}

}  // namespace lighttr::nn
