#include "nn/parameter.h"

#include <algorithm>
#include <cstring>

#include "common/binary_io.h"
#include "common/check.h"

namespace lighttr::nn {

namespace {

// The magic names the element width: "LTR1" float32, "LTRD" float64.
constexpr char kMagic[4] = {'L', 'T', 'R', '1'};
constexpr char kMagic64[4] = {'L', 'T', 'R', 'D'};

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

int64_t ParameterSet::WireBytes() const {
  // 4 bytes per scalar (float32 wire format) plus per-tensor headers.
  int64_t bytes = sizeof(kMagic) + sizeof(uint32_t);
  for (const auto& [name, tensor] : items_) {
    bytes += sizeof(uint32_t) + static_cast<int64_t>(name.size());
    bytes += 2 * sizeof(uint32_t);
    bytes += static_cast<int64_t>(tensor.value().size()) * sizeof(float);
  }
  return bytes;
}

std::string ParameterSet::Serialize(BlobPrecision precision) const {
  const bool wide = precision == BlobPrecision::kFloat64;
  BinaryWriter writer;
  writer.WriteBytes(wide ? kMagic64 : kMagic, sizeof(kMagic));
  writer.WriteU32(static_cast<uint32_t>(items_.size()));
  for (const auto& [name, tensor] : items_) {
    writer.WriteU32(static_cast<uint32_t>(name.size()));
    writer.WriteBytes(name.data(), name.size());
    const Matrix& m = tensor.value();
    writer.WriteU32(static_cast<uint32_t>(m.rows()));
    writer.WriteU32(static_cast<uint32_t>(m.cols()));
    if (wide) {
      writer.WriteF64Array(m.data(), m.size());
    } else {
      for (size_t i = 0; i < m.size(); ++i) {
        writer.WriteF32(static_cast<float>(m.data()[i]));
      }
    }
  }
  return writer.Take();
}

Status ParameterSet::Deserialize(const std::string& bytes) {
  BinaryReader reader(bytes);
  char magic[4];
  if (!reader.ReadBytes(magic, sizeof(magic)).ok()) {
    return Status::InvalidArgument("bad parameter blob magic");
  }
  const bool wide = std::memcmp(magic, kMagic64, sizeof(kMagic64)) == 0;
  if (!wide && std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad parameter blob magic");
  }
  uint32_t count = 0;
  if (!reader.ReadU32(&count).ok()) {
    return Status::InvalidArgument("truncated parameter blob");
  }
  if (count != items_.size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (auto& [name, tensor] : items_) {
    uint32_t name_len = 0;
    if (!reader.ReadU32(&name_len).ok()) {
      return Status::InvalidArgument("truncated parameter blob");
    }
    if (name_len > reader.remaining()) {
      return Status::InvalidArgument("truncated parameter blob");
    }
    std::string read_name(name_len, '\0');
    if (!reader.ReadBytes(read_name.data(), name_len).ok()) {
      return Status::InvalidArgument("truncated parameter blob");
    }
    if (read_name != name) {
      return Status::InvalidArgument("parameter name mismatch: expected " +
                                     name + ", got " + read_name);
    }
    uint32_t rows = 0;
    uint32_t cols = 0;
    if (!reader.ReadU32(&rows).ok() || !reader.ReadU32(&cols).ok()) {
      return Status::InvalidArgument("truncated parameter blob");
    }
    Matrix& m = tensor.mutable_value();
    if (rows != m.rows() || cols != m.cols()) {
      return Status::InvalidArgument("parameter shape mismatch for " + name);
    }
    if (wide) {
      if (!reader.ReadF64Array(m.data(), m.size()).ok()) {
        return Status::InvalidArgument("truncated parameter blob");
      }
    } else {
      for (size_t i = 0; i < m.size(); ++i) {
        float v = 0.0f;
        if (!reader.ReadF32(&v).ok()) {
          return Status::InvalidArgument("truncated parameter blob");
        }
        m.data()[i] = static_cast<Scalar>(v);
      }
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in parameter blob");
  }
  return Status::Ok();
}

}  // namespace lighttr::nn
