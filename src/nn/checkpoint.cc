#include "nn/checkpoint.h"

#include <cmath>
#include <cstring>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/finite.h"

namespace lighttr::nn {

namespace {

constexpr char kMagic[4] = {'L', 'T', 'C', '2'};
constexpr uint32_t kVersion = 2;
// Parameter names in this codebase are short ("encoder.w1"); anything
// beyond this cap is a corrupted or hostile length field.
constexpr uint64_t kMaxNameLen = 4096;

size_t ElementWidth(CheckpointDtype dtype) {
  return dtype == CheckpointDtype::kFloat64 ? sizeof(double) : sizeof(float);
}

}  // namespace

std::string SerializeCheckpoint(const ParameterSet& params,
                                CheckpointDtype dtype) {
  BinaryWriter writer;
  writer.WriteBytes(kMagic, sizeof(kMagic));
  writer.WriteU32(kVersion);
  writer.WriteU8(static_cast<uint8_t>(dtype));
  writer.WriteU32(static_cast<uint32_t>(params.size()));
  for (size_t p = 0; p < params.size(); ++p) {
    const std::string& name = params.name(p);
    const Matrix& m = params.tensor(p).value();
    writer.WriteU32(static_cast<uint32_t>(name.size()));
    writer.WriteBytes(name.data(), name.size());
    writer.WriteU32(static_cast<uint32_t>(m.rows()));
    writer.WriteU32(static_cast<uint32_t>(m.cols()));
    BinaryWriter payload;
    for (size_t i = 0; i < m.size(); ++i) {
      if (dtype == CheckpointDtype::kFloat64) {
        payload.WriteF64(static_cast<double>(m.data()[i]));
      } else {
        payload.WriteF32(static_cast<float>(m.data()[i]));
      }
    }
    writer.WriteU32(Crc32(payload.bytes()));
    writer.WriteBytes(payload.bytes().data(), payload.bytes().size());
  }
  std::string out = writer.Take();
  AppendCrc32Trailer(&out);
  return out;
}

Status ParseCheckpoint(const std::string& bytes, ParameterSet* params) {
  LIGHTTR_CHECK(params != nullptr);
  // The whole-file CRC is checked before any field is interpreted, so
  // truncation and bit flips are caught no matter where they land.
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t)) {
    return Status::InvalidArgument("checkpoint too short to hold a header");
  }
  size_t body_len = 0;
  if (!CheckCrc32Trailer(bytes, &body_len).ok()) {
    return Status::InvalidArgument(
        "checkpoint failed whole-file CRC check (truncated or corrupted)");
  }
  const std::string body = bytes.substr(0, body_len);

  BinaryReader reader(body);
  char magic[4];
  LIGHTTR_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  uint32_t version = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  uint8_t dtype_raw = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&dtype_raw));
  if (dtype_raw != static_cast<uint8_t>(CheckpointDtype::kFloat32) &&
      dtype_raw != static_cast<uint8_t>(CheckpointDtype::kFloat64)) {
    return Status::InvalidArgument("unknown checkpoint dtype " +
                                   std::to_string(dtype_raw));
  }
  const auto dtype = static_cast<CheckpointDtype>(dtype_raw);
  uint32_t count = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&count));
  if (count != params->size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: checkpoint has " + std::to_string(count) +
        ", model has " + std::to_string(params->size()));
  }

  for (size_t p = 0; p < params->size(); ++p) {
    uint32_t name_len = 0;
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&name_len));
    if (name_len > kMaxNameLen || name_len > reader.remaining()) {
      return Status::InvalidArgument("oversized parameter name length " +
                                     std::to_string(name_len));
    }
    std::string name(name_len, '\0');
    LIGHTTR_RETURN_NOT_OK(reader.ReadBytes(name.data(), name_len));
    if (name != params->name(p)) {
      return Status::InvalidArgument("parameter name mismatch: expected " +
                                     params->name(p) + ", got " + name);
    }
    uint32_t rows = 0;
    uint32_t cols = 0;
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&rows));
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&cols));
    Matrix& m = params->tensor(p).mutable_value();
    if (rows != m.rows() || cols != m.cols()) {
      return Status::InvalidArgument("parameter shape mismatch for " + name);
    }
    uint32_t payload_crc = 0;
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&payload_crc));
    const size_t payload_bytes = m.size() * ElementWidth(dtype);
    if (payload_bytes > reader.remaining()) {
      return Status::InvalidArgument("truncated payload for parameter " + name);
    }
    if (Crc32(body.data() + reader.offset(), payload_bytes) != payload_crc) {
      return Status::InvalidArgument("payload CRC mismatch for parameter " +
                                     name);
    }
    for (size_t i = 0; i < m.size(); ++i) {
      double v = 0.0;
      if (dtype == CheckpointDtype::kFloat64) {
        LIGHTTR_RETURN_NOT_OK(reader.ReadF64(&v));
      } else {
        float f = 0.0f;
        LIGHTTR_RETURN_NOT_OK(reader.ReadF32(&f));
        v = static_cast<double>(f);
      }
      if (!IsFinite(v)) {
        return Status::InvalidArgument("non-finite value in parameter " + name);
      }
      m.data()[i] = static_cast<Scalar>(v);
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in checkpoint");
  }
  return Status::Ok();
}

Status SaveCheckpoint(FileSystem* fs, const std::string& path,
                      const ParameterSet& params, CheckpointDtype dtype) {
  LIGHTTR_CHECK(fs != nullptr);
  return fs->WriteFileAtomic(path, SerializeCheckpoint(params, dtype));
}

Status LoadCheckpoint(FileSystem* fs, const std::string& path,
                      ParameterSet* params) {
  LIGHTTR_CHECK(fs != nullptr);
  LIGHTTR_CHECK(params != nullptr);
  Result<std::string> contents = fs->ReadFile(path);
  if (!contents.ok()) return contents.status();
  return ParseCheckpoint(contents.value(), params);
}

}  // namespace lighttr::nn
