// Bounds-checked binary (de)serialization over std::string buffers.
//
// BinaryWriter appends fixed-width little-endian-as-stored fields (this
// codebase never ships buffers across architectures; byte order is the
// host's, the same convention ParameterSet::Serialize uses). BinaryReader
// is the hostile-input counterpart: every read validates the remaining
// byte count and returns a Status instead of walking past the end, and
// length-prefixed strings and f64 arrays are capped so a corrupted length
// or count field cannot trigger a multi-gigabyte allocation.
#ifndef LIGHTTR_COMMON_BINARY_IO_H_
#define LIGHTTR_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace lighttr {

/// Appends fixed-width fields to an owned byte buffer.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { Append(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { Append(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { Append(&v, sizeof(v)); }
  void WriteI64(int64_t v) { Append(&v, sizeof(v)); }
  void WriteF32(float v) { Append(&v, sizeof(v)); }
  void WriteF64(double v) { Append(&v, sizeof(v)); }

  /// Raw bytes, no length prefix.
  void WriteBytes(const void* data, size_t n) { Append(data, n); }

  /// `n` doubles in one append: the bytes `n` WriteF64 calls produce.
  void WriteF64Array(const double* values, size_t n) {
    Append(values, n * sizeof(double));
  }

  /// u64 count + the values (inverse: BinaryReader::ReadF64Vector).
  void WriteF64Vector(const std::vector<double>& values) {
    WriteU64(static_cast<uint64_t>(values.size()));
    WriteF64Array(values.data(), values.size());
  }

  /// u64 length prefix + bytes.
  void WriteString(const std::string& s) {
    WriteU64(static_cast<uint64_t>(s.size()));
    Append(s.data(), s.size());
  }

  const std::string& bytes() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  void Append(const void* data, size_t n) {
    buffer_.append(static_cast<const char*>(data), n);
  }

  std::string buffer_;
};

/// Reads fixed-width fields from a borrowed byte buffer; every read is
/// bounds-checked and failure leaves the cursor unmoved.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& data) : data_(&data) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_->size() - offset_; }
  bool AtEnd() const { return offset_ == data_->size(); }

  [[nodiscard]] Status ReadU8(uint8_t* out) { return ReadRaw(out, sizeof(*out)); }
  [[nodiscard]] Status ReadU32(uint32_t* out) {
    return ReadRaw(out, sizeof(*out));
  }
  [[nodiscard]] Status ReadU64(uint64_t* out) {
    return ReadRaw(out, sizeof(*out));
  }
  [[nodiscard]] Status ReadI64(int64_t* out) {
    return ReadRaw(out, sizeof(*out));
  }
  [[nodiscard]] Status ReadF32(float* out) { return ReadRaw(out, sizeof(*out)); }
  [[nodiscard]] Status ReadF64(double* out) {
    return ReadRaw(out, sizeof(*out));
  }

  /// Raw bytes, no length prefix.
  [[nodiscard]] Status ReadBytes(void* out, size_t n) { return ReadRaw(out, n); }

  /// The one check a stored f64 count passes before anything is sized
  /// by it: `count` doubles must fit in the bytes that remain. Divides
  /// rather than multiplies, so a count whose byte size wraps 64 bits
  /// cannot slip through.
  [[nodiscard]] Status CheckF64Count(uint64_t count) const {
    if (count > remaining() / sizeof(double)) {
      return Status::InvalidArgument(
          "truncated buffer: " + std::to_string(count) + " doubles at offset " +
          std::to_string(offset_) + ", " + std::to_string(remaining()) +
          " bytes remain");
    }
    return Status::Ok();
  }

  /// Inverse of WriteF64Array: `n` doubles in one copy, or nothing.
  [[nodiscard]] Status ReadF64Array(double* out, size_t n) {
    LIGHTTR_RETURN_NOT_OK(CheckF64Count(n));
    return ReadRaw(out, n * sizeof(double));
  }

  /// Inverse of WriteF64Vector. A count above `max_count` or beyond the
  /// remaining bytes is rejected before `out` is resized, and leaves
  /// both `out` and the cursor unmoved.
  [[nodiscard]] Status ReadF64Vector(std::vector<double>* out,
                                     uint64_t max_count) {
    uint64_t count = 0;
    LIGHTTR_RETURN_NOT_OK(ReadU64(&count));
    Status fits = count > max_count
                      ? Status::InvalidArgument(
                            "declared f64 count " + std::to_string(count) +
                            " exceeds cap " + std::to_string(max_count))
                      : CheckF64Count(count);
    if (!fits.ok()) {
      offset_ -= sizeof(uint64_t);
      return fits;
    }
    out->resize(static_cast<size_t>(count));
    return ReadF64Array(out->data(), out->size());
  }

  /// Inverse of WriteString. A declared length larger than the bytes
  /// actually present (or than `max_len`) is rejected before any
  /// allocation proportional to it.
  [[nodiscard]] Status ReadString(std::string* out,
                                  uint64_t max_len = kDefaultMaxStringLen) {
    uint64_t len = 0;
    LIGHTTR_RETURN_NOT_OK(ReadU64(&len));
    if (len > max_len) {
      offset_ -= sizeof(uint64_t);
      return Status::InvalidArgument("declared string length " +
                                     std::to_string(len) +
                                     " exceeds cap " + std::to_string(max_len));
    }
    if (len > remaining()) {
      offset_ -= sizeof(uint64_t);
      return Status::InvalidArgument("truncated buffer: declared length " +
                                     std::to_string(len) + ", " +
                                     std::to_string(remaining()) +
                                     " bytes remain");
    }
    out->assign(data_->data() + offset_, static_cast<size_t>(len));
    offset_ += static_cast<size_t>(len);
    return Status::Ok();
  }

  /// 1 GiB: far above any legitimate field in this codebase, far below
  /// what a hostile length prefix could otherwise demand.
  static constexpr uint64_t kDefaultMaxStringLen = 1ull << 30;

 private:
  [[nodiscard]] Status ReadRaw(void* out, size_t n) {
    if (n > remaining()) {
      return Status::InvalidArgument(
          "truncated buffer: need " + std::to_string(n) + " bytes at offset " +
          std::to_string(offset_) + ", have " + std::to_string(remaining()));
    }
    if (n > 0) std::memcpy(out, data_->data() + offset_, n);  // out may be null
    offset_ += n;
    return Status::Ok();
  }

  const std::string* data_;
  size_t offset_ = 0;
};

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_BINARY_IO_H_
