// Bounds-checked binary serialization, and the one way every binary
// format in this codebase is written: as a field walk.
//
// A format is one function template over an `Io` adapter and the value
// it walks. FieldWriter appends each field through a BinaryWriter;
// FieldReader reads it back, through a BinaryReader, into the member it
// came from. So field order, widths and casts, and every decode-side
// check (magic, version, caps, counts, 0/1 flags, expected names and
// shapes, trailing bytes), are stated once. Byte order is the host's:
// this codebase never ships buffers across architectures.
#ifndef LIGHTTR_COMMON_BINARY_IO_H_
#define LIGHTTR_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
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

  /// u64 count + the values.
  void WriteF64Vector(const std::vector<double>& values) {
    WriteU64(static_cast<uint64_t>(values.size()));
    Append(values.data(), values.size() * sizeof(double));
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

/// A cursor over a borrowed byte buffer, read in place. Every read is
/// bounds-checked and returns a Status instead of walking past the end;
/// a failed read leaves the cursor unmoved.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }
  bool AtEnd() const { return offset_ == data_.size(); }

  /// The check a stored count of `width`-byte values passes before
  /// anything is sized by it: they must fit in the bytes that remain.
  /// Divides rather than multiplies, so a count whose byte size wraps
  /// 64 bits cannot slip through.
  [[nodiscard]] Status CheckCount(uint64_t count, size_t width) const {
    if (count > remaining() / width) {
      return Status::InvalidArgument(
          "truncated buffer: " + std::to_string(count) + " x " +
          std::to_string(width) + " bytes at offset " +
          std::to_string(offset_) + ", " + std::to_string(remaining()) +
          " remain");
    }
    return Status::Ok();
  }

  /// The next `n` bytes, copied to `out`.
  [[nodiscard]] Status ReadBytes(void* out, size_t n) {
    LIGHTTR_RETURN_NOT_OK(CheckCount(n, 1));
    if (n > 0) std::memcpy(out, data_.data() + offset_, n);  // out may be null
    offset_ += n;
    return Status::Ok();
  }

  /// `n` floats widened to double, or nothing.
  [[nodiscard]] Status ReadF32Array(double* out, size_t n) {
    LIGHTTR_RETURN_NOT_OK(CheckCount(n, sizeof(float)));
    for (size_t i = 0; i < n; ++i) {
      float v = 0.0f;
      std::memcpy(&v, data_.data() + offset_ + i * sizeof(float), sizeof(v));
      out[i] = static_cast<double>(v);
    }
    offset_ += n * sizeof(float);
    return Status::Ok();
  }

 private:
  std::string_view data_;
  size_t offset_ = 0;
};

/// The fields a walk is made of, written once for both adapters, which
/// derive from it. Members are passed as lvalues, const when encoding.
/// What only a decoder does sits under `if constexpr (Io::kDecoding)`.
template <typename Io>
class FieldWalk {
 public:
  /// 1 GiB: far above any legitimate string, far below what a hostile
  /// length prefix could otherwise demand.
  static constexpr uint64_t kMaxStringLen = 1ull << 30;

  /// A fixed-width field in the named type, cast to and from the
  /// member's. A stored value the member cannot hold fails.
  template <typename T>
  void U8(T& v) { Field<uint8_t>(v); }
  template <typename T>
  void U32(T& v) { Field<uint32_t>(v); }
  template <typename T>
  void U64(T& v) { Field<uint64_t>(v); }
  template <typename T>
  void I64(T& v) { Field<int64_t>(v); }
  template <typename T>
  void F64(T& v) { F64Array(&v, 1); }

  /// One byte that must be 0 or 1.
  template <typename T>
  void Flag(T& v) {
    uint8_t byte = v ? 1 : 0;
    U8(byte);
    io().Check(byte <= 1, "flag byte is neither 0 nor 1");
    if constexpr (Io::kDecoding) v = byte == 1;
  }

  /// Four bytes that must be `magic`, or fail with `what`.
  void Magic(const char (&magic)[4], const char* what) {
    char stored[sizeof(magic)];
    std::memcpy(stored, magic, sizeof(stored));
    io().Bytes(stored, sizeof(stored));
    io().Check(std::memcmp(stored, magic, sizeof(stored)) == 0, what);
  }

  /// A field of type W that must be `expected`, or fail with "<what>
  /// <stored value>".
  template <typename W>
  void Expect(W expected, const char* what) {
    W stored = expected;
    Field<W>(stored);
    if (stored != expected) {
      io().Check(false, what, " " + std::to_string(stored));
    }
  }

  /// u64 length + bytes; a length above `max_len` fails.
  template <typename S>
  void String(S& s, uint64_t max_len = kMaxStringLen) {
    Prefixed<uint64_t>(s, max_len);
  }
  /// u32 length + bytes.
  template <typename S>
  void String32(S& s) { Prefixed<uint32_t>(s, UINT32_MAX); }
  /// u64 count + the elements' bytes; a count above `max_count` fails.
  template <typename V>
  void Vector(V& v, uint64_t max_count = UINT64_MAX) {
    Prefixed<uint64_t>(v, max_count);
  }

  /// `n` f64 values; their count is the walk's to know.
  template <typename T>
  void F64Array(T* v, size_t n) {
    static_assert(sizeof(T) == sizeof(double));
    io().Bytes(v, n * sizeof(double));
  }

  /// u32 rows, u32 cols, then rows x cols f64 values.
  template <typename M>
  void F64Matrix(M& m) {
    auto rows = static_cast<uint32_t>(m.rows());
    auto cols = static_cast<uint32_t>(m.cols());
    U32(rows);
    U32(cols);
    if constexpr (Io::kDecoding) {
      // Two u32 dimensions multiply without wrapping in 64 bits.
      if (io().Fits(uint64_t{rows} * cols, sizeof(double))) m = M(rows, cols);
    }
    F64Array(m.data(), m.size());
  }

  /// The u32 size of a container the walk visits next; decoding refills
  /// it with that many default elements.
  template <typename C>
  void Count(C& c) {
    auto count = static_cast<uint32_t>(c.size());
    U32(count);
    if constexpr (Io::kDecoding) {
      if (io().Fits(count, 1)) c = C(count);  // each element takes a byte
    }
  }

 private:
  Io& io() { return static_cast<Io&>(*this); }

  template <typename W, typename T>
  void Field(T& v) {
    auto stored = static_cast<W>(v);
    io().Bytes(&stored, sizeof(stored));
    if constexpr (Io::kDecoding) {
      v = static_cast<T>(stored);
      if (static_cast<W>(v) != stored) {
        io().Check(false, "stored value does not fit its field: ",
                   std::to_string(stored));
      }
    }
  }

  // A count of type L, then that many elements.
  template <typename L, typename C>
  void Prefixed(C& c, uint64_t max_count) {
    auto count = static_cast<L>(c.size());
    Field<L>(count);
    io().Check(count <= max_count, "stored count exceeds its cap");
    if constexpr (Io::kDecoding) {
      if (io().Fits(count, sizeof(c[0]))) c.resize(count);
    }
    io().Bytes(c.data(), c.size() * sizeof(c[0]));
  }
};

/// The encoding adapter: appends each field to a BinaryWriter, and
/// ignores every check.
class FieldWriter : public FieldWalk<FieldWriter> {
 public:
  static constexpr bool kDecoding = false;
  explicit FieldWriter(BinaryWriter* out) : out_(out) {}

  void Bytes(const void* data, size_t n) { out_->WriteBytes(data, n); }
  /// `n` doubles rounded to f32.
  void F32Array(const double* v, size_t n) {
    for (size_t i = 0; i < n; ++i) out_->WriteF32(static_cast<float>(v[i]));
  }
  void Check(bool, const char*, std::string_view = {}) {}

 private:
  BinaryWriter* out_;
};

/// The decoding adapter: reads each field back from a BinaryReader. It
/// keeps the first failed read or check as status(), and reads nothing
/// after it, so a walk needs no error plumbing.
class FieldReader : public FieldWalk<FieldReader> {
 public:
  static constexpr bool kDecoding = true;
  explicit FieldReader(BinaryReader* in) : in_(in) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  void Bytes(void* out, size_t n) {
    if (ok()) status_ = in_->ReadBytes(out, n);
  }
  /// `n` f32 values widened to double.
  void F32Array(double* v, size_t n) {
    if (ok()) status_ = in_->ReadF32Array(v, n);
  }
  /// Whether `count` values of `width` bytes fit in the bytes left.
  bool Fits(uint64_t count, size_t width) {
    if (ok()) status_ = in_->CheckCount(count, width);
    return ok();
  }
  /// Fails with `what` + `detail` unless `holds`.
  void Check(bool holds, const char* what, std::string_view detail = {}) {
    if (ok() && !holds) {
      status_ = Status::InvalidArgument(std::string(what).append(detail));
    }
  }
  /// The walk's verdict: its first failure, or "trailing bytes in
  /// <what>" when bytes are left.
  [[nodiscard]] Status Finish(const char* what) {
    Check(in_->AtEnd(), "trailing bytes in ", what);
    return status_;
  }

 private:
  BinaryReader* in_;
  Status status_;
};

/// Runs `walk(FieldWriter&)` and returns the bytes it wrote.
template <typename Walk>
std::string WriteFields(Walk&& walk) {
  BinaryWriter writer;
  FieldWriter io(&writer);
  walk(io);
  return writer.Take();
}

/// Runs `walk(FieldReader&)` over all of `bytes` and returns
/// FieldReader::Finish(what).
template <typename Walk>
[[nodiscard]] Status ReadFields(std::string_view bytes, const char* what,
                                Walk&& walk) {
  BinaryReader reader(bytes);
  FieldReader io(&reader);
  walk(io);
  return io.Finish(what);
}

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_BINARY_IO_H_
