// Unit tests for src/common: Status/Result, Rng, TablePrinter, file IO,
// CRC-32, bounds-checked binary IO, atomic writes, backoff schedules,
// strict number parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/parse_number.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace lighttr {
namespace {

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status status = Status::InvalidArgument("bad keep ratio");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad keep ratio");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad keep ratio");
}

TEST(Status, EveryCodeHasName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(Status, ReturnNotOkMacroPropagates) {
  auto inner = []() -> Status { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    LIGHTTR_RETURN_NOT_OK(inner());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(Result, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> result = Status::Internal("boom");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.value_or(7), 7);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t x = rng.UniformInt(0, 4);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 4);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(3);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, NormalMoments) {
  Rng rng(4);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(1.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / n - mean * mean), 2.0, 0.1);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.SampleWithoutReplacement(20, 8);
    ASSERT_EQ(sample.size(), 8u);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (size_t idx : sample) EXPECT_LT(idx, 20u);
  }
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(8);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(9);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    any_diff = any_diff || (parent.Uniform() != child.Uniform());
  }
  EXPECT_TRUE(any_diff);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"A", "LongHeader"});
  table.AddRow({"xx", "1"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| A  | LongHeader |"), std::string::npos);
  EXPECT_NE(out.find("| xx | 1          |"), std::string::npos);
}

TEST(TablePrinter, CsvEscaping) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a,b", "say \"hi\""});
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TablePrinter, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(0.12349, 3), "0.123");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

TEST(RealFileSystem, WriteReadRoundtrip) {
  FileSystem* fs = RealFileSystemInstance();
  const std::string path = "/tmp/lighttr_real_fs_test.bin";
  const std::string payload("bin\0ary\n", 8);
  ASSERT_TRUE(fs->WriteFileAtomic(path, payload).ok());
  auto read = fs->ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);
  std::remove(path.c_str());
}

TEST(RealFileSystem, ReadMissingFileFails) {
  auto read = RealFileSystemInstance()->ReadFile(
      "/tmp/definitely_missing_lighttr_file");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(Crc32, MatchesKnownVectors) {
  // The standard IEEE 802.3 check value.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
  EXPECT_EQ(Crc32(std::string("a")), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalUpdateEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = 0;
  for (char c : data) crc = Crc32Update(crc, &c, 1);
  EXPECT_EQ(crc, Crc32(data));
}

TEST(Crc32, SensitiveToEveryBit) {
  const std::string data("\x00\x01\x02\x03", 4);
  const uint32_t clean = Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = data;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_NE(Crc32(damaged), clean);
    }
  }
}

// Bit-at-a-time CRC-32 straight from the reflected polynomial: no
// tables, so it shares nothing with the slice-by-8 implementation.
uint32_t ReferenceCrc32(uint32_t crc, const unsigned char* data, size_t n) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

TEST(Crc32, SliceBy8MatchesBitwiseReference) {
  constexpr size_t kMiB = size_t{1} << 20;
  Rng rng(9);
  std::vector<unsigned char> buffer(kMiB + 8);
  for (unsigned char& b : buffer) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  // Every length 0..300 at every offset 0..7 covers the 8-byte body,
  // the byte tail, and loads at every alignment.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
  EXPECT_EQ(Crc32(buffer.data(), kMiB), ReferenceCrc32(0, buffer.data(), kMiB));
  // Chaining at every split point equals the one-shot value.
  const unsigned char* p = buffer.data() + 3;
  const uint32_t whole = ReferenceCrc32(0, p, 64);
  for (size_t split = 0; split < 64; ++split) {
    const uint32_t head = Crc32Update(0, p, split);
    EXPECT_EQ(Crc32Update(head, p + split, 64 - split), whole)
        << "split " << split;
  }
}

// One field of every kind a walk stores, and its walk.
struct EveryField {
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  bool flag = false;
  double f64 = 0.0;
  double f32s[2] = {0.0, 0.0};
  std::string str;
  std::vector<double> values;
};

template <typename Io, typename Fields>
void WalkEveryField(Io& io, Fields& f) {
  io.U8(f.u8);
  io.U32(f.u32);
  io.U64(f.u64);
  io.I64(f.i64);
  io.Flag(f.flag);
  io.F64(f.f64);
  io.F32Array(f.f32s, 2);
  io.String(f.str);
  io.Vector(f.values);
}

Status ReadEveryField(const std::string& bytes, EveryField* out) {
  return ReadFields(bytes, "test record",
                    [&](FieldReader& io) { WalkEveryField(io, *out); });
}

TEST(BinaryIo, OneWalkWritesTheTypedBytesAndReadsThemBack) {
  EveryField in;
  in.u8 = 0xAB;
  in.u32 = 0xDEADBEEFu;
  in.u64 = 0x1122334455667788ull;
  in.i64 = -42;
  in.flag = true;
  in.f64 = -2.25;
  in.f32s[0] = 1.5;
  in.f32s[1] = 1.0 / 3.0;  // rounds to the nearest float
  in.str = std::string("s\0tr", 4);
  in.values = {0.5, -0.0};
  const std::string bytes =
      WriteFields([&](FieldWriter& io) { WalkEveryField(io, in); });
  BinaryWriter typed;
  typed.WriteU8(0xAB);
  typed.WriteU32(0xDEADBEEFu);
  typed.WriteU64(0x1122334455667788ull);
  typed.WriteI64(-42);
  typed.WriteU8(1);
  typed.WriteF64(-2.25);
  typed.WriteF32(1.5f);
  typed.WriteF32(static_cast<float>(1.0 / 3.0));
  typed.WriteString(in.str);
  typed.WriteF64Vector(in.values);
  EXPECT_EQ(bytes, typed.bytes());

  EveryField out;
  ASSERT_TRUE(ReadEveryField(bytes, &out).ok());
  EXPECT_EQ(out.u8, 0xAB);
  EXPECT_EQ(out.u32, 0xDEADBEEFu);
  EXPECT_EQ(out.u64, 0x1122334455667788ull);
  EXPECT_EQ(out.i64, -42);
  EXPECT_TRUE(out.flag);
  EXPECT_EQ(out.f64, -2.25);
  EXPECT_EQ(out.f32s[0], 1.5);
  EXPECT_EQ(out.f32s[1], static_cast<double>(static_cast<float>(1.0 / 3.0)));
  EXPECT_EQ(out.str, in.str);
  EXPECT_EQ(out.values, in.values);

  // Every truncation fails, and so do trailing bytes and a flag byte
  // that is neither 0 nor 1 (the flag follows 21 bytes of fields).
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(ReadEveryField(bytes.substr(0, len), &out).code(),
              StatusCode::kInvalidArgument)
        << "truncation to " << len << " bytes";
  }
  EXPECT_EQ(ReadEveryField(bytes + "x", &out).message(),
            "trailing bytes in test record");
  std::string bad_flag = bytes;
  bad_flag[21] = 2;
  EXPECT_FALSE(ReadEveryField(bad_flag, &out).ok());
}

TEST(BinaryIo, ReadsPastEndReturnStatusNotUb) {
  const std::string bytes = "ab";
  BinaryReader reader(bytes);
  uint32_t u32 = 0;
  EXPECT_FALSE(reader.ReadBytes(&u32, sizeof(u32)).ok());
  // A failed read must not advance the cursor.
  uint8_t u8 = 0;
  ASSERT_TRUE(reader.ReadBytes(&u8, sizeof(u8)).ok());
  EXPECT_EQ(u8, 'a');

  // A walk keeps its first failure and reads nothing after it.
  BinaryReader walked(bytes);
  FieldReader io(&walked);
  io.U32(u32);
  const Status first = io.status();
  EXPECT_FALSE(first.ok());
  u8 = 7;
  io.U8(u8);
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(walked.offset(), 0u);
  EXPECT_EQ(io.status().message(), first.message());
}

TEST(BinaryIo, StoredValuesTheMemberCannotHoldAreRejected) {
  for (const int64_t stored : {int64_t{1} << 31, -(int64_t{1} << 31) - 1}) {
    BinaryWriter writer;
    writer.WriteI64(stored);
    int narrow = 5;
    EXPECT_FALSE(
        ReadFields(writer.bytes(), "int", [&](FieldReader& io) {
          io.I64(narrow);
        }).ok());
  }
}

TEST(BinaryIo, HostileStringLengthIsRejected) {
  // A declared length far past the real buffer, or above the cap, must
  // fail cleanly instead of allocating or reading out of bounds.
  BinaryWriter writer;
  writer.WriteU64(0xFFFFFFFFFFFFull);
  writer.WriteU8('x');
  std::string out;
  EXPECT_FALSE(ReadFields(writer.bytes(), "string", [&](FieldReader& io) {
                 io.String(out);
               }).ok());
  EXPECT_EQ(out.capacity(), std::string().capacity());
  BinaryWriter capped;
  capped.WriteString("seventeen bytes!!");
  EXPECT_FALSE(ReadFields(capped.bytes(), "string", [&](FieldReader& io) {
                 io.String(out, 16);
               }).ok());
  EXPECT_TRUE(ReadFields(capped.bytes(), "string", [&](FieldReader& io) {
                io.String(out, 17);
              }).ok());
  EXPECT_EQ(out, "seventeen bytes!!");
}

TEST(BinaryIo, F64ArraysWriteTheBytesOfScalarWrites) {
  const std::vector<double> values = {
      0.0, -0.0, 1.5, -2.25, 1e-310, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  BinaryWriter scalar;
  scalar.WriteU64(values.size());
  for (const double v : values) scalar.WriteF64(v);
  BinaryWriter bulk;
  bulk.WriteF64Vector(values);
  EXPECT_EQ(bulk.bytes(), scalar.bytes());
  EXPECT_EQ(WriteFields([&](FieldWriter& io) { io.Vector(values); }),
            scalar.bytes());

  // An exact fit round-trips byte-identically, NaN payload included.
  std::vector<double> back;
  ASSERT_TRUE(ReadFields(bulk.bytes(), "values", [&](FieldReader& io) {
                io.Vector(back, values.size());
              }).ok());
  ASSERT_EQ(back.size(), values.size());
  EXPECT_EQ(std::memcmp(back.data(), values.data(),
                        values.size() * sizeof(double)),
            0);
  BinaryWriter again;
  again.WriteF64Vector(back);
  EXPECT_EQ(again.bytes(), bulk.bytes());
}

TEST(BinaryIo, HostileF64CountsAreRefusedWithoutAllocating) {
  // Each count is followed by one value. 2 exceeds the bytes by one
  // value; 2^61 and 2^61 + 1 times 8 bytes wrap 64 bits to 0 and 8, so a
  // multiply-then-compare check would pass both.
  const uint64_t counts[] = {2, 1ull << 61, (1ull << 61) + 1,
                             std::numeric_limits<uint64_t>::max()};
  for (const uint64_t count : counts) {
    SCOPED_TRACE(count);
    BinaryWriter writer;
    writer.WriteU64(count);
    writer.WriteF64(1.0);
    std::vector<double> out;
    EXPECT_EQ(ReadFields(writer.bytes(), "values",
                         [&](FieldReader& io) { io.Vector(out); })
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(out.capacity(), 0u);  // nothing was sized by the count

    BinaryReader reader(writer.bytes());
    uint64_t stored = 0;
    ASSERT_TRUE(reader.ReadBytes(&stored, sizeof(stored)).ok());
    EXPECT_FALSE(reader.CheckCount(stored, sizeof(double)).ok());
    double value = 0.0;
    ASSERT_TRUE(reader.ReadBytes(&value, sizeof(value)).ok());
    EXPECT_EQ(value, 1.0);
  }

  // A count the bytes could hold but above the walk's cap is refused
  // the same way, and leaves the output alone.
  BinaryWriter writer;
  writer.WriteF64Vector({1.0, 2.0});
  std::vector<double> out = {7.0};
  EXPECT_FALSE(ReadFields(writer.bytes(), "values", [&](FieldReader& io) {
                 io.Vector(out, 1);
               }).ok());
  EXPECT_EQ(out, std::vector<double>{7.0});
  ASSERT_TRUE(ReadFields(writer.bytes(), "values", [&](FieldReader& io) {
                io.Vector(out, 2);
              }).ok());
  EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
}

TEST(RealFileSystem, WriteFileAtomicLeavesNoTempBehind) {
  FileSystem* fs = RealFileSystemInstance();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "atomic_write").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (std::filesystem::path(dir) / "out.bin").string();
  ASSERT_TRUE(fs->WriteFileAtomic(path, "v1").ok());
  ASSERT_TRUE(fs->WriteFileAtomic(path, "v2-longer").ok());  // overwrite works
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto read = fs->ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "v2-longer");
}

TEST(RealFileSystem, WriteFileAtomicFailsCleanlyOnBadPath) {
  const Status status = RealFileSystemInstance()->WriteFileAtomic(
      "/nonexistent_dir_lighttr/x/y/out.bin", "data");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(Rng, StateSerializationResumesExactStream) {
  Rng rng(123);
  for (int i = 0; i < 57; ++i) rng.Uniform();  // advance mid-stream
  const std::string state = rng.SerializeState();

  // Continue the original; restore a fresh engine from the state; both
  // must produce the identical suffix of the stream.
  Rng restored(0);
  ASSERT_TRUE(restored.DeserializeState(state).ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.engine()(), restored.engine()());
  }
}

TEST(Rng, DeserializeRejectsGarbageWithoutClobberingState) {
  Rng rng(7);
  const uint64_t before = rng.engine()();
  Rng reference(7);
  reference.engine()();

  Rng victim(7);
  victim.engine()();
  EXPECT_FALSE(victim.DeserializeState("not an engine state").ok());
  EXPECT_FALSE(victim.DeserializeState("").ok());
  // The failed restore must leave the current stream untouched.
  EXPECT_EQ(victim.engine()(), reference.engine()());
  (void)before;
}

TEST(Backoff, SeededDeterminism) {
  const BackoffConfig config;  // jittered by kBackoffJitter
  Rng a(11);
  Rng b(11);
  for (int retry = 0; retry < 6; ++retry) {
    EXPECT_EQ(BackoffDelaySeconds(config, retry, &a),
              BackoffDelaySeconds(config, retry, &b));
  }
}

TEST(Backoff, NoJitterIsExactGeometricWithCap) {
  static_assert(kBackoffMultiplier == 2.0);
  BackoffConfig config;
  config.base_delay_s = 0.5;
  config.max_delay_s = 3.0;
  // A null Rng draws no jitter.
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 0, nullptr), 0.5);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 1, nullptr), 1.0);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 2, nullptr), 2.0);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 3, nullptr), 3.0);  // capped
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 30, nullptr), 3.0);
}

TEST(Backoff, JitterStaysInsideConfiguredBand) {
  BackoffConfig config;
  config.base_delay_s = 1.0;
  config.max_delay_s = 1.0;
  Rng rng(13);
  bool jittered = false;
  for (int i = 0; i < 500; ++i) {
    const double delay = BackoffDelaySeconds(config, 0, &rng);
    EXPECT_GE(delay, 1.0 - kBackoffJitter);
    EXPECT_LE(delay, 1.0 + kBackoffJitter);
    jittered |= delay != 1.0;
  }
  EXPECT_TRUE(jittered);
}

TEST(Stopwatch, Monotonic) {
  Stopwatch watch;
  const double first = watch.ElapsedSeconds();
  const double second = watch.ElapsedSeconds();
  EXPECT_GE(second, first);
  watch.Reset();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

// Each refused string leaves the output as it was.
template <typename T>
void ExpectRefused(std::initializer_list<const char*> texts) {
  for (const char* text : texts) {
    T value = 42;
    EXPECT_FALSE(ParseNumber(text, &value)) << "accepted '" << text << "'";
    EXPECT_EQ(value, T{42}) << text;
  }
}

TEST(ParseNumber, UnsignedIsDigitsOnly) {
  uint64_t value = 0;
  ASSERT_TRUE(ParseNumber("18446744073709551615", &value));
  EXPECT_EQ(value, std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(ParseNumber("007", &value));
  EXPECT_EQ(value, 7u);
  ExpectRefused<uint64_t>({"", "-1", "+7", "-0", " 7", "7 ", "0x10", "1e3",
                           "7a", "18446744073709551616"});
}

TEST(ParseNumber, SignedTakesOneSignThenDigits) {
  int64_t value = 0;
  ASSERT_TRUE(ParseNumber("-9223372036854775808", &value));
  EXPECT_EQ(value, std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(ParseNumber("+5", &value));
  EXPECT_EQ(value, 5);
  ExpectRefused<int64_t>({"", "+", "-", " 5", "5 ", "--1", "+-1", "0x10",
                          "1.0", "1e3", "9223372036854775808"});
}

TEST(ParseNumber, DoubleIsFiniteDecimal) {
  double value = 0.0;
  const std::pair<const char*, double> good[] = {
      {"0.25", 0.25}, {"+5", 5.0}, {".5", 0.5}, {"5.", 5.0}, {"-1e-3", -1e-3},
      {"2.2250738585072014e-308", std::numeric_limits<double>::min()},
      {"1.7976931348623157e308", std::numeric_limits<double>::max()}};
  for (const auto& [text, want] : good) {
    ASSERT_TRUE(ParseNumber(text, &value)) << text;
    EXPECT_EQ(value, want) << text;
  }
  // Infinite, NaN, overflowing, subnormal or underflowing to zero, hex,
  // padded, or not a whole number.
  ExpectRefused<double>({"", "inf", "-inf", "infinity", "nan", "1e999",
                         "-1e999", "1e-310", "1e-400", "0x1p-2", " 1", "1 ",
                         "1e", ".", "e5", "1,5", "1.2.3"});
}

}  // namespace
}  // namespace lighttr
