#include "common/crc32.h"

#include <array>

namespace lighttr {

namespace {

// Slice-by-8 CRC-32 with the reflected IEEE polynomial. Table 0 is the
// classic byte-at-a-time table; table k maps a byte to its contribution
// after k further zero bytes, so one step folds eight input bytes with
// eight independent lookups instead of eight dependent ones. The value
// is fixed by the polynomial, so it equals the byte-at-a-time CRC
// exactly; the n % 8 tail still runs the byte loop on table 0.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

// Little-endian 32-bit load assembled from bytes: callers pass buffers
// at any offset, and the byte order must not depend on the host's.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t n) {
  static const SliceTables kTables = BuildTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, bytes += 8) {
    const uint32_t lo = c ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++bytes) {
    c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void AppendCrc32Trailer(std::string* buffer) {
  const uint32_t crc = Crc32(*buffer);
  for (int shift = 0; shift < 32; shift += 8) {
    buffer->push_back(static_cast<char>((crc >> shift) & 0xFFu));
  }
}

Status CheckCrc32Trailer(std::string_view bytes, size_t* body_len) {
  if (bytes.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument("buffer too short to hold a CRC-32 trailer");
  }
  const size_t n = bytes.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[n + i]))
              << (8 * i);
  }
  if (Crc32Update(0, bytes.data(), n) != stored) {
    return Status::InvalidArgument(
        "CRC-32 trailer mismatch (truncated or corrupted bytes)");
  }
  *body_len = n;
  return Status::Ok();
}

}  // namespace lighttr
