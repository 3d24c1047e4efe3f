// CRC-32 (IEEE 802.3, polynomial 0xEDB88320): the integrity checksum
// used by the one persistence path (run-state snapshots) and every
// wire frame. A checksum mismatch means the bytes on disk are not
// the bytes that were written — truncation, a torn write, or bit rot —
// and the loader must reject the file instead of propagating garbage
// into the global model.
#ifndef LIGHTTR_COMMON_CRC32_H_
#define LIGHTTR_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace lighttr {

/// Extends a running CRC-32 over `n` bytes. Start from `crc = 0` and
/// chain calls to checksum discontiguous buffers.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t n);

/// One-shot CRC-32 of a buffer.
inline uint32_t Crc32(const void* data, size_t n) {
  return Crc32Update(0, data, n);
}

/// One-shot CRC-32 of a string's bytes.
inline uint32_t Crc32(const std::string& bytes) {
  return Crc32Update(0, bytes.data(), bytes.size());
}

/// Appends the CRC-32 of `buffer` as four trailing bytes (low byte
/// first). This is the one sanctioned way to stamp the integrity
/// trailer every persistence blob and wire frame carries; pairing it
/// with CheckCrc32Trailer keeps the byte layout in a single place
/// instead of ad-hoc reinterpret_cast/memcpy at every call site.
void AppendCrc32Trailer(std::string* buffer);

/// Verifies a trailer appended by AppendCrc32Trailer. On success stores
/// the body length (bytes before the trailer) in `body_len`. A short
/// buffer or a checksum mismatch — truncation, bit rot, an in-flight
/// flip — yields a non-OK Status.
[[nodiscard]] Status CheckCrc32Trailer(std::string_view bytes,
                                       size_t* body_len);

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_CRC32_H_
