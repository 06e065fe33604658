#include "rpc/crc32c.h"

#include <array>
#include <cstring>

#include "rpc/crc32c_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace treeserver {

namespace {

// Reflected CRC-32C polynomial (iSCSI / SSE4.2 `crc32` instruction).
constexpr uint32_t kPoly = 0x82F63B78u;

using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the byte-at-a-time table; tables[k][i] advances
// tables[k-1][i] by one more zero byte, so eight lookups fold eight
// input bytes at once.
constexpr SliceTables MakeTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr SliceTables kTables = MakeTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

ExtendFn PickExtend() {
#if defined(__x86_64__)
  if (crc32c_internal::HardwareAvailable()) {
    return crc32c_internal::ExtendHardware;
  }
#endif
  return crc32c_internal::ExtendPortable;
}

}  // namespace

namespace crc32c_internal {

uint32_t ExtendPortable(uint32_t crc, const uint8_t* p, size_t len) {
  crc = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
bool HardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                           const uint8_t* p,
                                                           size_t len) {
  uint64_t c = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  static const ExtendFn extend = PickExtend();
  return extend(crc, static_cast<const uint8_t*>(data), len);
}

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace treeserver
