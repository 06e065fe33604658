#ifndef TREESERVER_TABLE_RADIX_SORT_H_
#define TREESERVER_TABLE_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace treeserver {

/// Order-preserving map of a non-NaN double to an unsigned key: a < b
/// exactly when OrderedKey(a) < OrderedKey(b). Positive values get the
/// sign bit set; negative values are bit-inverted, so larger magnitudes
/// sort lower. −0.0 is folded into +0.0 first, so the two share a key.
inline uint64_t OrderedKey(double v) {
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// Inverse of OrderedKey (a zero key decodes to +0.0).
inline double FromOrderedKey(uint64_t key) {
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  const uint64_t bits = (key & kSignBit) != 0 ? key & ~kSignBit : ~key;
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Stable LSD radix sort of the keys `items[0, n)` by bits [first_bit,
/// first_bit + num_bits); other bits are ignored, so keys equal in those
/// bits keep their input order. The range is cut into the fewest digits
/// of at most 11 bits (a 17-bit range is two 9-bit passes). One read
/// pass counts every digit; a pass whose digit is the same for every
/// key moves nothing and is skipped. `scratch`
/// holds n keys and is the other ping-pong buffer. Returns whichever
/// of the two buffers holds the sorted keys. n < 2^32;
/// 0 <= first_bit, first_bit + num_bits <= 64.
inline uint64_t* RadixSort(uint64_t* items, uint64_t* scratch, size_t n,
                           int first_bit, int num_bits) {
  constexpr int kMaxDigitBits = 11;
  constexpr int kMaxDigits = (64 + kMaxDigitBits - 1) / kMaxDigitBits;
  if (n < 2 || num_bits <= 0) return items;
  const int digits = (num_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (num_bits + digits - 1) / digits;
  const size_t buckets = size_t{1} << digit_bits;
  const uint64_t mask = buckets - 1;
  uint32_t counts[kMaxDigits][size_t{1} << kMaxDigitBits];
  for (int d = 0; d < digits; ++d) {
    std::memset(counts[d], 0, buckets * sizeof(uint32_t));
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = items[i] >> first_bit;
    for (int d = 0; d < digits; ++d) {
      ++counts[d][(k >> (digit_bits * d)) & mask];
    }
  }
  uint64_t* src = items;
  uint64_t* dst = scratch;
  for (int d = 0; d < digits; ++d) {
    uint32_t* offset = counts[d];
    const int shift = first_bit + digit_bits * d;
    if (offset[(src[0] >> shift) & mask] == n) continue;
    uint32_t sum = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const uint32_t count = offset[b];
      offset[b] = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offset[(src[i] >> shift) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace treeserver

#endif  // TREESERVER_TABLE_RADIX_SORT_H_
