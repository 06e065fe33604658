// AVX2 regression histogram kernel. This translation unit is the only part of
// src/tree compiled with -mavx2 (see src/CMakeLists.txt); everything
// else stays at the baseline ISA so the scalar twins cannot silently
// pick up AVX encodings. Compiled empty unless TS_SIMD is ON and the
// target is x86-64.
#include "tree/hist_kernels.h"

#if TS_SIMD_ENABLED && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

#include <vector>

#include "tree/hist.h"

namespace treeserver {
namespace histk {
namespace {

// Regression: each bin owns a 4-double stripe {n, sum, sum_sq, pad} in
// a scratch arena, updated with ONE vector add per (row, column) —
// acc = {1.0, y, y*y, 0.0}. Per bin this performs exactly the scalar
// twin's add sequence lane by lane (same IEEE ops, ascending row
// order, y*y a plain multiply under -ffp-contract=off), and the count
// lane stays integral in double (exact below 2^53), so the fold back
// into HistRegBin is bit-exact against RegScalar.
template <typename Code, int NC>
void RegFusedImpl(const Code* const* codes_in, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins_in) {
  const Code* codes[NC];
  for (int k = 0; k < NC; ++k) codes[k] = codes_in[k];
  int offs[NC];
  int total = 0;
  for (int k = 0; k < NC; ++k) {
    offs[k] = total;
    total += slots[k];
  }
  thread_local std::vector<double> arena;
  arena.assign(static_cast<size_t>(total) * 4, 0.0);
  double* stripes[NC];
  for (int k = 0; k < NC; ++k) {
    stripes[k] = arena.data() + static_cast<size_t>(offs[k]) * 4;
  }

  // The accumulator vectors {1.0, y_r, y_r*y_r, 0.0} for four rows are
  // transposed in registers (no scalar buffer round-trip), then each
  // row applies one aligned load + add + store per fused column. The
  // add operands are the very values the scalar twin uses and rows
  // apply in ascending order, so every bin sees the same IEEE add
  // sequence — bit-exact against RegScalar.
  const __m256d ones = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  auto update_row = [&](uint32_t row, __m256d acc) {
    for (int k = 0; k < NC; ++k) {
      double* p = stripes[k] + static_cast<size_t>(codes[k][row]) * 4;
      _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), acc));
    }
  };
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d vy;
    uint32_t r0, r1, r2, r3;
    if (rows == nullptr) {
      r0 = static_cast<uint32_t>(i);
      r1 = r0 + 1;
      r2 = r0 + 2;
      r3 = r0 + 3;
      vy = _mm256_loadu_pd(y + i);
    } else {
      r0 = rows[i];
      r1 = rows[i + 1];
      r2 = rows[i + 2];
      r3 = rows[i + 3];
      vy = _mm256_set_pd(y[r3], y[r2], y[r1], y[r0]);
    }
    const __m256d vsq = _mm256_mul_pd(vy, vy);
    const __m256d lo = _mm256_unpacklo_pd(ones, vy);    // {1,y0, 1,y2}
    const __m256d hi = _mm256_unpackhi_pd(ones, vy);    // {1,y1, 1,y3}
    const __m256d slo = _mm256_unpacklo_pd(vsq, zero);  // {y0^2,0, y2^2,0}
    const __m256d shi = _mm256_unpackhi_pd(vsq, zero);  // {y1^2,0, y3^2,0}
    update_row(r0, _mm256_permute2f128_pd(lo, slo, 0x20));
    update_row(r1, _mm256_permute2f128_pd(hi, shi, 0x20));
    update_row(r2, _mm256_permute2f128_pd(lo, slo, 0x31));
    update_row(r3, _mm256_permute2f128_pd(hi, shi, 0x31));
  }
  for (; i < n; ++i) {
    const uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    const double v = y[row];
    const double sq = v * v;
    for (int k = 0; k < NC; ++k) {
      double* p = stripes[k] + static_cast<size_t>(codes[k][row]) * 4;
      p[0] += 1.0;
      p[1] += v;
      p[2] += sq;
    }
  }
  for (int k = 0; k < NC; ++k) {
    HistRegBin* bins = bins_in[k];
    for (int b = 0; b < slots[k]; ++b) {
      const double* p = stripes[k] + static_cast<size_t>(b) * 4;
      bins[b].n = static_cast<int64_t>(p[0]);
      bins[b].sum = p[1];
      bins[b].sum_sq = p[2];
    }
  }
}

template <typename Code>
void RegFusedSwitch(const Code* const* codes, size_t ncols, const double* y,
                    const uint32_t* rows, size_t n, const int* slots,
                    HistRegBin* const* bins) {
  switch (ncols) {
    case 1:
      RegFusedImpl<Code, 1>(codes, y, rows, n, slots, bins);
      break;
    case 2:
      RegFusedImpl<Code, 2>(codes, y, rows, n, slots, bins);
      break;
    case 3:
      RegFusedImpl<Code, 3>(codes, y, rows, n, slots, bins);
      break;
    default:
      RegFusedImpl<Code, 4>(codes, y, rows, n, slots, bins);
      break;
  }
}

}  // namespace

void RegFusedAvx2(const uint8_t* const* codes, size_t ncols, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins) {
  RegFusedSwitch(codes, ncols, y, rows, n, slots, bins);
}

void RegFusedAvx2(const uint16_t* const* codes, size_t ncols, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins) {
  RegFusedSwitch(codes, ncols, y, rows, n, slots, bins);
}

}  // namespace histk
}  // namespace treeserver

#endif  // TS_SIMD_ENABLED && x86-64
