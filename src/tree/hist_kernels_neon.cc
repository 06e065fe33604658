// NEON regression histogram kernel (AArch64). Advanced SIMD is
// mandatory on AArch64, so no extra compile flags are needed; the file
// compiles empty elsewhere. Same exactness contract as the AVX2 twin:
// each bin keeps one accumulator stripe fed in ascending row order with
// plain IEEE ops.
#include "tree/hist_kernels.h"

#if TS_SIMD_ENABLED && defined(__aarch64__)

#include <arm_neon.h>

#include <vector>

#include "tree/hist.h"

namespace treeserver {
namespace histk {
namespace {

// Per-bin stripe {n, sum, sum_sq, pad}; two f64x2 adds per
// (row, column). Same per-bin add order as the scalar twin.
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

  for (size_t i = 0; i < n; ++i) {
    const uint32_t row = rows ? rows[i] : static_cast<uint32_t>(i);
    const double v = y[row];
    const float64x2_t acc_lo = {1.0, v};
    const float64x2_t acc_hi = {v * v, 0.0};
    for (int k = 0; k < NC; ++k) {
      double* p = stripes[k] + static_cast<size_t>(codes[k][row]) * 4;
      vst1q_f64(p, vaddq_f64(vld1q_f64(p), acc_lo));
      vst1q_f64(p + 2, vaddq_f64(vld1q_f64(p + 2), acc_hi));
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

void RegFusedNeon(const uint8_t* const* codes, size_t ncols, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins) {
  RegFusedSwitch(codes, ncols, y, rows, n, slots, bins);
}

void RegFusedNeon(const uint16_t* const* codes, size_t ncols, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins) {
  RegFusedSwitch(codes, ncols, y, rows, n, slots, bins);
}

}  // namespace histk
}  // namespace treeserver

#endif  // TS_SIMD_ENABLED && __aarch64__
