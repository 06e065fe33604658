#ifndef TREESERVER_TREE_HIST_KERNELS_H_
#define TREESERVER_TREE_HIST_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace treeserver {

struct HistRegBin;

/// Histogram accumulation kernels behind NodeHistogram::Build /
/// BuildMany. Scalar reference twins for both tasks, plus one fused
/// vectorized regression kernel per SIMD level (common/simd.h); the
/// dispatch in tree/hist.cc picks a path per column group at build
/// time. Classification always takes the scalar twin: a vector kernel
/// that precomputed the `code * num_classes + label` slot indices ran
/// slower than the plain loop at every measured table shape (DESIGN.md
/// §15).
///
/// Exactness contract (fuzz-verified in tests/simd_test.cc): the fused
/// regression kernel produces histograms bit-identical to RegScalar.
/// Regression sums are doubles, where reassociation changes rounding —
/// so it keeps ONE accumulator per bin and feeds it in ascending row
/// order (a per-bin (count, sum, sum_sq) lane stripe with a single
/// vector add per row, which is the same per-bin add sequence the
/// scalar loop performs; y*y is a plain IEEE multiply in both, and the
/// whole library builds with -ffp-contract=off so no path fuses it into
/// an FMA).
///
/// The scalar twins ADD into caller-zeroed outputs; the fused kernels
/// write every slot of theirs. `rows` may be nullptr, meaning the
/// identity mapping [0, n). `labels`/`y` are indexed by row id (not by
/// position in `rows`), exactly like the code arrays.
namespace histk {

// -- Scalar reference twins (one column at a time) --------------------

void ClsScalar(const uint8_t* codes, const int32_t* labels,
               const uint32_t* rows, size_t n, int c, int64_t* counts);
void ClsScalar(const uint16_t* codes, const int32_t* labels,
               const uint32_t* rows, size_t n, int c, int64_t* counts);
void RegScalar(const uint8_t* codes, const double* y, const uint32_t* rows,
               size_t n, HistRegBin* bins);
void RegScalar(const uint16_t* codes, const double* y, const uint32_t* rows,
               size_t n, HistRegBin* bins);

// -- Fused regression kernels (1..4 same-width columns per pass) ------
//
// `codes[k]` / outputs `bins[k]` (slots[k] entries). Only invoked when
// the matching SimdLevel is active; the translation units are
// compile-gated per architecture (CMake TS_SIMD).

#if TS_SIMD_ENABLED && (defined(__x86_64__) || defined(_M_X64))
void RegFusedAvx2(const uint8_t* const* codes, size_t ncols, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins);
void RegFusedAvx2(const uint16_t* const* codes, size_t ncols, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins);
#endif

#if TS_SIMD_ENABLED && defined(__aarch64__)
void RegFusedNeon(const uint8_t* const* codes, size_t ncols, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins);
void RegFusedNeon(const uint16_t* const* codes, size_t ncols, const double* y,
                  const uint32_t* rows, size_t n, const int* slots,
                  HistRegBin* const* bins);
#endif

/// Largest per-column slot count the fused regression kernels accept
/// (their per-bin lane stripes must stay cache-resident); columns with
/// more bins take the scalar twin.
constexpr int kFusedRegMaxSlots = 4096;
/// Below this many rows a fused pass cannot amortize its scratch
/// zeroing; the dispatch falls back to the scalar twins.
constexpr size_t kFusedMinRows = 128;
/// Columns fused per pass (bounded by scratch footprint).
constexpr size_t kFuseWidth = 4;

}  // namespace histk
}  // namespace treeserver

#endif  // TREESERVER_TREE_HIST_KERNELS_H_
