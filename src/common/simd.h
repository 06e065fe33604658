#ifndef TREESERVER_COMMON_SIMD_H_
#define TREESERVER_COMMON_SIMD_H_

#include <cstdint>
#include <string>

namespace treeserver {

/// Vector instruction set the hot-path kernels (histogram builds,
/// batched traversal helpers) run with. Selected once at startup:
/// the best level that was (a) compiled in (CMake option TS_SIMD,
/// default ON) and (b) supported by the CPU we are running on, with an
/// optional TS_SIMD environment override (`TS_SIMD=off|scalar|avx2|
/// neon|auto`). Every SIMD kernel has a scalar twin producing
/// bit-identical results, so the level only changes speed, never
/// output — see tree/hist_kernels.h and serve/serve_kernels.h for the
/// exactness arguments, and tests/simd_test.cc for the fuzzed parity
/// coverage.
enum class SimdLevel : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

const char* SimdLevelName(SimdLevel level);

/// The level dispatch uses. Resolved on first call (CPU probe + env
/// override) and cached; cheap enough for per-call reads but kernels
/// should still resolve it once per batch, not per row.
SimdLevel ActiveSimdLevel();

/// The best level compiled into this binary and supported by this CPU,
/// ignoring any TS_SIMD override. What /statusz reports alongside the
/// active level.
SimdLevel DetectedSimdLevel();

/// Forces the active level (tests and the scalar-baseline bench
/// passes). Forcing a level the build/CPU cannot execute is refused
/// (returns false, level unchanged) — except kScalar, always legal.
bool SetSimdLevel(SimdLevel level);

/// `"simd":"avx2","simd_detected":"avx2"` — the /statusz fragment every
/// rank reports (no surrounding braces).
std::string SimdStatusJson();

}  // namespace treeserver

#endif  // TREESERVER_COMMON_SIMD_H_
