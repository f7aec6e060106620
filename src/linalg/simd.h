// Runtime SIMD dispatch for the numeric kernels.
//
// Three levels: portable scalar (always available, the bitwise reference),
// AVX2, and AVX-512. The active level is resolved once from the MCH_SIMD
// environment variable clamped to what the CPU supports, and every SIMD
// entry point (CSR gathers, block-diagonal sweeps, MMSIM half-steps)
// consults it at call time, so tests and benches can flip levels
// mid-process with set_simd_level().
//
//   MCH_SIMD=0|off|scalar   force the scalar reference kernels
//   MCH_SIMD=avx2           cap at AVX2 (4-wide double)
//   MCH_SIMD=avx512         cap at AVX-512 (8-wide double)
//   MCH_SIMD=auto (default) highest level the CPU reports
//
// The SIMD kernels are bitwise identical to the scalar reference (see
// ALGORITHM.md par.13), so the level is a pure performance knob;
// determinism contracts (thread counts, `.mt4`) hold at every level.
#pragma once

namespace mch::linalg {

enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// The highest level this CPU supports (scalar when not compiled in).
SimdLevel simd_level_supported();

/// The active dispatch level: MCH_SIMD clamped to simd_level_supported(),
/// resolved once and cached; later set_simd_level() calls override it.
SimdLevel simd_level();

/// Overrides the active level (clamped to hardware support); used by tests
/// and benches to compare levels in one process. Returns the level
/// actually installed.
SimdLevel set_simd_level(SimdLevel level);

/// "scalar" / "avx2" / "avx512".
const char* simd_level_name(SimdLevel level);

}  // namespace mch::linalg
