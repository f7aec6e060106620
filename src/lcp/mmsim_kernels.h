// SIMD kernel tables for the fused MMSIM half-step sweeps.
//
// Each kernel processes index range [lo, hi) of one of the three fused
// sweeps of lcp/mmsim.cpp (primal modulus update, dual rhs assembly, dual
// z update) over plain pointer bundles — the structure-of-arrays gather
// tables (linalg::CsrGather2) plus the flat solver arrays. The kernels
// are BITWISE IDENTICAL to the scalar fused sweeps: every lane replicates
// the scalar chain term for term (including the padded 0.0·x gather terms
// — the same padding contract the scalar fused path already carries), the
// per-ISA TUs are compiled with -ffp-contract=off, and the delta ∞-norm is
// a max-fold, order-independent over the identical value multiset.
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/simd.h"

namespace mch::lcp::kernels {

/// Primal modulus sweep (1×1-block lanes; general-block lanes are masked
/// out and left to the block sweep). z points at the primal segment base.
struct PrimalCtx {
  const double* s1;
  const double* s2;
  const double* kv;   ///< K scalar values (0.0 at general positions)
  const double* siv;  ///< (K/β + I)⁻¹ scalar inverses
  const double* p;
  const double* bt_v0;
  const double* bt_v1;
  const std::uint32_t* bt_c0;
  const std::uint32_t* bt_c1;
  const unsigned char* general;  ///< nonzero = lane owned by the block sweep
  double* new_s1;
  double* z;
  double c1;  ///< 1/β − 1
  double gamma;
  double inv_gamma;
};

/// Dual rhs sweep: tridiagonal D row + modulus terms + both B-row gathers.
/// Boundary rows (no lower/upper neighbor) are handled scalar in-kernel.
struct DualRhsCtx {
  const double* s2;
  const double* diag;
  const double* lower;
  const double* upper;
  const double* b;
  const double* s1;       ///< |s1| gather source (previous iterate)
  const double* s1_used;  ///< splitting-dependent gather (new_s1 or s1)
  const double* b_v0;
  const double* b_v1;
  const std::uint32_t* b_c0;
  const std::uint32_t* b_c1;
  double* rhs2;
  double inv_theta;
  double gamma;
  std::size_t m;  ///< constraint count (for the neighbor guards)
};

/// Dual z update; z points at the dual segment base (state z + n).
struct DualZCtx {
  const double* new_s2;
  double* z;
  double inv_gamma;
};

struct MmsimSimdKernels {
  /// Each sweep returns its chunk's delta partial (∞-norm max over the
  /// lanes it updated); rhs assembly returns nothing.
  double (*primal)(const PrimalCtx& c, std::size_t lo, std::size_t hi);
  void (*dual_rhs)(const DualRhsCtx& c, std::size_t lo, std::size_t hi);
  double (*dual_z)(const DualZCtx& c, std::size_t lo, std::size_t hi);
};

/// Kernel table for `level`; nullptr when the level is kScalar or the
/// platform has no SIMD build — the fused sweeps then run their scalar
/// loops.
const MmsimSimdKernels* mmsim_simd_kernels(linalg::SimdLevel level);

#if defined(MCH_SIMD_X86)
extern const MmsimSimdKernels kMmsimSimdAvx2;
extern const MmsimSimdKernels kMmsimSimdAvx512;
#endif

}  // namespace mch::lcp::kernels
