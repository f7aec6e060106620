// AVX-512 variants of the fused MMSIM sweeps: 8-wide double, bitwise equal
// to the scalar fused path.
// Compiled with -mavx512f -mavx512vl -mavx512dq -mavx512bw and
// -ffp-contract=off; entered only through mmsim_simd_kernels() after the
// runtime CPU check. See mmsim_kernels.h for the contracts.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "lcp/mmsim_kernels.h"

#if defined(MCH_SIMD_X86)

namespace mch::lcp::kernels {
namespace {

inline double dmax(double a, double b) { return a < b ? b : a; }
inline double dabs(double a) { return __builtin_fabs(a); }

inline __m512d vabs(__m512d v) {
  return _mm512_andnot_pd(_mm512_set1_pd(-0.0), v);
}

double primal(const PrimalCtx& c, std::size_t lo, std::size_t hi) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d vc1 = _mm512_set1_pd(c.c1);
  const __m512d vneg1 = _mm512_set1_pd(-1.0);
  const __m512d vgamma = _mm512_set1_pd(c.gamma);
  const __m512d vinvg = _mm512_set1_pd(c.inv_gamma);
  __m512d vbest = zero;
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m128i g8 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(c.general + i));
    const __mmask8 keep = _mm512_cmp_epu64_mask(
        _mm512_cvtepu8_epi64(g8), _mm512_setzero_si512(), _MM_CMPINT_EQ);
    if (keep == 0) continue;  // whole group owned by the block sweep
    const __m512d s1 = _mm512_loadu_pd(c.s1 + i);
    const __m512d a1 = vabs(s1);
    // One traversal of the padded Bᵀ row slots feeds both gather terms,
    // slot 0 then slot 1 — the scalar fold order.
    const __m256i i0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c.bt_c0 + i));
    const __m256i i1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c.bt_c1 + i));
    const __m512d x0 = _mm512_i32gather_pd(i0, c.s2, 8);
    const __m512d x1 = _mm512_i32gather_pd(i1, c.s2, 8);
    const __m512d v0 = _mm512_loadu_pd(c.bt_v0 + i);
    const __m512d v1 = _mm512_loadu_pd(c.bt_v1 + i);
    __m512d g_s2 = _mm512_add_pd(zero, _mm512_mul_pd(v0, x0));
    g_s2 = _mm512_add_pd(g_s2, _mm512_mul_pd(v1, x1));
    __m512d g_abs = _mm512_add_pd(zero, _mm512_mul_pd(v0, vabs(x0)));
    g_abs = _mm512_add_pd(g_abs, _mm512_mul_pd(v1, vabs(x1)));
    const __m512d kv = _mm512_loadu_pd(c.kv + i);
    // r chain in the scalar order: each += is one mul..mul then add.
    __m512d r = _mm512_add_pd(zero, _mm512_mul_pd(_mm512_mul_pd(vc1, kv), s1));
    r = _mm512_add_pd(r, g_s2);
    r = _mm512_add_pd(r, a1);
    r = _mm512_add_pd(r, _mm512_mul_pd(_mm512_mul_pd(vneg1, kv), a1));
    r = _mm512_add_pd(r, g_abs);
    r = _mm512_sub_pd(r, _mm512_mul_pd(vgamma, _mm512_loadu_pd(c.p + i)));
    const __m512d ns = _mm512_mul_pd(_mm512_loadu_pd(c.siv + i), r);
    _mm512_mask_storeu_pd(c.new_s1 + i, keep, ns);
    const __m512d zi = _mm512_mul_pd(_mm512_add_pd(vabs(ns), ns), vinvg);
    const __m512d diff = vabs(_mm512_sub_pd(zi, _mm512_loadu_pd(c.z + i)));
    _mm512_mask_storeu_pd(c.z + i, keep, zi);
    vbest = _mm512_mask_max_pd(vbest, keep, vbest, diff);
  }
  double best = _mm512_reduce_max_pd(vbest);
  for (; i < hi; ++i) {
    if (c.general[i]) continue;
    const double s1i = c.s1[i];
    const double a1 = dabs(s1i);
    double g_s2 = 0.0;
    double g_abs = 0.0;
    g_s2 += c.bt_v0[i] * c.s2[c.bt_c0[i]];
    g_abs += c.bt_v0[i] * dabs(c.s2[c.bt_c0[i]]);
    g_s2 += c.bt_v1[i] * c.s2[c.bt_c1[i]];
    g_abs += c.bt_v1[i] * dabs(c.s2[c.bt_c1[i]]);
    double r = 0.0;
    r += c.c1 * c.kv[i] * s1i;
    r += g_s2;
    r += a1;
    r += -1.0 * c.kv[i] * a1;
    r += g_abs;
    r -= c.gamma * c.p[i];
    const double ns = c.siv[i] * r;
    c.new_s1[i] = ns;
    const double zi = (dabs(ns) + ns) * c.inv_gamma;
    best = dmax(best, dabs(zi - c.z[i]));
    c.z[i] = zi;
  }
  return best;
}

/// One dual-rhs lane in the exact scalar chain (used for the i = 0 and
/// i = m−1 boundaries and the vector tail).
inline void dual_rhs_lane(const DualRhsCtx& c, std::size_t i) {
  double sum = c.diag[i] * c.s2[i];
  if (i > 0) sum += c.lower[i - 1] * c.s2[i - 1];
  if (i + 1 < c.m) sum += c.upper[i] * c.s2[i + 1];
  double t = c.inv_theta * sum + dabs(c.s2[i]) + c.gamma * c.b[i];
  double g_abs = 0.0;
  double g_used = 0.0;
  g_abs += c.b_v0[i] * dabs(c.s1[c.b_c0[i]]);
  g_used += c.b_v0[i] * c.s1_used[c.b_c0[i]];
  g_abs += c.b_v1[i] * dabs(c.s1[c.b_c1[i]]);
  g_used += c.b_v1[i] * c.s1_used[c.b_c1[i]];
  t += -1.0 * g_abs;
  t += -1.0 * g_used;
  c.rhs2[i] = t;
}

void dual_rhs(const DualRhsCtx& c, std::size_t lo, std::size_t hi) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d vneg1 = _mm512_set1_pd(-1.0);
  const __m512d vtheta = _mm512_set1_pd(c.inv_theta);
  const __m512d vgamma = _mm512_set1_pd(c.gamma);
  std::size_t i = lo;
  // Interior lanes have both tridiagonal neighbors; peel the boundaries.
  if (i == 0 && i < hi) {
    dual_rhs_lane(c, i);
    ++i;
  }
  const std::size_t vec_hi = hi == c.m ? (hi > 0 ? hi - 1 : 0) : hi;
  for (; i + 8 <= vec_hi; i += 8) {
    const __m512d s2 = _mm512_loadu_pd(c.s2 + i);
    __m512d sum = _mm512_mul_pd(_mm512_loadu_pd(c.diag + i), s2);
    sum = _mm512_add_pd(sum, _mm512_mul_pd(_mm512_loadu_pd(c.lower + i - 1),
                                           _mm512_loadu_pd(c.s2 + i - 1)));
    sum = _mm512_add_pd(sum, _mm512_mul_pd(_mm512_loadu_pd(c.upper + i),
                                           _mm512_loadu_pd(c.s2 + i + 1)));
    // t = ((1/θ·sum) + |s2|) + γ·b — the scalar expression's association.
    __m512d t = _mm512_add_pd(_mm512_mul_pd(vtheta, sum), vabs(s2));
    t = _mm512_add_pd(t, _mm512_mul_pd(vgamma, _mm512_loadu_pd(c.b + i)));
    const __m256i i0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c.b_c0 + i));
    const __m256i i1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c.b_c1 + i));
    const __m512d u0 = _mm512_i32gather_pd(i0, c.s1, 8);
    const __m512d u1 = _mm512_i32gather_pd(i1, c.s1, 8);
    const __m512d w0 = _mm512_i32gather_pd(i0, c.s1_used, 8);
    const __m512d w1 = _mm512_i32gather_pd(i1, c.s1_used, 8);
    const __m512d v0 = _mm512_loadu_pd(c.b_v0 + i);
    const __m512d v1 = _mm512_loadu_pd(c.b_v1 + i);
    __m512d g_abs = _mm512_add_pd(zero, _mm512_mul_pd(v0, vabs(u0)));
    g_abs = _mm512_add_pd(g_abs, _mm512_mul_pd(v1, vabs(u1)));
    __m512d g_used = _mm512_add_pd(zero, _mm512_mul_pd(v0, w0));
    g_used = _mm512_add_pd(g_used, _mm512_mul_pd(v1, w1));
    t = _mm512_add_pd(t, _mm512_mul_pd(vneg1, g_abs));
    t = _mm512_add_pd(t, _mm512_mul_pd(vneg1, g_used));
    _mm512_storeu_pd(c.rhs2 + i, t);
  }
  for (; i < hi; ++i) dual_rhs_lane(c, i);
}

double dual_z(const DualZCtx& c, std::size_t lo, std::size_t hi) {
  const __m512d vinvg = _mm512_set1_pd(c.inv_gamma);
  __m512d vbest = _mm512_setzero_pd();
  std::size_t i = lo;
  for (; i + 8 <= hi; i += 8) {
    const __m512d ns = _mm512_loadu_pd(c.new_s2 + i);
    const __m512d zi = _mm512_mul_pd(_mm512_add_pd(vabs(ns), ns), vinvg);
    const __m512d diff = vabs(_mm512_sub_pd(zi, _mm512_loadu_pd(c.z + i)));
    _mm512_storeu_pd(c.z + i, zi);
    vbest = _mm512_max_pd(vbest, diff);
  }
  double best = _mm512_reduce_max_pd(vbest);
  for (; i < hi; ++i) {
    const double ns = c.new_s2[i];
    const double zi = (dabs(ns) + ns) * c.inv_gamma;
    best = dmax(best, dabs(zi - c.z[i]));
    c.z[i] = zi;
  }
  return best;
}

}  // namespace

const MmsimSimdKernels kMmsimSimdAvx512 = {primal, dual_rhs, dual_z};

}  // namespace mch::lcp::kernels

#endif  // MCH_SIMD_X86
