// AVX2 variants of the fused MMSIM sweeps: 4-wide double, bitwise equal to
// the scalar fused path.
// Compiled with -mavx2 -ffp-contract=off; entered only through
// mmsim_simd_kernels() after the runtime CPU check. Lane masking uses
// full-width compare masks + maskstore / and-select (no AVX-512 opmask);
// masked-out lanes of the delta fold contribute 0.0, which is neutral for
// the nonnegative max. See mmsim_kernels.h for the contracts.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "lcp/mmsim_kernels.h"

#if defined(MCH_SIMD_X86)

namespace mch::lcp::kernels {
namespace {

inline double dmax(double a, double b) { return a < b ? b : a; }
inline double dabs(double a) { return __builtin_fabs(a); }

inline __m256d vabs(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

inline double hmax4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_max_pd(lo, hi);
  const __m128d s = _mm_max_sd(m, _mm_unpackhi_pd(m, m));
  return _mm_cvtsd_f64(s);
}

/// Full-width keep mask (all-ones where general[i] == 0) for 4 double lanes.
inline __m256d keep_mask4(const unsigned char* general) {
  std::uint32_t raw;
  std::memcpy(&raw, general, 4);
  const __m128i g4 = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(int(raw)));
  const __m128i eq = _mm_cmpeq_epi32(g4, _mm_setzero_si128());
  return _mm256_castsi256_pd(_mm256_cvtepi32_epi64(eq));
}

double primal(const PrimalCtx& c, std::size_t lo, std::size_t hi) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vc1 = _mm256_set1_pd(c.c1);
  const __m256d vneg1 = _mm256_set1_pd(-1.0);
  const __m256d vgamma = _mm256_set1_pd(c.gamma);
  const __m256d vinvg = _mm256_set1_pd(c.inv_gamma);
  __m256d vbest = zero;
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d keep = keep_mask4(c.general + i);
    if (_mm256_movemask_pd(keep) == 0) continue;
    const __m256d s1 = _mm256_loadu_pd(c.s1 + i);
    const __m256d a1 = vabs(s1);
    const __m128i i0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.bt_c0 + i));
    const __m128i i1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.bt_c1 + i));
    const __m256d x0 = _mm256_i32gather_pd(c.s2, i0, 8);
    const __m256d x1 = _mm256_i32gather_pd(c.s2, i1, 8);
    const __m256d v0 = _mm256_loadu_pd(c.bt_v0 + i);
    const __m256d v1 = _mm256_loadu_pd(c.bt_v1 + i);
    __m256d g_s2 = _mm256_add_pd(zero, _mm256_mul_pd(v0, x0));
    g_s2 = _mm256_add_pd(g_s2, _mm256_mul_pd(v1, x1));
    __m256d g_abs = _mm256_add_pd(zero, _mm256_mul_pd(v0, vabs(x0)));
    g_abs = _mm256_add_pd(g_abs, _mm256_mul_pd(v1, vabs(x1)));
    const __m256d kv = _mm256_loadu_pd(c.kv + i);
    __m256d r = _mm256_add_pd(zero, _mm256_mul_pd(_mm256_mul_pd(vc1, kv), s1));
    r = _mm256_add_pd(r, g_s2);
    r = _mm256_add_pd(r, a1);
    r = _mm256_add_pd(r, _mm256_mul_pd(_mm256_mul_pd(vneg1, kv), a1));
    r = _mm256_add_pd(r, g_abs);
    r = _mm256_sub_pd(r, _mm256_mul_pd(vgamma, _mm256_loadu_pd(c.p + i)));
    const __m256d ns = _mm256_mul_pd(_mm256_loadu_pd(c.siv + i), r);
    _mm256_maskstore_pd(c.new_s1 + i, _mm256_castpd_si256(keep), ns);
    const __m256d zi = _mm256_mul_pd(_mm256_add_pd(vabs(ns), ns), vinvg);
    const __m256d diff = vabs(_mm256_sub_pd(zi, _mm256_loadu_pd(c.z + i)));
    _mm256_maskstore_pd(c.z + i, _mm256_castpd_si256(keep), zi);
    vbest = _mm256_max_pd(vbest, _mm256_and_pd(keep, diff));
  }
  double best = hmax4(vbest);
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
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vneg1 = _mm256_set1_pd(-1.0);
  const __m256d vtheta = _mm256_set1_pd(c.inv_theta);
  const __m256d vgamma = _mm256_set1_pd(c.gamma);
  std::size_t i = lo;
  if (i == 0 && i < hi) {
    dual_rhs_lane(c, i);
    ++i;
  }
  const std::size_t vec_hi = hi == c.m ? (hi > 0 ? hi - 1 : 0) : hi;
  for (; i + 4 <= vec_hi; i += 4) {
    const __m256d s2 = _mm256_loadu_pd(c.s2 + i);
    __m256d sum = _mm256_mul_pd(_mm256_loadu_pd(c.diag + i), s2);
    sum = _mm256_add_pd(sum, _mm256_mul_pd(_mm256_loadu_pd(c.lower + i - 1),
                                           _mm256_loadu_pd(c.s2 + i - 1)));
    sum = _mm256_add_pd(sum, _mm256_mul_pd(_mm256_loadu_pd(c.upper + i),
                                           _mm256_loadu_pd(c.s2 + i + 1)));
    __m256d t = _mm256_add_pd(_mm256_mul_pd(vtheta, sum), vabs(s2));
    t = _mm256_add_pd(t, _mm256_mul_pd(vgamma, _mm256_loadu_pd(c.b + i)));
    const __m128i i0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.b_c0 + i));
    const __m128i i1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(c.b_c1 + i));
    const __m256d u0 = _mm256_i32gather_pd(c.s1, i0, 8);
    const __m256d u1 = _mm256_i32gather_pd(c.s1, i1, 8);
    const __m256d w0 = _mm256_i32gather_pd(c.s1_used, i0, 8);
    const __m256d w1 = _mm256_i32gather_pd(c.s1_used, i1, 8);
    const __m256d v0 = _mm256_loadu_pd(c.b_v0 + i);
    const __m256d v1 = _mm256_loadu_pd(c.b_v1 + i);
    __m256d g_abs = _mm256_add_pd(zero, _mm256_mul_pd(v0, vabs(u0)));
    g_abs = _mm256_add_pd(g_abs, _mm256_mul_pd(v1, vabs(u1)));
    __m256d g_used = _mm256_add_pd(zero, _mm256_mul_pd(v0, w0));
    g_used = _mm256_add_pd(g_used, _mm256_mul_pd(v1, w1));
    t = _mm256_add_pd(t, _mm256_mul_pd(vneg1, g_abs));
    t = _mm256_add_pd(t, _mm256_mul_pd(vneg1, g_used));
    _mm256_storeu_pd(c.rhs2 + i, t);
  }
  for (; i < hi; ++i) dual_rhs_lane(c, i);
}

double dual_z(const DualZCtx& c, std::size_t lo, std::size_t hi) {
  const __m256d vinvg = _mm256_set1_pd(c.inv_gamma);
  __m256d vbest = _mm256_setzero_pd();
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d ns = _mm256_loadu_pd(c.new_s2 + i);
    const __m256d zi = _mm256_mul_pd(_mm256_add_pd(vabs(ns), ns), vinvg);
    const __m256d diff = vabs(_mm256_sub_pd(zi, _mm256_loadu_pd(c.z + i)));
    _mm256_storeu_pd(c.z + i, zi);
    vbest = _mm256_max_pd(vbest, diff);
  }
  double best = hmax4(vbest);
  for (; i < hi; ++i) {
    const double ns = c.new_s2[i];
    const double zi = (dabs(ns) + ns) * c.inv_gamma;
    best = dmax(best, dabs(zi - c.z[i]));
    c.z[i] = zi;
  }
  return best;
}

}  // namespace

const MmsimSimdKernels kMmsimSimdAvx2 = {primal, dual_rhs, dual_z};

}  // namespace mch::lcp::kernels

#endif  // MCH_SIMD_X86
