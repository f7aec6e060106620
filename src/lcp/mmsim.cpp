#include "lcp/mmsim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>

#include "lcp/mmsim_kernels.h"
#include "linalg/power_iteration.h"
#include "obs/metrics.h"
#include "linalg/simd.h"
#include "runtime/parallel.h"
#include "runtime/scratch.h"
#include "util/check.h"
#include "util/timer.h"

namespace mch::lcp {

namespace {
using runtime::kGrainElementwise;
using runtime::parallel_for;
using runtime::parallel_reduce;

/// Grain for the non-1×1 block sweep of the fused kernel; mirrors the
/// block sweeps in linalg/block_diag.cpp.
constexpr std::size_t kGrainBlocks = 256;

/// Systems below this LCP dimension skip phase-time collection: two clock
/// reads per scope would rival the arithmetic of a tiny component solve.
constexpr std::size_t kPhaseProfileMinSize = 256;

/// Iterations between two scaled-residual checks of the stopping rule (see
/// MmsimOptions::residual_check). At a contraction rate near 0.9993 the
/// delta test passes thousands of iterations before the residual does, and
/// a check costs about as much as an iteration: checking every candidate
/// ran the check on 89% of all iterations of a 50k-cell legalize, which
/// took 1.8x as long as at any stride from 8 to 64 (those measured alike).
/// 16 sits inside that plateau and bounds the overshoot past the first
/// passing iteration at 15.
constexpr std::size_t kResidualCheckStride = 16;

/// Unchanged sign-pattern samples (one per kResidualCheckStride
/// iterations) before the first active-set polish attempt; each rejected
/// attempt doubles the wait. On the 50k-cell design the pattern of the
/// largest component is final at iteration 112 of 9,685.
constexpr std::size_t kPolishStableSamples = 2;

/// Largest active-row cluster the polish factors densely (2 MB of scratch).
/// Clusters are runs of abutting cells joined through tall cells; the
/// largest seen on a 50k-cell design has 8 rows. A larger one rejects the
/// attempt, and the iteration continues as if it had not been made.
constexpr std::size_t kMaxClusterRows = 512;

constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};

/// Scratch of MmsimSolver::solve_active_set. It runs serially and never
/// enters the parallel runtime, so no other solve can interleave with it
/// on the same thread: one instance per thread serves every solver.
struct ActiveSetScratch {
  Vector kinv;    ///< row i of K_F⁻¹ over variable i's K block
  Vector kinv_p;  ///< K_F⁻¹ p_F, then B_Jᵀ y − p_F
  Vector dense;   ///< one cluster's S_J, then its Cholesky factor
  std::vector<std::uint32_t> block_first;  ///< first variable of i's block
  std::vector<std::uint32_t> cluster;      ///< tight rows, by cluster
  std::vector<std::uint32_t> local;        ///< row → index in its cluster
};

ActiveSetScratch& active_set_scratch() {
  thread_local ActiveSetScratch scratch;
  return scratch;
}

/// Adds the scope's wall time to `bucket` when enabled; costs nothing (not
/// even a clock read) when disabled.
class PhaseTimer {
 public:
  PhaseTimer(bool enabled, double& bucket)
      : bucket_(enabled ? &bucket : nullptr) {
    if (bucket_) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (bucket_)
      *bucket_ += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* bucket_;
  std::chrono::steady_clock::time_point start_;
};

double fold_max(double a, double b) { return std::max(a, b); }

}  // namespace

using linalg::BlockDiagMatrix;
using linalg::CsrMatrix;
using linalg::DenseMatrix;
using linalg::Tridiagonal;

bool fused_kernels_default() {
  if (const char* env = std::getenv("MCH_FUSED_KERNELS")) {
    const std::string value(env);
    if (value == "0" || value == "off" || value == "false") return false;
  }
  return true;
}

Tridiagonal schur_tridiagonal(const BlockDiagMatrix& k, const CsrMatrix& b,
                              const std::vector<bool>* coupling_breaks) {
  const std::size_t m = b.rows();
  MCH_CHECK(coupling_breaks == nullptr || coupling_breaks->size() == m);
  Tridiagonal d(m);

  // Entry (r, r') of B K⁻¹ Bᵀ = Σ_{i,j} B[r,i] · K⁻¹[i,j] · B[r',j].
  // B has at most two nonzeros per row, so each entry needs at most four
  // K⁻¹ lookups; K⁻¹ is block diagonal so each lookup is O(log #blocks).
  const auto entry = [&](std::size_t r, std::size_t rp) {
    double sum = 0.0;
    for (std::size_t ka = b.row_ptr()[r]; ka < b.row_ptr()[r + 1]; ++ka)
      for (std::size_t kb = b.row_ptr()[rp]; kb < b.row_ptr()[rp + 1]; ++kb)
        sum += b.values()[ka] * b.values()[kb] *
               k.inverse_entry(b.col_idx()[ka], b.col_idx()[kb]);
    return sum;
  };

  for (std::size_t r = 0; r < m; ++r) {
    d.diag(r) = entry(r, r);
    if (r + 1 < m && !(coupling_breaks && (*coupling_breaks)[r + 1])) {
      d.upper(r) = entry(r, r + 1);
      d.lower(r) = entry(r + 1, r);
    }
  }
  return d;
}

MmsimSolver::MmsimSolver(const StructuredQp& qp, const MmsimOptions& options,
                         const std::vector<bool>* schur_coupling_breaks)
    : qp_(qp), opts_(options) {
  MCH_CHECK_MSG(opts_.beta > 0.0 && opts_.beta < 2.0,
                "beta must be in (0, 2)");
  MCH_CHECK(opts_.theta > 0.0 && opts_.gamma > 0.0);

  Timer timer;
  // (1,1) block of M + I: K/β* + I, block diagonal; store with inverses.
  // Scalar blocks shift in place through the flat array — same arithmetic
  // (v/β + 1, inverted as exactly its reciprocal) without a DenseMatrix.
  for (std::size_t blk = 0; blk < qp_.K.block_count(); ++blk) {
    if (qp_.K.is_scalar_block(blk)) {
      const std::size_t off = qp_.K.block_offset(blk);
      shifted_k_.add_scalar_block(qp_.K.scalar_values()[off] / opts_.beta +
                                  1.0);
      continue;
    }
    const DenseMatrix& kb = qp_.K.block(blk);
    const std::size_t n = kb.rows();
    DenseMatrix shifted(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        shifted(r, c) = kb(r, c) / opts_.beta + (r == c ? 1.0 : 0.0);
    shifted_k_.add_block(shifted);
  }

  d_ = mch::lcp::schur_tridiagonal(qp_.K, qp_.B, schur_coupling_breaks);
  // (2,2) block of M + I: D/θ* + I. The matrix is constant across the
  // iteration, so factor the Thomas pivots once here; every step then runs
  // only the short-recurrence forward sweep.
  shifted_d_ = d_.scaled_plus_identity(1.0 / opts_.theta, 1.0);
  MCH_CHECK_MSG(shifted_d_lu_.factor(shifted_d_), "D/θ + I singular");

  // Prebuild what the fused kernels traverse per element: the cached Bᵀ
  // view (so no per-product lock) and the scalar/general classification of
  // each variable's K block.
  bt_ = &qp_.B.transpose_view();
  general_var_.assign(qp_.K.size(), 0);
  for (const std::size_t b : qp_.K.general_block_indices()) {
    const std::size_t off = qp_.K.block_offset(b);
    const std::size_t size = qp_.K.block_size(b);
    for (std::size_t i = 0; i < size; ++i) general_var_[off + i] = 1;
    max_general_rows_ = std::max(max_general_rows_, size);
  }
  // Fixed-width-2 gather tables: the SoA views cached on B/Bᵀ (csr.h),
  // shared with the SIMD product kernels. Only the fused path reads them,
  // so skip the build entirely for reference-path solvers.
  if (opts_.fused) {
    // num_constraints() > 0: the padding slots load (and discard) column 0
    // of the opposite s half, which must therefore exist. An empty B makes
    // every gather a no-op anyway, so the CSR loops lose nothing there.
    if (qp_.num_constraints() > 0 && qp_.num_variables() > 0) {
      bt_g2_ = bt_->gather2_view();
      b_g2_ = qp_.B.gather2_view();
      gather2_ = bt_g2_ != nullptr && b_g2_ != nullptr;
      if (!gather2_) {
        bt_g2_ = nullptr;
        b_g2_ = nullptr;
      }
    }
    // Flattened general-block tables (see the header): K block + inverse
    // per block, contiguous, so the block sweep streams one array instead
    // of chasing two small heap objects per block.
    const auto& gb = qp_.K.general_block_indices();
    gb_off_.resize(gb.size());
    gb_dim_.resize(gb.size());
    gb_data_.resize(gb.size());
    std::size_t total = 0;
    for (std::size_t g = 0; g < gb.size(); ++g) {
      const std::size_t bn = qp_.K.block_size(gb[g]);
      gb_off_[g] = qp_.K.block_offset(gb[g]);
      gb_dim_[g] = static_cast<std::uint32_t>(bn);
      gb_data_[g] = total;
      total += 2 * bn * bn;
    }
    gb_vals_.resize(total);
    for (std::size_t g = 0; g < gb.size(); ++g) {
      const std::size_t bn = gb_dim_[g];
      const DenseMatrix& kb = qp_.K.block(gb[g]);
      const DenseMatrix& inv = shifted_k_.block_inverse(gb[g]);
      double* out = gb_vals_.data() + gb_data_[g];
      for (std::size_t r = 0; r < bn; ++r)
        for (std::size_t c = 0; c < bn; ++c) *out++ = kb(r, c);
      for (std::size_t r = 0; r < bn; ++r)
        for (std::size_t c = 0; c < bn; ++c) *out++ = inv(r, c);
    }
  }

  profile_ = qp_.lcp_size() >= kPhaseProfileMinSize;
  setup_seconds_ = timer.seconds();
}

double MmsimSolver::estimate_mu_max() const {
  const std::size_t m = qp_.num_constraints();
  if (m == 0) return 0.0;
  Vector t, u, v;
  const auto gamma_op = [&](const Vector& y, Vector& out) {
    qp_.B.multiply_transpose(y, t);  // t = Bᵀ y
    qp_.K.solve(t, u);               // u = K⁻¹ t
    qp_.B.multiply(u, v);            // v = B u
    MCH_CHECK_MSG(d_.solve(v, out), "D is singular");  // out = D⁻¹ v
  };
  return linalg::power_iteration(m, gamma_op).eigenvalue;
}

double MmsimSolver::suggest_theta() const {
  const double mu_max = estimate_mu_max();
  if (mu_max <= 0.0) return opts_.theta;
  const double bound = 2.0 * (2.0 - opts_.beta) / (opts_.beta * mu_max);
  // Theorem 2's bound assumes the exact Schur complement; with the
  // tridiagonal approximation D the empirically safe region is narrower
  // (bench/ablation_parameters maps it), so never suggest beyond the
  // paper's validated θ* = 0.5.
  return std::min(0.9 * bound, 0.5);
}

MmsimResult MmsimSolver::solve() const {
  return solve_from(Vector(qp_.lcp_size(), 0.0));
}

bool MmsimSolver::scaled_residual_ok(const Vector& z, Vector& w) const {
  qp_.lcp_apply(z, w);
  // Keep the norms ahead of the loop: taking them after it measured ~15%
  // slower end to end (BM_MmsimSolveToConvergence/4096, one thread).
  const double tolerance = opts_.residual_tolerance;
  const double scale_z = 1.0 + linalg::norm_inf(z);
  const double scale_w = 1.0 + linalg::norm_inf(w);
  double z_negativity = 0.0;     // max(0, −z_i)
  double w_negativity = 0.0;     // max(0, −w_i)
  double complementarity = 0.0;  // max |z_i·w_i|
  for (std::size_t i = 0; i < z.size(); ++i) {
    z_negativity = std::max(z_negativity, -z[i]);
    w_negativity = std::max(w_negativity, -w[i]);
    complementarity = std::max(complementarity, std::abs(z[i] * w[i]));
  }
  return z_negativity <= tolerance * scale_z &&
         w_negativity <= tolerance * scale_w &&
         complementarity <= tolerance * scale_z * scale_w;
}

bool MmsimSolver::solve_active_set(const std::vector<unsigned char>& signs,
                                   Vector& z) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  const unsigned char* free_var = signs.data();       // x_i > 0
  const unsigned char* tight_row = signs.data() + n;  // y_r > 0
  ActiveSetScratch& scratch = active_set_scratch();
  const std::vector<std::size_t>& b_rp = qp_.B.row_ptr();
  const std::vector<index_t>& b_ci = qp_.B.col_idx();
  const Vector& b_v = qp_.B.values();
  const std::vector<std::size_t>& bt_rp = bt_->row_ptr();
  const std::vector<index_t>& bt_ci = bt_->col_idx();
  const Vector& bt_v = bt_->values();

  // K_F⁻¹, one row per variable over the columns of its K block (width W,
  // the widest block). A free variable's row has zeros at the block's
  // fixed columns; a fixed variable's row is never read.
  const std::size_t width = std::max<std::size_t>(1, max_general_rows_);
  scratch.kinv.resize(n * width);
  scratch.block_first.resize(n);
  scratch.dense.resize(std::max(scratch.dense.size(), width * width));
  double* kinv = scratch.kinv.data();
  std::uint32_t* first = scratch.block_first.data();
  const std::vector<double>& scalar_inv = qp_.K.scalar_inverses();
  for (std::size_t blk = 0; blk < qp_.K.block_count(); ++blk) {
    const std::size_t off = qp_.K.block_offset(blk);
    if (qp_.K.is_scalar_block(blk)) {
      first[off] = static_cast<std::uint32_t>(off);
      kinv[off * width] = scalar_inv[off];
      continue;
    }
    // Gauss–Jordan inverse of K_FF, in place, on the block with each fixed
    // variable's row and column replaced by the identity's: the free part
    // of the inverse is K_FF⁻¹ and its fixed columns stay zero.
    const std::size_t bn = qp_.K.block_size(blk);
    const DenseMatrix& kb = qp_.K.block(blk);
    double* inv = scratch.dense.data();
    for (std::size_t a = 0; a < bn; ++a) {
      first[off + a] = static_cast<std::uint32_t>(off);
      for (std::size_t c = 0; c < bn; ++c)
        inv[a * bn + c] = free_var[off + a] && free_var[off + c] ? kb(a, c)
                          : a == c                      ? 1.0
                                                        : 0.0;
    }
    for (std::size_t p = 0; p < bn; ++p) {
      const double pivot = inv[p * bn + p];
      if (!(pivot > 0.0)) return false;
      const double inv_pivot = 1.0 / pivot;
      inv[p * bn + p] = 1.0;
      for (std::size_t c = 0; c < bn; ++c) inv[p * bn + c] *= inv_pivot;
      for (std::size_t a = 0; a < bn; ++a) {
        if (a == p) continue;
        const double factor = inv[a * bn + p];
        inv[a * bn + p] = 0.0;
        for (std::size_t c = 0; c < bn; ++c)
          inv[a * bn + c] -= factor * inv[p * bn + c];
      }
    }
    for (std::size_t a = 0; a < bn; ++a)
      std::copy(inv + a * bn, inv + (a + 1) * bn, kinv + (off + a) * width);
  }
  // Visits the free columns j of variable i's block with K_F⁻¹(i, j).
  const auto for_block = [&](std::size_t i, auto&& fn) {
    const std::size_t off = first[i];
    const double* row = kinv + i * width;
    for (std::size_t j = off; j < n && j < off + width && first[j] == off;
         ++j)
      if (free_var[j]) fn(j, row[j - off]);
  };

  // u = K_F⁻¹ p_F.
  scratch.kinv_p.resize(n);
  double* u = scratch.kinv_p.data();
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    if (free_var[i])
      for_block(i, [&](std::size_t j, double k) { sum += k * qp_.p[j]; });
    u[i] = sum;
  }

  // Clusters of tight rows: rows sharing a free variable's K block are
  // coupled in S_J, so a breadth-first sweep over that relation yields
  // the independent diagonal blocks, numbered in row order.
  std::fill(z.begin(), z.end(), 0.0);
  scratch.local.assign(m, kUnvisited);
  scratch.cluster.resize(m);
  std::uint32_t* local = scratch.local.data();
  std::uint32_t* cluster = scratch.cluster.data();
  std::size_t end = 0;
  for (std::size_t root = 0; root < m; ++root) {
    if (!tight_row[root] || local[root] != kUnvisited) continue;
    const std::size_t begin = end;
    local[root] = 0;
    cluster[end++] = static_cast<std::uint32_t>(root);
    for (std::size_t q = begin; q < end; ++q) {
      const std::size_t r = cluster[q];
      for (std::size_t e = b_rp[r]; e < b_rp[r + 1]; ++e) {
        const std::size_t i = b_ci[e];
        if (!free_var[i]) continue;
        for_block(i, [&](std::size_t j, double) {
          for (std::size_t f = bt_rp[j]; f < bt_rp[j + 1]; ++f) {
            const std::size_t r2 = bt_ci[f];
            if (!tight_row[r2] || local[r2] != kUnvisited) continue;
            local[r2] = static_cast<std::uint32_t>(end - begin);
            cluster[end++] = static_cast<std::uint32_t>(r2);
          }
        });
      }
      if (end - begin > kMaxClusterRows) return false;
    }

    // S = B_J K_F⁻¹ B_Jᵀ and rhs = b_J + B_J u over the cluster, dense.
    const std::size_t k = end - begin;
    scratch.dense.resize(std::max(scratch.dense.size(), k * k + k));
    double* s = scratch.dense.data();
    double* rhs = s + k * k;
    std::fill(s, s + k * k, 0.0);
    for (std::size_t a = 0; a < k; ++a) {
      const std::size_t r = cluster[begin + a];
      double t = qp_.b[r];
      for (std::size_t e = b_rp[r]; e < b_rp[r + 1]; ++e) {
        const std::size_t i = b_ci[e];
        if (!free_var[i]) continue;
        t += b_v[e] * u[i];
        for_block(i, [&](std::size_t j, double kij) {
          const double coef = b_v[e] * kij;
          for (std::size_t f = bt_rp[j]; f < bt_rp[j + 1]; ++f)
            if (tight_row[bt_ci[f]])
              s[a * k + local[bt_ci[f]]] += coef * bt_v[f];
        });
      }
      rhs[a] = t;
    }
    // Cholesky S = L Lᵀ (L in the lower triangle), then L Lᵀ y = rhs.
    for (std::size_t c = 0; c < k; ++c) {
      double d = s[c * k + c];
      for (std::size_t p = 0; p < c; ++p) d -= s[c * k + p] * s[c * k + p];
      if (!(d > 0.0)) return false;
      const double l = std::sqrt(d);
      s[c * k + c] = l;
      for (std::size_t a = c + 1; a < k; ++a) {
        double v = s[a * k + c];
        for (std::size_t p = 0; p < c; ++p) v -= s[a * k + p] * s[c * k + p];
        s[a * k + c] = v / l;
      }
    }
    for (std::size_t a = 0; a < k; ++a) {
      double v = rhs[a];
      for (std::size_t p = 0; p < a; ++p) v -= s[a * k + p] * rhs[p];
      rhs[a] = v / s[a * k + a];
    }
    for (std::size_t a = k; a-- > 0;) {
      double v = rhs[a];
      for (std::size_t p = a + 1; p < k; ++p) v -= s[p * k + a] * rhs[p];
      rhs[a] = v / s[a * k + a];
    }
    for (std::size_t a = 0; a < k; ++a) z[n + cluster[begin + a]] = rhs[a];
  }

  // x_F = K_F⁻¹ (B_Jᵀ y − p_F), with t = B_Jᵀ y − p_F over u's buffer.
  double* t = u;
  for (std::size_t i = 0; i < n; ++i) {
    if (!free_var[i]) continue;
    double sum = -qp_.p[i];
    for (std::size_t f = bt_rp[i]; f < bt_rp[i + 1]; ++f)
      if (tight_row[bt_ci[f]]) sum += bt_v[f] * z[n + bt_ci[f]];
    t[i] = sum;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!free_var[i]) continue;
    double sum = 0.0;
    for_block(i, [&](std::size_t j, double k) { sum += k * t[j]; });
    z[i] = sum;
  }
  return true;
}

bool MmsimSolver::try_polish(State& state, double* delta) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  state.signs.resize(n + m);
  for (std::size_t i = 0; i < n + m; ++i) state.signs[i] = state.z[i] > 0.0;

  // Park the iterate in the saved_* buffers (swapped, not copied); the
  // candidate overwrites the live ones in full.
  const std::size_t iterations = state.iterations;
  state.s1.swap(state.saved_s1);
  state.s2.swap(state.saved_s2);
  state.z.swap(state.saved_z);
  state.s1.resize(n);
  state.s2.resize(m);
  state.z.resize(n + m);
  const auto reject = [&] {
    state.s1.swap(state.saved_s1);
    state.s2.swap(state.saved_s2);
    state.z.swap(state.saved_z);
    state.iterations = iterations;
    return false;
  };

  if (!solve_active_set(state.signs, state.z) ||
      !scaled_residual_ok(state.z, state.w))
    return reject();
  // The modulus fixed point of the candidate: z = (|s| + s)/γ and
  // w = (|s| − s)/γ give s = γ(z − w)/2.
  const double half_gamma = 0.5 * opts_.gamma;
  for (std::size_t i = 0; i < n; ++i)
    state.s1[i] = half_gamma * (state.z[i] - state.w[i]);
  for (std::size_t r = 0; r < m; ++r)
    state.s2[r] = half_gamma * (state.z[n + r] - state.w[n + r]);
  const double step_delta = step(state);
  if (!(step_delta < opts_.tolerance) ||
      !scaled_residual_ok(state.z, state.w))
    return reject();
  if (delta != nullptr) *delta = step_delta;
  return true;
}

MmsimSolver::State MmsimSolver::make_state() const {
  State state;
  reset_state(state);
  return state;
}

MmsimSolver::State MmsimSolver::make_state(const Vector& s0) const {
  State state;
  reset_state(state, &s0);
  return state;
}

void MmsimSolver::reset_state(State& state, const Vector* s0) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  if (s0 != nullptr) {
    MCH_CHECK(s0->size() == n + m);
    state.s1.assign(s0->begin(),
                    s0->begin() + static_cast<std::ptrdiff_t>(n));
    state.s2.assign(s0->begin() + static_cast<std::ptrdiff_t>(n), s0->end());
  } else {
    state.s1.assign(n, 0.0);
    state.s2.assign(m, 0.0);
  }
  state.z.assign(n + m, 0.0);
  // z_prev, abs1, abs2 and rhs1 belong to the reference path alone, which
  // sizes them on use: fused states (the default) never carry them.
  state.rhs2.resize(m);
  state.new_s1.resize(n);
  state.new_s2.resize(m);
  state.iterations = 0;
  state.phase = MmsimPhaseTimes{};
}

double MmsimSolver::step(State& state) const {
  return opts_.fused ? step_fused(state) : step_reference(state);
}

// The retained stage-by-stage iteration: the bitwise reference the fused
// kernels must reproduce (tests/lcp/mmsim_fused_test compares them step by
// step) and the MCH_FUSED_KERNELS=0 escape hatch. Two pieces of shared
// machinery intentionally differ from the pre-fusion code — the prefactored
// Thomas solve and the hoisted 1/γ multiply — because both paths must use
// the same rounding for their bitwise contract to hold.
double MmsimSolver::step_reference(State& state) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  Vector& s1 = state.s1;
  Vector& s2 = state.s2;
  Vector& abs1 = state.abs1;
  Vector& abs2 = state.abs2;
  Vector& rhs1 = state.rhs1;
  Vector& rhs2 = state.rhs2;
  const double inv_beta_minus_1 = 1.0 / opts_.beta - 1.0;
  const double inv_theta = 1.0 / opts_.theta;
  const double inv_gamma = 1.0 / opts_.gamma;

  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);
    state.z_prev = state.z;
    abs1.resize(n);
    abs2.resize(m);

    // All element-wise stages of the modulus update run on the runtime; the
    // matrix products parallelize internally. Each stage owns its output
    // elements, so the iterates are identical at every thread count.
    parallel_for(std::size_t{0}, n, kGrainElementwise,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     abs1[i] = std::abs(s1[i]);
                 });
    parallel_for(std::size_t{0}, m, kGrainElementwise,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     abs2[i] = std::abs(s2[i]);
                 });
    rhs1.assign(n, 0.0);
  }

  // rhs1 = (1/β−1)·K s1 + Bᵀ s2 + (|s1| − K|s1|) + Bᵀ|s2| − γ p.
  {
    PhaseTimer timer(profile_, state.phase.spmv_seconds);
    qp_.K.multiply_add(inv_beta_minus_1, s1, rhs1);
    qp_.B.multiply_transpose_add(1.0, s2, rhs1);
  }
  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);
    parallel_for(std::size_t{0}, n, kGrainElementwise,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) rhs1[i] += abs1[i];
                 });
  }
  {
    PhaseTimer timer(profile_, state.phase.spmv_seconds);
    qp_.K.multiply_add(-1.0, abs1, rhs1);
    qp_.B.multiply_transpose_add(1.0, abs2, rhs1);
  }
  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);
    parallel_for(std::size_t{0}, n, kGrainElementwise,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     rhs1[i] -= opts_.gamma * qp_.p[i];
                 });
  }

  // Forward solve of the block lower triangular system:
  //   (K/β + I)·s1' = rhs1             (block-diagonal solve)
  {
    PhaseTimer timer(profile_, state.phase.spmv_seconds);
    shifted_k_.solve(rhs1, state.new_s1);
  }

  //   rhs2 = (D/θ)·s2 − B|s1| + |s2| + γ b − B·s1_used, where s1_used is
  //   the fresh iterate under the paper's Gauss–Seidel splitting (the B
  //   block of M) or the previous one under the Jacobi ablation.
  if (m > 0) {
    {
      PhaseTimer timer(profile_, state.phase.spmv_seconds);
      d_.multiply(s2, rhs2);
    }
    {
      PhaseTimer timer(profile_, state.phase.kernel_seconds);
      parallel_for(std::size_t{0}, m, kGrainElementwise,
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t i = lo; i < hi; ++i)
                       rhs2[i] = inv_theta * rhs2[i] + abs2[i] +
                                 opts_.gamma * qp_.b[i];
                   });
    }
    {
      PhaseTimer timer(profile_, state.phase.spmv_seconds);
      qp_.B.multiply_add(-1.0, abs1, rhs2);
      qp_.B.multiply_add(
          -1.0,
          opts_.splitting == MmsimSplitting::kGaussSeidel ? state.new_s1 : s1,
          rhs2);
    }
    //   (D/θ + I)·s2' = rhs2           (Thomas solve, prefactored)
    PhaseTimer timer(profile_, state.phase.thomas_seconds);
    shifted_d_lu_.solve(rhs2, state.new_s2, state.thomas_d);
  } else {
    state.new_s2.clear();
  }

  s1.swap(state.new_s1);
  s2.swap(state.new_s2);

  // z = (|s| + s)/γ  (so z = max(s, 0)·2/γ).
  Vector& z = state.z;
  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);
    parallel_for(std::size_t{0}, n, kGrainElementwise,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     z[i] = (std::abs(s1[i]) + s1[i]) * inv_gamma;
                 });
    parallel_for(std::size_t{0}, m, kGrainElementwise,
                 [&](std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i)
                     z[n + i] = (std::abs(s2[i]) + s2[i]) * inv_gamma;
                 });
  }

  ++state.iterations;
  PhaseTimer timer(profile_, state.phase.reduction_seconds);
  return linalg::diff_norm_inf(z, state.z_prev);
}

// Fused iteration: one parallel sweep per half-step computes |s|, the rhs
// chain, the triangular solve's local part, the z update, and the delta
// partial in a single pass, with Bᵀ/B gathers inlined through the cached
// CSR views. No abs1/abs2/rhs1 intermediates are materialized.
//
// Bitwise equality with step_reference holds because every output element's
// floating-point operation chain is replicated term by term in the
// reference order — including the zero-valued scalar-sweep terms that
// BlockDiagMatrix::multiply_add contributes at non-1×1-block positions, and
// recomputing |s| on the fly (std::abs is exact). The delta is an ∞-norm
// max-fold, associative and commutative over the identical value multiset,
// so splitting it across the three sweeps changes nothing.
double MmsimSolver::step_fused(State& state) const {
  return gather2_ ? step_fused_impl<true>(state)
                  : step_fused_impl<false>(state);
}

// kGather2 = true swaps every CSR row loop for a constant-trip-count pass
// over the padded width-2 tables: no per-row trip-count branch to
// mispredict, uint32 column loads, no row_ptr loads at all. The padding
// terms are trailing `0.0 · x` adds; x + ±0.0 == x bitwise for every x
// except −0.0 + +0.0 == +0.0, so the only observable deviation from the
// CSR loop is the sign of an exactly-zero accumulator — which the chains
// below erase before it can touch a nonzero bit (each gather sum is
// followed by further adds, and z = (|s|+s)/γ collapses zero signs), so
// z/x/dual stay bitwise identical to step_reference.
template <bool kGather2>
double MmsimSolver::step_fused_impl(State& state) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();
  Vector& s1 = state.s1;
  Vector& s2 = state.s2;
  Vector& rhs2 = state.rhs2;
  Vector& new_s1 = state.new_s1;
  Vector& new_s2 = state.new_s2;
  Vector& z = state.z;
  const double c1 = 1.0 / opts_.beta - 1.0;
  const double inv_theta = 1.0 / opts_.theta;
  const double gamma = opts_.gamma;
  const double inv_gamma = 1.0 / opts_.gamma;

  const auto& kv = qp_.K.scalar_values();
  const auto& siv = shifted_k_.scalar_inverses();
  const std::vector<std::size_t>& bt_rp = bt_->row_ptr();
  const auto& bt_ci = bt_->col_idx();
  const auto& bt_v = bt_->values();
  const double* const bt_v0 = kGather2 ? bt_g2_->v0.data() : nullptr;
  const double* const bt_v1 = kGather2 ? bt_g2_->v1.data() : nullptr;
  const std::uint32_t* const bt_c0 = kGather2 ? bt_g2_->c0.data() : nullptr;
  const std::uint32_t* const bt_c1 = kGather2 ? bt_g2_->c1.data() : nullptr;
  // SIMD sweep kernels (bitwise identical to the scalar loops below); only
  // the gather2 layout has the SoA shape they consume.
  const kernels::MmsimSimdKernels* const sk =
      kGather2 ? kernels::mmsim_simd_kernels(linalg::simd_level()) : nullptr;

  double delta = 0.0;
  {
    PhaseTimer timer(profile_, state.phase.kernel_seconds);

    // Primal half, 1×1-block rows (the ~90% fast path).
    kernels::PrimalCtx pctx{};
    if (sk != nullptr)
      pctx = {s1.data(),   s2.data(),   kv.data(),
              siv.data(),  qp_.p.data(), bt_v0,
              bt_v1,       bt_c0,       bt_c1,
              general_var_.data(),      new_s1.data(),
              z.data(),    c1,          gamma,
              inv_gamma};
    const double scalar_delta = parallel_reduce(
        std::size_t{0}, n, kGrainElementwise, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          if constexpr (kGather2) {
            if (sk != nullptr) return sk->primal(pctx, lo, hi);
          }
          double best = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            if (general_var_[i]) continue;
            const double s1i = s1[i];
            const double a1 = std::abs(s1i);
            // One traversal of the Bᵀ row feeds both gather terms (each
            // accumulator folds the same values in the same order as its
            // standalone gather would).
            double g_s2 = 0.0;   // Bᵀ s2
            double g_abs = 0.0;  // Bᵀ |s2|
            if constexpr (kGather2) {
              {
                const double v = bt_v0[i];
                const double x = s2[bt_c0[i]];
                g_s2 += v * x;
                g_abs += v * std::abs(x);
              }
              {
                const double v = bt_v1[i];
                const double x = s2[bt_c1[i]];
                g_s2 += v * x;
                g_abs += v * std::abs(x);
              }
            } else {
              for (std::size_t k = bt_rp[i]; k < bt_rp[i + 1]; ++k) {
                const double v = bt_v[k];
                const double x = s2[bt_ci[k]];
                g_s2 += v * x;
                g_abs += v * std::abs(x);
              }
            }
            double r = 0.0;
            r += c1 * kv[i] * s1i;   // (1/β−1)·K s1, scalar sweep
            r += g_s2;
            r += a1;                 // + |s1|
            r += -1.0 * kv[i] * a1;  // − K|s1|, scalar sweep
            r += g_abs;
            r -= gamma * qp_.p[i];
            const double ns = siv[i] * r;  // (K/β + I)⁻¹, scalar row
            new_s1[i] = ns;
            const double zi = (std::abs(ns) + ns) * inv_gamma;
            best = std::max(best, std::abs(zi - z[i]));
            z[i] = zi;
          }
          return best;
        },
        fold_max);

    // Primal half, multi-row blocks (tall cells), streaming the flattened
    // gb_* tables. The per-thread scratch holds the block's rhs; the chain
    // includes the zero terms the flat scalar sweeps of the reference
    // contribute at these positions. kBn = 2 compiles the dominant
    // double-height case with every block loop fully unrolled; kBn = 0 is
    // the runtime-size fallback. Identical values in identical order either
    // way.
    const auto block_body = [&]<std::size_t kBn>(std::size_t g, double& best,
                                                 std::vector<double>& rb) {
      const std::size_t off = gb_off_[g];
      const std::size_t bn = kBn != 0 ? kBn : gb_dim_[g];
      const double* const kd = gb_vals_.data() + gb_data_[g];
      const double* const invd = kd + bn * bn;
      for (std::size_t r = 0; r < bn; ++r) {
        const std::size_t i = off + r;
        const double s1i = s1[i];
        const double a1 = std::abs(s1i);
        double g_s2 = 0.0;   // Bᵀ s2
        double g_abs = 0.0;  // Bᵀ |s2|, same single traversal
        if constexpr (kGather2) {
          {
            const double v = bt_v0[i];
            const double x = s2[bt_c0[i]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
          {
            const double v = bt_v1[i];
            const double x = s2[bt_c1[i]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
        } else {
          for (std::size_t k = bt_rp[i]; k < bt_rp[i + 1]; ++k) {
            const double v = bt_v[k];
            const double x = s2[bt_ci[k]];
            g_s2 += v * x;
            g_abs += v * std::abs(x);
          }
        }
        double acc = 0.0;
        acc += c1 * kv[i] * s1i;  // zero term of the scalar sweep
        double sum = 0.0;
        for (std::size_t c = 0; c < bn; ++c)
          sum += kd[r * bn + c] * s1[off + c];
        acc += c1 * sum;  // (1/β−1)·K s1, block sweep
        acc += g_s2;
        acc += a1;
        acc += -1.0 * kv[i] * a1;  // zero term of the scalar sweep
        sum = 0.0;
        for (std::size_t c = 0; c < bn; ++c)
          sum += kd[r * bn + c] * std::abs(s1[off + c]);
        acc += -1.0 * sum;  // − K|s1|, block sweep
        acc += g_abs;
        acc -= gamma * qp_.p[i];
        rb[r] = acc;
      }
      for (std::size_t r = 0; r < bn; ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < bn; ++c) sum += invd[r * bn + c] * rb[c];
        new_s1[off + r] = sum;
        const double zi = (std::abs(sum) + sum) * inv_gamma;
        best = std::max(best, std::abs(zi - z[off + r]));
        z[off + r] = zi;
      }
    };
    const double general_delta = parallel_reduce(
        std::size_t{0}, gb_off_.size(), kGrainBlocks, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double best = 0.0;
          std::vector<double>& rb =
              runtime::thread_scratch(0, max_general_rows_);
          for (std::size_t g = lo; g < hi; ++g) {
            if (gb_dim_[g] == 2)
              block_body.template operator()<2>(g, best, rb);
            else
              block_body.template operator()<0>(g, best, rb);
          }
          return best;
        },
        fold_max);
    delta = std::max(scalar_delta, general_delta);
  }

  if (m > 0) {
    {
      PhaseTimer timer(profile_, state.phase.kernel_seconds);
      // Dual rhs in one sweep: the tridiagonal D row, the modulus terms,
      // and both B-row gathers (|s1| and the splitting-dependent s1).
      const Vector& s1_used =
          opts_.splitting == MmsimSplitting::kGaussSeidel ? new_s1 : s1;
      const std::vector<std::size_t>& b_rp = qp_.B.row_ptr();
      const auto& b_ci = qp_.B.col_idx();
      const auto& b_v = qp_.B.values();
      const double* const b_v0 = kGather2 ? b_g2_->v0.data() : nullptr;
      const double* const b_v1 = kGather2 ? b_g2_->v1.data() : nullptr;
      const std::uint32_t* const b_c0 = kGather2 ? b_g2_->c0.data() : nullptr;
      const std::uint32_t* const b_c1 = kGather2 ? b_g2_->c1.data() : nullptr;
      kernels::DualRhsCtx dctx{};
      if (sk != nullptr)
        dctx = {s2.data(),
                d_.diag_data().data(),
                d_.lower_data().data(),
                d_.upper_data().data(),
                qp_.b.data(),
                s1.data(),
                s1_used.data(),
                b_v0,
                b_v1,
                b_c0,
                b_c1,
                rhs2.data(),
                inv_theta,
                gamma,
                m};
      parallel_for(
          std::size_t{0}, m, kGrainElementwise,
          [&](std::size_t lo, std::size_t hi) {
            if constexpr (kGather2) {
              if (sk != nullptr) {
                sk->dual_rhs(dctx, lo, hi);
                return;
              }
            }
            for (std::size_t i = lo; i < hi; ++i) {
              double sum = d_.diag(i) * s2[i];
              if (i > 0) sum += d_.lower(i - 1) * s2[i - 1];
              if (i + 1 < m) sum += d_.upper(i) * s2[i + 1];
              double t =
                  inv_theta * sum + std::abs(s2[i]) + gamma * qp_.b[i];
              double g_abs = 0.0;   // B |s1|
              double g_used = 0.0;  // B s1_used, same single traversal
              if constexpr (kGather2) {
                {
                  const double v = b_v0[i];
                  const std::size_t c = b_c0[i];
                  g_abs += v * std::abs(s1[c]);
                  g_used += v * s1_used[c];
                }
                {
                  const double v = b_v1[i];
                  const std::size_t c = b_c1[i];
                  g_abs += v * std::abs(s1[c]);
                  g_used += v * s1_used[c];
                }
              } else {
                for (std::size_t k = b_rp[i]; k < b_rp[i + 1]; ++k) {
                  const double v = b_v[k];
                  const std::size_t c = b_ci[k];
                  g_abs += v * std::abs(s1[c]);
                  g_used += v * s1_used[c];
                }
              }
              t += -1.0 * g_abs;
              t += -1.0 * g_used;
              rhs2[i] = t;
            }
          });
    }
    {
      PhaseTimer timer(profile_, state.phase.thomas_seconds);
      shifted_d_lu_.solve(rhs2, new_s2, state.thomas_d);
    }
    {
      PhaseTimer timer(profile_, state.phase.kernel_seconds);
      kernels::DualZCtx zctx{};
      if (sk != nullptr) zctx = {new_s2.data(), z.data() + n, inv_gamma};
      const double dual_delta = parallel_reduce(
          std::size_t{0}, m, kGrainElementwise, 0.0,
          [&](std::size_t lo, std::size_t hi) {
            if constexpr (kGather2) {
              if (sk != nullptr) return sk->dual_z(zctx, lo, hi);
            }
            double best = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
              const double ns = new_s2[i];
              const double zi = (std::abs(ns) + ns) * inv_gamma;
              best = std::max(best, std::abs(zi - z[n + i]));
              z[n + i] = zi;
            }
            return best;
          },
          fold_max);
      delta = std::max(delta, dual_delta);
    }
  } else {
    new_s2.clear();
  }

  s1.swap(new_s1);
  s2.swap(new_s2);
  ++state.iterations;
  return delta;
}

MmsimResult MmsimSolver::run_loop(State& state) const {
  const std::size_t n = qp_.num_variables();
  const std::size_t m = qp_.num_constraints();

  Timer timer;
  MmsimResult result;
  result.setup_seconds = setup_seconds_;

  // Earliest iteration allowed to run the next residual check.
  std::size_t next_check = 0;
  // Polish detection: consecutive unchanged sign-pattern samples, and how
  // many of them the next attempt waits for.
  bool sampled = false;
  std::size_t stable = 0;
  std::size_t wait = kPolishStableSamples;
  for (std::size_t k = 0; k < opts_.max_iterations; ++k) {
    result.final_delta = step(state);
    if (opts_.trace_stride > 0 && k % opts_.trace_stride == 0)
      result.trace.emplace_back(state.iterations, result.final_delta);
    if (k > 0 && result.final_delta < opts_.tolerance) {
      if (!opts_.residual_check) {
        result.converged = true;
        break;
      }
      // The last iteration of the budget always checks, so a solve that
      // converges there is never reported as a failure.
      if (k >= next_check || k + 1 == opts_.max_iterations) {
        PhaseTimer phase_timer(profile_, state.phase.reduction_seconds);
        static obs::Counter& residual_checks =
            obs::counter("mmsim.residual_checks");
        residual_checks.add();
        ++result.residual_checks;
        if (scaled_residual_ok(state.z, state.w)) {
          result.converged = true;
          break;
        }
        next_check = k + kResidualCheckStride;
      }
    }
    // Sample z's sign pattern once per stride; the polish step must fit in
    // the budget.
    if (!opts_.residual_check || (k + 1) % kResidualCheckStride != 0 ||
        k + 2 > opts_.max_iterations)
      continue;
    bool unchanged = sampled;
    state.signs.resize(n + m);
    for (std::size_t i = 0; i < n + m; ++i) {
      const unsigned char sign = state.z[i] > 0.0;
      unchanged = unchanged && state.signs[i] == sign;
      state.signs[i] = sign;
    }
    sampled = true;
    stable = unchanged ? stable + 1 : 0;
    if (stable < wait) continue;
    // No PhaseTimer here: the polish step's own phases are timed by step().
    static obs::Counter& polish_attempts =
        obs::counter("mmsim.polish_attempts");
    polish_attempts.add();
    ++result.polish_attempts;
    if (try_polish(state, &result.final_delta)) {
      static obs::Counter& polished = obs::counter("mmsim.polished");
      polished.add();
      result.polished = true;
      result.converged = true;
      break;
    }
    stable = 0;
    wait *= 2;
  }
  result.iterations = state.iterations;
  {
    static obs::Counter& solves = obs::counter("mmsim.solves");
    static obs::Counter& iterations = obs::counter("mmsim.iterations");
    solves.add();
    iterations.add(state.iterations);
  }

  // Copy (not move) out of the state: its buffers stay alive for the next
  // reset_state() to reuse.
  result.z = state.z;
  result.x.assign(result.z.begin(),
                  result.z.begin() + static_cast<std::ptrdiff_t>(n));
  result.dual.assign(result.z.begin() + static_cast<std::ptrdiff_t>(n),
                     result.z.end());
  result.s.resize(n + m);
  std::copy(state.s1.begin(), state.s1.end(), result.s.begin());
  std::copy(state.s2.begin(), state.s2.end(),
            result.s.begin() + static_cast<std::ptrdiff_t>(n));
  result.phase = state.phase;
  result.solve_seconds = timer.seconds();
  return result;
}

MmsimResult MmsimSolver::solve_from(const Vector& s0) const {
  State state = make_state(s0);
  return run_loop(state);
}

MmsimResult MmsimSolver::solve_in(State& state, const Vector* s0) const {
  reset_state(state, s0);
  return run_loop(state);
}

}  // namespace mch::lcp
