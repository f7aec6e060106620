// Modulus-based matrix splitting iteration method (MMSIM) for the
// legalization KKT LCP — Algorithm 1 of the paper.
//
// The LCP(q, A) with A = [K −Bᵀ; B 0] is solved with the splitting (paper
// Eq. (16)):
//
//     M = [ K/β*      0    ]      N = M − A = [ (1/β*−1)K   Bᵀ  ]
//         [  B     D/θ*    ]                  [     0      D/θ* ]
//
// where D = tridiag(B K⁻¹ Bᵀ) approximates the Schur complement. With
// Ω = I, each iteration solves
//
//     (M + I) s⁽ᵏ⁺¹⁾ = N s⁽ᵏ⁾ + (I − A)|s⁽ᵏ⁾| − γ q,
//     z⁽ᵏ⁺¹⁾ = (|s⁽ᵏ⁺¹⁾| + s⁽ᵏ⁺¹⁾) / γ,
//
// and M + I is block lower triangular: the (1,1) block K/β* + I is block
// diagonal (one small block per cell — solved with precomputed block
// inverses in O(n)) and the (2,2) block D/θ* + I is tridiagonal (Thomas
// solve in O(m)). Every iteration is therefore linear-time in the circuit
// size; this is the paper's central efficiency claim.
//
// The element-wise modulus stages and all matrix products run on the global
// parallel runtime (src/runtime/) and are bitwise-deterministic for any
// thread count; the Thomas solve is the one inherently sequential stage.
//
// Convergence (paper Theorem 2): guaranteed for 0 < β* < 2 and
// 0 < θ* < 2(2 − β*)/(β*·μ_max), μ_max the largest eigenvalue of
// Γ = D⁻¹ B K⁻¹ Bᵀ. suggest_theta() estimates that bound by power
// iteration; the paper's fixed choice β* = θ* = 0.5 is the default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lcp/qp.h"
#include "linalg/tridiagonal.h"

namespace mch::lcp {

/// Default for MmsimOptions::fused: false when the MCH_FUSED_KERNELS
/// environment variable is "0"/"off"/"false", true otherwise. The fused
/// kernels are bitwise identical to the reference path, so the knob exists
/// for A/B benchmarking and the .fused-off ctest variant, not correctness.
bool fused_kernels_default();

/// Which splitting builds M (ablation of the paper's Eq. 16 choice).
enum class MmsimSplitting {
  /// The paper's block-Gauss-Seidel form: M = [K/β* 0; B D/θ*] — the dual
  /// update sees the *current* primal iterate through the B block.
  kGaussSeidel,
  /// Block-Jacobi ablation: M = [K/β* 0; 0 D/θ*] — primal and dual relax
  /// independently. Converges markedly slower (see bench/ablation_parameters),
  /// demonstrating why the paper couples the blocks.
  kJacobi,
};

struct MmsimOptions {
  double beta = 0.5;        ///< β* in (0, 2); paper uses 0.5
  double theta = 0.5;       ///< θ* > 0; paper uses 0.5
  MmsimSplitting splitting = MmsimSplitting::kGaussSeidel;
  double gamma = 2.0;       ///< γ > 0 of the modulus transform
  /// Stop when ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞ < tolerance. 1e-4 is far below the site
  /// pitch, so the Tetris allocation absorbs it; optimality tests tighten
  /// this to 1e-8.
  double tolerance = 1e-4;
  std::size_t max_iterations = 20000;
  /// The successive-difference criterion alone can fire prematurely when
  /// the iteration's contraction factor is close to 1 (e.g. θ* near the
  /// convergence boundary): steps become tiny long before the fixed point.
  /// When enabled, a candidate stop is accepted only if the scaled LCP
  /// residual (feasibility + complementarity) is also below
  /// residual_tolerance; otherwise the iteration continues. The residual
  /// costs about a whole iteration, so it is not re-checked on every
  /// candidate: it runs at the first iteration with a small delta, then
  /// no sooner than 16 iterations after each failed check, and always on
  /// the last iteration of the budget. A solve therefore stops at most 15
  /// iterations after the first iteration at which both tests pass (when
  /// they keep passing), and never reports converged without both.
  ///
  /// The residual check also enables the active-set polish (see
  /// MmsimSolver::try_polish): once z's sign pattern holds still, one exact
  /// KKT solve on that active set replaces the remaining iterations,
  /// accepted only when its iterate passes both tests. A polished solve
  /// stops no later than the unpolished one would; a rejected attempt
  /// leaves the trajectory bitwise untouched.
  bool residual_check = true;
  double residual_tolerance = 1e-7;
  /// Record ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞ every `trace_stride` iterations into
  /// MmsimResult::trace (0 = off). Used by the convergence bench/plots.
  std::size_t trace_stride = 0;
  /// Run the fused single-sweep iteration kernels (two parallel sweeps per
  /// half-step, no abs1/abs2/rhs1 intermediates) instead of the retained
  /// stage-by-stage reference path. Both produce bitwise-identical iterates
  /// at every thread count; fused is ~2× faster on large systems.
  bool fused = fused_kernels_default();
};

/// Wall-clock breakdown of a solve by kernel phase, accumulated across
/// step() calls. Only collected for systems of at least 256 LCP variables —
/// timer reads would dominate the arithmetic of the many tiny component
/// solves the partitioned legalizer runs, and those contribute nothing to
/// the totals anyway.
struct MmsimPhaseTimes {
  double kernel_seconds = 0.0;     ///< element-wise modulus/rhs/z sweeps
  double spmv_seconds = 0.0;       ///< standalone matrix products + block solves
  double thomas_seconds = 0.0;     ///< tridiagonal (D/θ* + I) solves
  double reduction_seconds = 0.0;  ///< delta folds of the stopping rule
  double total() const {
    return kernel_seconds + spmv_seconds + thomas_seconds + reduction_seconds;
  }
  void accumulate(const MmsimPhaseTimes& other) {
    kernel_seconds += other.kernel_seconds;
    spmv_seconds += other.spmv_seconds;
    thomas_seconds += other.thomas_seconds;
    reduction_seconds += other.reduction_seconds;
  }
};

struct MmsimResult {
  Vector x;                   ///< primal variables (cell/subcell positions)
  Vector dual;                ///< multipliers of the spacing constraints
  Vector z;                   ///< full LCP solution [x; dual]
  /// Final splitting iterate [s1; s2] — the warm-start vector for a later
  /// solve of the same (or a nearby) problem via solve_from()/solve_in().
  Vector s;
  MmsimPhaseTimes phase;      ///< per-phase timing (see MmsimPhaseTimes)
  std::size_t iterations = 0;
  /// Scaled-residual evaluations the stopping rule ran (see
  /// MmsimOptions::residual_check).
  std::size_t residual_checks = 0;
  /// Active-set polish attempts, and whether one was accepted (the solve
  /// then stopped on it; see MmsimSolver::try_polish).
  std::size_t polish_attempts = 0;
  bool polished = false;
  bool converged = false;
  double final_delta = 0.0;   ///< last ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞
  double setup_seconds = 0.0;
  double solve_seconds = 0.0;
  /// (iteration, delta) samples when options.trace_stride > 0.
  std::vector<std::pair<std::size_t, double>> trace;
};

class MmsimSolver {
 public:
  /// Prepares the splitting for the given QP: builds the shifted block
  /// inverses of K/β* + I and the tridiagonal D/θ* + I. The QP must outlive
  /// the solver.
  ///
  /// `schur_coupling_breaks` (optional, size = #constraints) marks rows
  /// whose tridiagonal coupling to the *preceding* row must be dropped from
  /// D. A sub-problem extracted from a larger system passes the rows that
  /// were not adjacent in the parent ordering, so the sub-solve iterates
  /// exactly as the parent solver would on those rows.
  MmsimSolver(const StructuredQp& qp, const MmsimOptions& options = {},
              const std::vector<bool>* schur_coupling_breaks = nullptr);

  /// Runs Algorithm 1 from s⁽⁰⁾ = 0.
  MmsimResult solve() const;

  /// Runs Algorithm 1 from the given start vector s⁽⁰⁾ (size lcp_size()).
  MmsimResult solve_from(const Vector& s0) const;

  /// Iteration state for the incremental step() API, which
  /// solve_from()/solve_in() run on. States are plain buffer bundles: a
  /// SolverWorkspace slot keeps one alive across solves so reset_state()
  /// can reuse its capacity.
  struct State {
    Vector z;                 ///< current iterate [x; dual] (modulus image)
    std::size_t iterations = 0;
    MmsimPhaseTimes phase;    ///< timing accumulated by step()

   private:
    friend class MmsimSolver;
    Vector s1, s2;            ///< splitting state, primal / dual parts
    Vector rhs2, new_s1, new_s2;  ///< scratch of both step paths
    /// Scratch of the reference path only (sized by its first step).
    Vector z_prev, abs1, abs2, rhs1;
    Vector thomas_d;          ///< Thomas forward-sweep scratch
    Vector w;                 ///< A z + q of the residual check
    // Active-set polish (try_polish): z's sign pattern at the last sample,
    // and the iterate a rejected attempt restores. The linear algebra's
    // scratch is per thread instead (see solve_active_set), so the many
    // resident states of a workspace do not each carry it.
    std::vector<unsigned char> signs;
    Vector saved_s1, saved_s2, saved_z;
  };

  /// Fresh state at s⁽⁰⁾ = 0.
  State make_state() const;
  /// Fresh state at the given s⁽⁰⁾ (size lcp_size()).
  State make_state(const Vector& s0) const;

  /// Re-initializes `state` in place at s⁽⁰⁾ = *s0 (zero when null),
  /// reusing the buffers' capacity — no allocation when the shapes repeat.
  /// Equivalent to overwriting with make_state().
  void reset_state(State& state, const Vector* s0 = nullptr) const;

  /// Runs Algorithm 1 on caller-owned buffers: reset_state(state, s0), then
  /// the MmsimOptions stopping rule. Bitwise identical to solve_from() for
  /// the same s0; the point is buffer reuse across solves (SolverWorkspace).
  MmsimResult solve_in(State& state, const Vector* s0 = nullptr) const;

  /// Advances one modulus iteration and returns ‖z⁽ᵏ⁾ − z⁽ᵏ⁻¹⁾‖∞. The
  /// caller owns the stopping rule (solve_from() applies the tolerance +
  /// residual_check policy in MmsimOptions).
  double step(State& state) const;

  /// Active-set polish of the current iterate. Takes the active set from
  /// z's sign pattern — F = {i < n : x_i > 0} free variables, J = {r :
  /// y_r > 0} tight rows — and solves the KKT system restricted to it
  /// exactly:
  ///
  ///     S_J y_J = b_J + B_J K_F⁻¹ p_F,   S_J = B_J K_F⁻¹ B_Jᵀ,
  ///     x_F = K_F⁻¹ (B_Jᵀ y_J − p_F),    every other entry of z = 0.
  ///
  /// K_F⁻¹ is block diagonal (one small block per cell), so S_J splits
  /// into independent clusters of rows coupled through shared cells, each
  /// factored by its own dense Cholesky; no |J|×|J| matrix is formed. The
  /// candidate is accepted only if it passes the scaled residual test, and
  /// if one step() from its modulus fixed point s = γ(z − w)/2 (w = A z + q)
  /// has delta < tolerance and passes the residual test again: the state
  /// then holds that stepped iterate, one iteration later. Otherwise —
  /// a non-positive pivot, a cluster over the size cap, or a failed
  /// test — s, z and the iteration count are restored bitwise and false
  /// is returned. The active-set solve is serial and reads only z's
  /// signs; nothing allocates once the state and thread have seen the
  /// shape. On acceptance `*delta` (when given) receives the step's delta.
  /// run_loop calls this when the sign pattern holds still (only with
  /// residual_check on).
  bool try_polish(State& state, double* delta = nullptr) const;

  /// The tridiagonal Schur approximation D = tridiag(B K⁻¹ Bᵀ).
  const linalg::Tridiagonal& schur_tridiagonal() const { return d_; }

  /// Estimates the convergence bound 2(2−β*)/(β*·μ_max) of Theorem 2 via
  /// power iteration on Γ = D⁻¹ B K⁻¹ Bᵀ, and returns a θ* inside it.
  /// Theorem 2's bound assumes the exact Schur complement; with the
  /// tridiagonal approximation D the admissible range is empirically
  /// narrower (see bench/ablation_parameters), so the suggestion is
  /// additionally capped at the paper's validated 0.5 — auto-θ exists to
  /// *shrink* θ* on unusual instances, never to enlarge it. Returns
  /// options.theta unchanged when m = 0.
  double suggest_theta() const;

  /// μ_max estimate of Γ = D⁻¹ B K⁻¹ Bᵀ (power iteration).
  double estimate_mu_max() const;

 private:
  /// Writes the active-set solution for the sign pattern `signs` into z;
  /// false when a cluster is too large or not positive definite.
  bool solve_active_set(const std::vector<unsigned char>& signs,
                        Vector& z) const;

  /// True when the scaled LCP residual of z is below residual_tolerance.
  /// `w` is scratch for A z + q (reused, so a check allocates nothing).
  bool scaled_residual_ok(const Vector& z, Vector& w) const;

  /// The retained stage-by-stage iteration (opts_.fused == false).
  double step_reference(State& state) const;
  /// The fused single-sweep iteration; bitwise equal to step_reference.
  double step_fused(State& state) const;
  /// step_fused body, specialized on whether the fixed-width-2 gather
  /// tables are in use (kGather2 = true compiles the B/Bᵀ gathers as
  /// constant-trip-count loops with no per-row branch).
  template <bool kGather2>
  double step_fused_impl(State& state) const;
  /// Iteration loop + result packaging shared by solve_from()/solve_in().
  MmsimResult run_loop(State& state) const;

  const StructuredQp& qp_;
  MmsimOptions opts_;
  linalg::BlockDiagMatrix shifted_k_;  ///< K/β* + I with block inverses
  linalg::Tridiagonal d_;              ///< tridiag(B K⁻¹ Bᵀ)
  linalg::Tridiagonal shifted_d_;      ///< D/θ* + I
  /// Thomas factorization of shifted_d_, computed once at setup. Both step
  /// paths solve through it (required for their bitwise equality — see
  /// TridiagonalFactorization on why it rounds differently from
  /// Tridiagonal::solve).
  linalg::TridiagonalFactorization shifted_d_lu_;
  /// Cached Bᵀ view, prebuilt at construction so the fused kernels gather
  /// through it without the per-call lock of multiply_transpose_add.
  const linalg::CsrMatrix* bt_ = nullptr;
  /// Per-variable flag: 1 when the variable belongs to a non-1×1 K block
  /// (handled by the block sweep of the fused kernel instead of the flat
  /// scalar sweep).
  std::vector<unsigned char> general_var_;
  /// Fixed-width-2 (padded ELL / SoA) gather tables for the fused sweeps:
  /// the CsrGather2 views cached on B and its transpose (see csr.h), held
  /// when every B and Bᵀ row has at most two entries — always true for the
  /// pairwise spacing constraints this solver exists for. Short rows are
  /// padded with value 0.0 *after* their real entries, so each gather folds
  /// the same values in the same order as the CSR loop plus trailing ±0
  /// terms. Those padding terms can at most flip the sign of an
  /// exactly-zero s entry (never a z bit — see step_fused_impl), which is
  /// below the solver's bitwise contract on z/x/dual. uint32 columns halve
  /// the index traffic of the hot sweeps; the split v0/v1 slot arrays are
  /// what the SIMD sweep kernels (lcp/mmsim_kernels.h) load directly.
  bool gather2_ = false;
  const linalg::CsrGather2* bt_g2_ = nullptr;
  const linalg::CsrGather2* b_g2_ = nullptr;
  /// Flattened copies of the non-1×1 K blocks for the fused block sweep
  /// (built only for fused solvers). Block g of general_block_indices()
  /// owns gb_vals_[gb_data_[g] .. gb_data_[g] + 2·bn²): its K block
  /// (row-major, bn = gb_dim_[g]) followed by the block's inverse from
  /// shifted_k_. One contiguous stream instead of two heap-scattered
  /// DenseMatrix objects per block — same values, same arithmetic order.
  std::vector<std::size_t> gb_off_;
  std::vector<std::uint32_t> gb_dim_;
  std::vector<std::size_t> gb_data_;
  Vector gb_vals_;
  /// Largest non-1×1 block dimension — sizes the per-thread block scratch.
  std::size_t max_general_rows_ = 0;
  /// Collect MmsimPhaseTimes. Disabled for tiny systems, where the timer
  /// reads would rival the arithmetic (see MmsimPhaseTimes).
  bool profile_ = false;
  double setup_seconds_ = 0.0;
};

/// Computes D = tridiag(B K⁻¹ Bᵀ) directly from the block-diagonal inverse
/// of K. Exposed for tests (validated against the paper's Sherman–Morrison
/// closed form for all-double-height designs). When `coupling_breaks` is
/// given (size = #rows), rows flagged true get zero coupling to their
/// predecessor — see the MmsimSolver constructor.
linalg::Tridiagonal schur_tridiagonal(
    const linalg::BlockDiagMatrix& k, const linalg::CsrMatrix& b,
    const std::vector<bool>* coupling_breaks = nullptr);

}  // namespace mch::lcp
