// Tridiagonal matrices and the Thomas solve.
//
// The MMSIM splitting approximates the Schur complement B·K⁻¹·Bᵀ by its
// tridiagonal part D, so the (2,2) block of every per-iteration linear solve
// is (D/θ* + I) — a tridiagonal system solved in O(m) by the Thomas
// algorithm. The algorithm is stable here because the systems we feed it are
// symmetric positive definite (D is the tridiagonal part of an SPD matrix
// shifted by +I).
#pragma once

#include <cstddef>

#include "linalg/vector_ops.h"

namespace mch::linalg {

/// Symmetric-storage-free tridiagonal matrix with independent bands.
class Tridiagonal {
 public:
  /// Zero matrix of size n.
  explicit Tridiagonal(std::size_t n = 0)
      : diag_(n, 0.0),
        lower_(n > 0 ? n - 1 : 0, 0.0),
        upper_(n > 0 ? n - 1 : 0, 0.0) {}

  std::size_t size() const { return diag_.size(); }

  double& diag(std::size_t i) { return diag_[i]; }
  double diag(std::size_t i) const { return diag_[i]; }
  /// Sub-diagonal entry (i+1, i), 0 <= i < n-1.
  double& lower(std::size_t i) { return lower_[i]; }
  double lower(std::size_t i) const { return lower_[i]; }
  /// Super-diagonal entry (i, i+1), 0 <= i < n-1.
  double& upper(std::size_t i) { return upper_[i]; }
  double upper(std::size_t i) const { return upper_[i]; }

  /// Whole bands, for kernels that stream the matrix (lcp/mmsim_kernels.h).
  const Vector& diag_data() const { return diag_; }
  const Vector& lower_data() const { return lower_; }
  const Vector& upper_data() const { return upper_; }

  /// Returns alpha * this + beta * I as a new matrix.
  Tridiagonal scaled_plus_identity(double alpha, double beta) const;

  /// y = T x.
  void multiply(const Vector& x, Vector& y) const;

  /// Solves T x = rhs by the Thomas algorithm. Requires T nonsingular
  /// without pivoting (guaranteed for the SPD-shifted systems used here).
  /// Returns false if a pivot underflows.
  bool solve(const Vector& rhs, Vector& x) const;

  /// solve() with caller-provided forward-sweep scratch (modified super-
  /// diagonal and rhs), so iterative callers pay no per-solve allocation
  /// once the buffers have grown to size. Arithmetic — and therefore the
  /// result — is bitwise identical to solve().
  bool solve_with(const Vector& rhs, Vector& x, Vector& scratch_c,
                  Vector& scratch_d) const;

 private:
  Vector diag_;
  Vector lower_;
  Vector upper_;
};

/// Precomputed Thomas factorization for solving against one tridiagonal
/// matrix many times (MMSIM solves (D/θ* + I) x = rhs every iteration with
/// a constant matrix). factor() runs the pivot recurrence once; solve()
/// then runs the forward sweep as
///
///     d'[i] = rhs[i]·(1/pivot[i]) − (lower[i−1]/pivot[i])·d'[i−1]
///
/// with both coefficients precomputed, so the serial dependency chain per
/// row is one multiply-subtract instead of a multiply-subtract-divide —
/// the division latency leaves the critical path. This is an algebraic
/// rearrangement of the classic recurrence: same factorization, different
/// rounding, so results differ from Tridiagonal::solve() in the last ulps
/// (callers that advertise bitwise contracts must use one or the other
/// consistently; MMSIM uses the factorization in both its reference and
/// fused paths).
class TridiagonalFactorization {
 public:
  TridiagonalFactorization() = default;

  /// Factors `t`. Returns false (leaving the factorization invalid) if a
  /// pivot underflows; `t` itself is not retained.
  bool factor(const Tridiagonal& t);

  bool valid() const { return valid_; }
  std::size_t size() const { return inv_pivot_.size(); }

  /// Solves T x = rhs using the precomputed coefficients. `scratch` holds
  /// the forward-sweep values; no allocation once it has grown to size.
  void solve(const Vector& rhs, Vector& x, Vector& scratch) const;

 private:
  Vector c_prime_;    ///< upper[i]/pivot[i], size n−1
  Vector inv_pivot_;  ///< 1/pivot[i], size n
  Vector g_;          ///< lower[i−1]/pivot[i] (g_[0] = 0), size n
  bool valid_ = false;
};

}  // namespace mch::linalg
