#include "lcp/qp.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mch::lcp {

double StructuredQp::objective(const Vector& x) const {
  MCH_CHECK(x.size() == num_variables());
  Vector kx;
  K.multiply(x, kx);
  return 0.5 * linalg::dot(x, kx) + linalg::dot(p, x);
}

double StructuredQp::max_constraint_violation(const Vector& x) const {
  Vector bx;
  B.multiply(x, bx);
  double worst = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    worst = std::max(worst, b[i] - bx[i]);
  return worst;
}

void StructuredQp::lcp_apply(const Vector& z, Vector& y) const {
  const std::size_t n = num_variables();
  const std::size_t m = num_constraints();
  MCH_CHECK(z.size() == n + m);
  MCH_CHECK(K.size() == n && B.rows() == m && B.cols() == n);

  // Reads z's halves x = z[0, n) and r = z[n, n + m) in place and
  // accumulates straight into y, so a reused y allocates nothing. Every
  // element rounds as ((0 + (K x)_i) − (Bᵀ r)_i) + p_i, or (0 + (B x)_i) − b_i
  // on the bottom block.
  y.assign(n + m, 0.0);
  // Top block: K x − Bᵀ r + p.
  K.multiply_add(1.0, z.data(), y.data());
  B.multiply_transpose_add(-1.0, z.data() + n, y.data());
  for (std::size_t i = 0; i < n; ++i) y[i] += p[i];
  // Bottom block: B x − b.
  B.multiply_add(1.0, z.data(), y.data() + n);
  for (std::size_t i = 0; i < m; ++i) y[n + i] -= b[i];
}

LcpResidual StructuredQp::lcp_residual(const Vector& z) const {
  Vector w;
  lcp_apply(z, w);
  LcpResidual res;
  for (std::size_t i = 0; i < z.size(); ++i) {
    res.z_negativity = std::max(res.z_negativity, -z[i]);
    res.w_negativity = std::max(res.w_negativity, -w[i]);
    res.complementarity =
        std::max(res.complementarity, std::abs(z[i] * w[i]));
  }
  return res;
}

DenseLcp StructuredQp::to_dense_lcp() const {
  const std::size_t n = num_variables();
  const std::size_t m = num_constraints();
  DenseLcp lcp;
  lcp.A = linalg::DenseMatrix(n + m, n + m);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) lcp.A(i, j) = K.entry(i, j);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t k = B.row_ptr()[r]; k < B.row_ptr()[r + 1]; ++k) {
      const std::size_t c = B.col_idx()[k];
      const double v = B.values()[k];
      lcp.A(n + r, c) = v;    //  B block
      lcp.A(c, n + r) = -v;   // −Bᵀ block
    }
  lcp.q.assign(n + m, 0.0);
  for (std::size_t i = 0; i < n; ++i) lcp.q[i] = p[i];
  for (std::size_t i = 0; i < m; ++i) lcp.q[n + i] = -b[i];
  return lcp;
}

}  // namespace mch::lcp
