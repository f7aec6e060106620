#include "lcp/qp.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "gen/generator.h"
#include "lcp/lemke.h"
#include "legal/model.h"
#include "legal/row_assign.h"
#include "linalg/sparse.h"

namespace mch::lcp {
namespace {

// The single-row example of the paper's Figure 2: five single-height cells
// in two rows; constraint matrix B has rows
//   x4 - x2 >= w2,  x3 - x1 >= w1,  x5 - x3 >= w3.
StructuredQp figure2_qp() {
  StructuredQp qp;
  for (int i = 0; i < 5; ++i)
    qp.K.add_block(linalg::DenseMatrix::identity(1));
  // GP targets: row 1 holds c2, c4; row 2 holds c1, c3, c5.
  qp.p = {-1.0, -2.0, -4.0, -5.0, -9.0};  // p_i = -x'_i
  linalg::CooMatrix coo(3, 5);
  coo.add(0, 1, -1.0);
  coo.add(0, 3, 1.0);
  coo.add(1, 0, -1.0);
  coo.add(1, 2, 1.0);
  coo.add(2, 2, -1.0);
  coo.add(2, 4, 1.0);
  qp.B = linalg::CsrMatrix::from_coo(coo);
  qp.b = {2.0, 3.0, 2.0};  // w2, w1, w3
  return qp;
}

TEST(StructuredQpTest, Dimensions) {
  const StructuredQp qp = figure2_qp();
  EXPECT_EQ(qp.num_variables(), 5u);
  EXPECT_EQ(qp.num_constraints(), 3u);
  EXPECT_EQ(qp.lcp_size(), 8u);
}

TEST(StructuredQpTest, ObjectiveAtGpPositionsIsMinusHalfNormP) {
  const StructuredQp qp = figure2_qp();
  // At x = x' (= -p), objective = ½‖x‖² − ‖x‖² = −½‖x‖².
  Vector x(5);
  for (std::size_t i = 0; i < 5; ++i) x[i] = -qp.p[i];
  double norm_sq = 0.0;
  for (const double v : x) norm_sq += v * v;
  EXPECT_NEAR(qp.objective(x), -0.5 * norm_sq, 1e-12);
}

TEST(StructuredQpTest, ConstraintViolationDetected) {
  const StructuredQp qp = figure2_qp();
  // All zeros: x4 - x2 = 0 < 2 → violation 2 (b2 = w1 = 3 is the worst).
  EXPECT_DOUBLE_EQ(qp.max_constraint_violation(Vector(5, 0.0)), 3.0);
  // Feasible point.
  EXPECT_DOUBLE_EQ(qp.max_constraint_violation({0, 0, 3, 2, 5}), 0.0);
}

TEST(StructuredQpTest, LcpApplyMatchesDenseAssembly) {
  const StructuredQp qp = figure2_qp();
  const DenseLcp dense = qp.to_dense_lcp();
  Vector z(qp.lcp_size());
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] = 0.3 * static_cast<double>(i) - 1.0;

  Vector via_struct;
  qp.lcp_apply(z, via_struct);
  Vector via_dense;
  dense.A.multiply(z, via_dense);
  for (std::size_t i = 0; i < z.size(); ++i) via_dense[i] += dense.q[i];

  ASSERT_EQ(via_struct.size(), via_dense.size());
  for (std::size_t i = 0; i < z.size(); ++i)
    EXPECT_NEAR(via_struct[i], via_dense[i], 1e-12);
}

// lcp_apply works on z's halves in place; it must round exactly like the
// staged products on copies of x and r, and reuse a caller's buffer.
TEST(StructuredQpTest, LcpApplyIsBitwiseTheStagedProductsInPlace) {
  gen::GeneratorOptions opts;
  opts.seed = 29;
  opts.nets_per_cell = 0.0;
  db::Design design = gen::generate_random_design(60, 12, 0.75, opts);
  const legal::LegalizationModel model =
      legal::build_model(design, legal::assign_rows(design));
  const StructuredQp& qp = model.qp;
  const std::size_t n = qp.num_variables();
  const std::size_t m = qp.num_constraints();
  ASSERT_GT(m, 0u);
  Vector z(n + m);
  for (std::size_t i = 0; i < z.size(); ++i)
    z[i] = 0.37 * static_cast<double>(i % 23) - 2.0;

  const Vector x(z.begin(), z.begin() + static_cast<std::ptrdiff_t>(n));
  const Vector r(z.begin() + static_cast<std::ptrdiff_t>(n), z.end());
  Vector top;
  qp.K.multiply(x, top);
  qp.B.multiply_transpose_add(-1.0, r, top);
  Vector bottom;
  qp.B.multiply(x, bottom);

  Vector w;
  qp.lcp_apply(z, w);
  ASSERT_EQ(w.size(), n + m);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(w[i]),
              std::bit_cast<std::uint64_t>(top[i] + qp.p[i]))
        << "row " << i;
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(w[n + i]),
              std::bit_cast<std::uint64_t>(bottom[i] - qp.b[i]))
        << "row " << n + i;

  const double* buffer = w.data();
  qp.lcp_apply(z, w);
  EXPECT_EQ(w.data(), buffer);
}

TEST(StructuredQpTest, DenseLcpHasSaddleStructure) {
  const StructuredQp qp = figure2_qp();
  const DenseLcp dense = qp.to_dense_lcp();
  const std::size_t n = qp.num_variables();
  const std::size_t m = qp.num_constraints();
  // (1,1) block = K (identity here); (1,2) = -Bᵀ; (2,1) = B; (2,2) = 0.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_DOUBLE_EQ(dense.A(i, j), i == j ? 1.0 : 0.0);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(dense.A(n + r, c), qp.B.at(r, c));
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_DOUBLE_EQ(dense.A(c, n + r), -qp.B.at(r, c));
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c)
      EXPECT_DOUBLE_EQ(dense.A(n + r, n + c), 0.0);
  // q = [p; -b].
  for (std::size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(dense.q[i], qp.p[i]);
  for (std::size_t i = 0; i < m; ++i)
    EXPECT_DOUBLE_EQ(dense.q[n + i], -qp.b[i]);
}

// Theorem 1: the LCP solution's primal part minimizes the QP. Verified by
// solving the dense LCP with Lemke and checking KKT residuals + objective
// against nearby feasible points.
TEST(StructuredQpTest, LemkeSolutionIsQpOptimum) {
  const StructuredQp qp = figure2_qp();
  const LemkeResult lemke = solve_lemke(qp.to_dense_lcp());
  ASSERT_EQ(lemke.status, LemkeStatus::kSolved);
  EXPECT_LT(qp.lcp_residual(lemke.z).max(), 1e-8);

  Vector x(lemke.z.begin(), lemke.z.begin() + 5);
  EXPECT_LE(qp.max_constraint_violation(x), 1e-8);
  const double optimum = qp.objective(x);

  // Any feasible perturbation must not improve the objective.
  const Vector directions[] = {
      {1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 0, 1, 1, 1}, {-1, -1, 0, 0, 0}};
  for (const Vector& d : directions) {
    Vector y = x;
    for (std::size_t i = 0; i < 5; ++i) y[i] += 0.05 * d[i];
    bool feasible = qp.max_constraint_violation(y) <= 1e-12;
    for (const double v : y) feasible = feasible && v >= 0.0;
    if (feasible) {
      EXPECT_GE(qp.objective(y), optimum - 1e-9);
    }
  }
}

TEST(StructuredQpTest, ResidualFlagsViolations) {
  const StructuredQp qp = figure2_qp();
  Vector z(qp.lcp_size(), 0.0);
  z[0] = -1.0;  // negative primal
  const LcpResidual res = qp.lcp_residual(z);
  EXPECT_GE(res.z_negativity, 1.0);
}

}  // namespace
}  // namespace mch::lcp
