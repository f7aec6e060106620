// Tests of the per-component solve layer: MMSIM through solve_with_recovery
// against the Lemke oracle, the Schur coupling-break mask used by
// sub-problems extracted from a larger system, and the two-rung recovery
// ladder (primary, escalated retry, exhausted).
#include "lcp/solver.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

#include "lcp/lemke.h"

namespace mch::lcp {
namespace {

using linalg::CooMatrix;
using linalg::CsrMatrix;
using linalg::DenseMatrix;

DenseMatrix scalar_block(double value) {
  DenseMatrix block(1, 1);
  block(0, 0) = value;
  return block;
}

/// Three cells in one row with two spacing constraints — a miniature of the
/// legalization QP with an active constraint at the optimum.
StructuredQp chain_qp() {
  StructuredQp qp;
  for (int i = 0; i < 3; ++i) qp.K.add_block(scalar_block(1.0));
  qp.p = {-10.0, -11.0, -20.0};  // targets 10, 11, 20; widths force spread
  CooMatrix coo(2, 3);
  coo.add(0, 0, -1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 1, -1.0);
  coo.add(1, 2, 1.0);
  qp.B = CsrMatrix::from_coo(coo);
  qp.b = {4.0, 4.0};  // cell widths
  return qp;
}

/// Bound-constrained QP (no spacing rows): LCP(p, K) directly.
StructuredQp unconstrained_qp() {
  StructuredQp qp;
  qp.K.add_block(scalar_block(2.0));
  qp.K.add_block(scalar_block(4.0));
  qp.p = {-6.0, 8.0};  // solutions max(0, −p/k) = {3, 0}
  qp.B = CsrMatrix::from_coo(CooMatrix(0, 2));
  return qp;
}

/// The Lemke oracle's primal solution of the QP's KKT LCP.
Vector lemke_x(const StructuredQp& qp) {
  const LemkeResult lemke = solve_lemke(qp.to_dense_lcp());
  EXPECT_EQ(lemke.status, LemkeStatus::kSolved);
  return Vector(lemke.z.begin(),
                lemke.z.begin() +
                    static_cast<std::ptrdiff_t>(qp.num_variables()));
}

TEST(LcpSolverTest, LemkeAgreesWithMmsim) {
  const StructuredQp qp = chain_qp();
  LcpSolverConfig config;
  config.mmsim.tolerance = 1e-10;
  config.mmsim.residual_tolerance = 1e-9;
  const Vector lemke = lemke_x(qp);
  const RecoveredSolve mmsim = solve_with_recovery(qp, config, {});
  ASSERT_EQ(mmsim.rung, RecoveryRung::kPrimary);
  ASSERT_TRUE(mmsim.result.converged);
  ASSERT_EQ(lemke.size(), mmsim.result.x.size());
  for (std::size_t i = 0; i < lemke.size(); ++i)
    EXPECT_NEAR(lemke[i], mmsim.result.x[i], 1e-6) << "x[" << i << "]";
  // The spread forced by the widths: feasibility B x ≥ b holds exactly for
  // the pivoting solver.
  EXPECT_GE(lemke[1] - lemke[0], qp.b[0] - 1e-12);
  EXPECT_GE(lemke[2] - lemke[1], qp.b[1] - 1e-12);
}

// A constraint-free component (a cell alone between obstacles) is a
// bound-constrained QP; MMSIM solves it with an empty dual block.
TEST(LcpSolverTest, MmsimSolvesUnconstrainedQp) {
  const StructuredQp qp = unconstrained_qp();
  const RecoveredSolve solved = solve_with_recovery(qp, {}, {});
  ASSERT_EQ(solved.rung, RecoveryRung::kPrimary);
  ASSERT_TRUE(solved.result.converged);
  ASSERT_EQ(solved.result.x.size(), 2u);
  EXPECT_NEAR(solved.result.x[0], 3.0, 1e-8);
  EXPECT_NEAR(solved.result.x[1], 0.0, 1e-8);
  EXPECT_TRUE(solved.result.dual.empty());
}

TEST(LcpSolverTest, SchurCouplingBreaksZeroTheTridiagonal) {
  const StructuredQp qp = chain_qp();
  const linalg::Tridiagonal full = schur_tridiagonal(qp.K, qp.B);
  // The two rows share variable 1, so the full approximation couples them.
  ASSERT_NE(full.upper(0), 0.0);
  ASSERT_NE(full.lower(0), 0.0);

  // Mark row 1 as not adjacent to row 0 in the (hypothetical) parent
  // ordering: the coupling must be dropped, the diagonal untouched.
  const std::vector<bool> breaks = {false, true};
  const linalg::Tridiagonal broken = schur_tridiagonal(qp.K, qp.B, &breaks);
  EXPECT_EQ(broken.upper(0), 0.0);
  EXPECT_EQ(broken.lower(0), 0.0);
  EXPECT_EQ(broken.diag(0), full.diag(0));
  EXPECT_EQ(broken.diag(1), full.diag(1));
}

TEST(LcpSolverTest, SolveHonorsCouplingBreaks) {
  const StructuredQp qp = chain_qp();
  const std::vector<bool> breaks = {false, true};
  LcpSolverConfig config;
  config.schur_coupling_breaks = &breaks;
  // Solver setup must pick up the mask: the solve iterates exactly as a
  // direct MmsimSolver given the same mask, and the weaker splitting still
  // converges to the oracle's solution.
  const RecoveredSolve result = solve_with_recovery(qp, config, {});
  const MmsimResult direct = MmsimSolver(qp, config.mmsim, &breaks).solve();
  ASSERT_TRUE(result.result.converged);
  EXPECT_EQ(result.result.iterations, direct.iterations);
  const Vector reference = lemke_x(qp);
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_NEAR(result.result.x[i], reference[i], 1e-3) << "x[" << i << "]";
}

// --- recovery ladder -------------------------------------------------------

TEST(RecoveryLadderTest, ConvergedPrimaryIsUntouched) {
  const StructuredQp qp = chain_qp();
  const RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, RecoveryOptions{});
  const MmsimResult direct = MmsimSolver(qp).solve();
  EXPECT_EQ(recovered.rung, RecoveryRung::kPrimary);
  EXPECT_EQ(recovered.attempts, 1u);
  EXPECT_EQ(recovered.wasted_iterations, 0u);
  EXPECT_FALSE(recovered.warm_started);
  ASSERT_TRUE(recovered.result.converged);
  // Recovery must not perturb the success path: bitwise-equal result.
  EXPECT_EQ(recovered.result.iterations, direct.iterations);
  EXPECT_EQ(recovered.result.residual_checks, direct.residual_checks);
  ASSERT_EQ(recovered.result.x.size(), direct.x.size());
  for (std::size_t i = 0; i < direct.x.size(); ++i)
    EXPECT_EQ(recovered.result.x[i], direct.x[i]) << "x[" << i << "]";
  ASSERT_EQ(recovered.result.dual.size(), direct.dual.size());
  for (std::size_t i = 0; i < direct.dual.size(); ++i)
    EXPECT_EQ(recovered.result.dual[i], direct.dual[i]) << "dual[" << i << "]";
}

TEST(RecoveryLadderTest, ForcedFailureRecoversAtEscalatedRung) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 1;
  const RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kEscalated);
  EXPECT_EQ(recovered.attempts, 2u);
  EXPECT_GT(recovered.wasted_iterations, 0u);
  ASSERT_TRUE(recovered.result.converged);
  const Vector reference = lemke_x(qp);
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_NEAR(recovered.result.x[i], reference[i], 1e-3);
}

// The escalated retry resumes from the failed iterate the primary attempt
// stored in the slot, at the primary's γ, and stores its own final iterate
// back. Here the primary converged and was failed by injection, so the
// retry starts at the fixed point and stops within one residual-check
// stride; a resume that misread the iterate would start elsewhere.
TEST(RecoveryLadderTest, EscalatedRetryResumesFromTheFailedIterate) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 1;
  SolverWorkspace workspace;
  workspace.prepare(1);
  SolverWorkspace::Slot& slot = workspace.slot(0);
  const RecoveredSolve recovered = solve_with_recovery(
      qp, LcpSolverConfig{}, recovery, &slot, /*warm_start=*/false);
  EXPECT_EQ(recovered.rung, RecoveryRung::kEscalated);
  EXPECT_TRUE(recovered.warm_started);
  EXPECT_TRUE(slot.has_warm(qp.num_variables(), qp.num_constraints()));
  EXPECT_LE(recovered.result.iterations, 16u);
  EXPECT_GT(recovered.wasted_iterations, 16u);
}

TEST(RecoveryLadderTest, ExhaustedLadderReportsEveryAttempt) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 100;
  const RecoveredSolve recovered =
      solve_with_recovery(qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kExhausted);
  // Primary and escalated: the ladder has two rungs.
  EXPECT_EQ(recovered.attempts, 2u);
  EXPECT_GT(recovered.wasted_iterations, 0u);
}

// A genuine budget miss, not injected: half the iterations the solve needs
// fail the primary rung, and the ×4 escalated budget, resumed from the
// failed iterate, converges.
TEST(RecoveryLadderTest, HalvedIterationBudgetRecoversByEscalation) {
  const StructuredQp qp = chain_qp();
  const MmsimResult full = MmsimSolver(qp).solve();
  ASSERT_TRUE(full.converged);
  ASSERT_GE(full.iterations, 4u);
  LcpSolverConfig config;
  config.mmsim.max_iterations = full.iterations / 2;
  const RecoveredSolve recovered =
      solve_with_recovery(qp, config, RecoveryOptions{});
  EXPECT_EQ(recovered.rung, RecoveryRung::kEscalated);
  ASSERT_TRUE(recovered.result.converged);
  EXPECT_EQ(recovered.wasted_iterations, config.mmsim.max_iterations);
  const Vector reference = lemke_x(qp);
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_NEAR(recovered.result.x[i], reference[i], 1e-3);
}

// A genuine miss of both budgets, not injected: one primary iteration and
// the ×4 escalated budget of four are far short of the solve, so the ladder
// is exhausted after exactly those five iterations, and the escalated
// attempt's iterate is still left in the slot.
TEST(RecoveryLadderTest, OneIterationBudgetExhaustsBothRungs) {
  const StructuredQp qp = chain_qp();
  ASSERT_GT(MmsimSolver(qp).solve().iterations, 16u);
  LcpSolverConfig config;
  config.mmsim.max_iterations = 1;
  SolverWorkspace workspace;
  workspace.prepare(1);
  SolverWorkspace::Slot& slot = workspace.slot(0);
  const RecoveredSolve recovered =
      solve_with_recovery(qp, config, RecoveryOptions{}, &slot);
  EXPECT_EQ(recovered.rung, RecoveryRung::kExhausted);
  EXPECT_EQ(recovered.attempts, 2u);
  EXPECT_EQ(recovered.wasted_iterations, 1u + 4u);
  EXPECT_TRUE(slot.has_warm(qp.num_variables(), qp.num_constraints()));
}

// A warm start from the slot's converged payload begins at the fixed point:
// the primary rung accepts it within one residual-check stride (16
// iterations) and lands on the cold solve's optimum.
TEST(RecoveryLadderTest, WarmStartFromTheSolutionStopsWithinOneStride) {
  const StructuredQp qp = chain_qp();
  SolverWorkspace workspace;
  workspace.prepare(1);
  SolverWorkspace::Slot& slot = workspace.slot(0);
  const RecoveredSolve cold =
      solve_with_recovery(qp, LcpSolverConfig{}, RecoveryOptions{}, &slot);
  ASSERT_EQ(cold.rung, RecoveryRung::kPrimary);
  EXPECT_FALSE(cold.warm_started);
  ASSERT_GT(cold.result.iterations, 16u);
  const RecoveredSolve warm = solve_with_recovery(
      qp, LcpSolverConfig{}, RecoveryOptions{}, &slot, /*warm_start=*/true);
  EXPECT_EQ(warm.rung, RecoveryRung::kPrimary);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.attempts, 1u);
  ASSERT_TRUE(warm.result.converged);
  EXPECT_LE(warm.result.iterations, 16u);
  ASSERT_EQ(warm.result.x.size(), cold.result.x.size());
  for (std::size_t i = 0; i < cold.result.x.size(); ++i)
    EXPECT_NEAR(warm.result.x[i], cold.result.x[i], 1e-9) << "x[" << i << "]";
}

// A payload stored by a solve of another shape is not a warm start: the
// solve runs cold, bitwise identical to a direct MmsimSolver, and replaces
// the payload with one of its own shape.
TEST(RecoveryLadderTest, WarmStartOfAnotherShapeRunsCold) {
  const StructuredQp other = unconstrained_qp();
  const StructuredQp qp = chain_qp();
  SolverWorkspace workspace;
  workspace.prepare(1);
  SolverWorkspace::Slot& slot = workspace.slot(0);
  solve_with_recovery(other, LcpSolverConfig{}, RecoveryOptions{}, &slot);
  ASSERT_TRUE(slot.has_warm(other.num_variables(), other.num_constraints()));
  const RecoveredSolve recovered = solve_with_recovery(
      qp, LcpSolverConfig{}, RecoveryOptions{}, &slot, /*warm_start=*/true);
  const MmsimResult direct = MmsimSolver(qp).solve();
  EXPECT_EQ(recovered.rung, RecoveryRung::kPrimary);
  EXPECT_FALSE(recovered.warm_started);
  EXPECT_EQ(recovered.result.iterations, direct.iterations);
  ASSERT_EQ(recovered.result.x.size(), direct.x.size());
  for (std::size_t i = 0; i < direct.x.size(); ++i)
    EXPECT_EQ(recovered.result.x[i], direct.x[i]) << "x[" << i << "]";
  EXPECT_TRUE(slot.has_warm(qp.num_variables(), qp.num_constraints()));
  EXPECT_FALSE(slot.has_warm(other.num_variables(), other.num_constraints()));
}

// The rung names label the recovery.attempts / recovery.solved counters
// that the metrics snapshot exports and the legalizer tests read.
TEST(RecoveryLadderTest, RungNames) {
  EXPECT_STREQ(to_string(RecoveryRung::kPrimary), "primary");
  EXPECT_STREQ(to_string(RecoveryRung::kEscalated), "escalated");
  EXPECT_STREQ(to_string(RecoveryRung::kExhausted), "exhausted");
}

TEST(RecoveryLadderTest, EnvironmentResolvesForcedFailures) {
  const char* saved = std::getenv("MCH_FORCE_SOLVER_FAILURE");
  const std::string saved_value = saved ? saved : "";

  ::setenv("MCH_FORCE_SOLVER_FAILURE", "3", 1);
  EXPECT_EQ(resolve_recovery_options().forced_failures, 3u);
  // Explicit settings win over the ambient fault-injection variant.
  RecoveryOptions explicit_options;
  explicit_options.forced_failures = 7;
  EXPECT_EQ(resolve_recovery_options(explicit_options).forced_failures, 7u);
  ::unsetenv("MCH_FORCE_SOLVER_FAILURE");
  EXPECT_EQ(resolve_recovery_options().forced_failures, 0u);

  if (saved)
    ::setenv("MCH_FORCE_SOLVER_FAILURE", saved_value.c_str(), 1);
  else
    ::unsetenv("MCH_FORCE_SOLVER_FAILURE");
}

}  // namespace
}  // namespace mch::lcp
