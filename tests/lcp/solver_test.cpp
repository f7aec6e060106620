// Tests of the pluggable LcpSolver layer: the factory, the three adapters
// agreeing on solutions, structural guards, and the Schur coupling-break
// mask used by sub-problems extracted from a larger system.
#include "lcp/solver.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <string>

#include "util/check.h"

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

TEST(LcpSolverTest, FactoryReturnsRequestedKind) {
  const StructuredQp qp = chain_qp();
  EXPECT_EQ(make_lcp_solver(LcpSolverKind::kMmsim, qp)->kind(),
            LcpSolverKind::kMmsim);
  EXPECT_EQ(make_lcp_solver(LcpSolverKind::kLemke, qp)->kind(),
            LcpSolverKind::kLemke);
  const StructuredQp free_qp = unconstrained_qp();
  EXPECT_EQ(make_lcp_solver(LcpSolverKind::kPsor, free_qp)->kind(),
            LcpSolverKind::kPsor);
}

TEST(LcpSolverTest, ToStringNames) {
  EXPECT_STREQ(to_string(LcpSolverKind::kMmsim), "mmsim");
  EXPECT_STREQ(to_string(LcpSolverKind::kPsor), "psor");
  EXPECT_STREQ(to_string(LcpSolverKind::kLemke), "lemke");
}

TEST(LcpSolverTest, MmsimAdapterMatchesDirectSolver) {
  const StructuredQp qp = chain_qp();
  LcpSolverConfig config;
  const LcpSolveResult adapted =
      make_lcp_solver(LcpSolverKind::kMmsim, qp, config)->solve();
  const MmsimResult direct = MmsimSolver(qp, config.mmsim).solve();
  EXPECT_TRUE(adapted.converged);
  EXPECT_EQ(adapted.iterations, direct.iterations);
  EXPECT_EQ(adapted.residual_checks, direct.residual_checks);
  ASSERT_EQ(adapted.x.size(), direct.x.size());
  for (std::size_t i = 0; i < adapted.x.size(); ++i)
    EXPECT_EQ(adapted.x[i], direct.x[i]) << "x[" << i << "]";
  ASSERT_EQ(adapted.dual.size(), direct.dual.size());
  for (std::size_t i = 0; i < adapted.dual.size(); ++i)
    EXPECT_EQ(adapted.dual[i], direct.dual[i]) << "dual[" << i << "]";
}

TEST(LcpSolverTest, LemkeAgreesWithMmsim) {
  const StructuredQp qp = chain_qp();
  LcpSolverConfig config;
  config.mmsim.tolerance = 1e-10;
  config.mmsim.residual_tolerance = 1e-9;
  const LcpSolveResult lemke =
      make_lcp_solver(LcpSolverKind::kLemke, qp, config)->solve();
  const LcpSolveResult mmsim =
      make_lcp_solver(LcpSolverKind::kMmsim, qp, config)->solve();
  ASSERT_TRUE(lemke.converged);
  ASSERT_TRUE(mmsim.converged);
  ASSERT_EQ(lemke.x.size(), mmsim.x.size());
  for (std::size_t i = 0; i < lemke.x.size(); ++i)
    EXPECT_NEAR(lemke.x[i], mmsim.x[i], 1e-6) << "x[" << i << "]";
  // The spread forced by the widths: feasibility B x ≥ b holds exactly for
  // the pivoting solver.
  EXPECT_GE(lemke.x[1] - lemke.x[0], qp.b[0] - 1e-12);
  EXPECT_GE(lemke.x[2] - lemke.x[1], qp.b[1] - 1e-12);
}

TEST(LcpSolverTest, PsorSolvesUnconstrainedQp) {
  const StructuredQp qp = unconstrained_qp();
  const LcpSolveResult result =
      make_lcp_solver(LcpSolverKind::kPsor, qp)->solve();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.x.size(), 2u);
  EXPECT_NEAR(result.x[0], 3.0, 1e-8);
  EXPECT_NEAR(result.x[1], 0.0, 1e-8);
  EXPECT_TRUE(result.dual.empty());
}

TEST(LcpSolverTest, PsorRejectsConstrainedQp) {
  const StructuredQp qp = chain_qp();
  EXPECT_THROW(make_lcp_solver(LcpSolverKind::kPsor, qp), CheckError);
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

TEST(LcpSolverTest, MmsimAdapterHonorsCouplingBreaks) {
  const StructuredQp qp = chain_qp();
  const std::vector<bool> breaks = {false, true};
  LcpSolverConfig config;
  config.schur_coupling_breaks = &breaks;
  // Solver setup must pick up the mask (observable through the weaker
  // splitting still converging to the same solution).
  const LcpSolveResult result =
      make_lcp_solver(LcpSolverKind::kMmsim, qp, config)->solve();
  const LcpSolveResult reference =
      make_lcp_solver(LcpSolverKind::kLemke, qp)->solve();
  ASSERT_TRUE(result.converged);
  for (std::size_t i = 0; i < result.x.size(); ++i)
    EXPECT_NEAR(result.x[i], reference.x[i], 1e-3) << "x[" << i << "]";
}

// --- escalation ladder -----------------------------------------------------

/// Ladder-shape tests pin fused kernels ON so the kReference (unfused) rung
/// exists regardless of the ambient MCH_FUSED_KERNELS (.fused-off variant):
/// with an already-unfused primary the ladder rightly skips that rung, which
/// would shift every attempt count below.
LcpSolverConfig fused_config() {
  LcpSolverConfig config;
  config.mmsim.fused = true;
  return config;
}

TEST(RecoveryLadderTest, ConvergedPrimaryIsUntouched) {
  const StructuredQp qp = chain_qp();
  const RecoveredSolve recovered = solve_with_recovery(
      LcpSolverKind::kMmsim, qp, LcpSolverConfig{}, RecoveryOptions{});
  const LcpSolveResult direct =
      make_lcp_solver(LcpSolverKind::kMmsim, qp)->solve();
  EXPECT_EQ(recovered.rung, RecoveryRung::kPrimary);
  EXPECT_EQ(recovered.attempts, 1u);
  EXPECT_EQ(recovered.wasted_iterations, 0u);
  ASSERT_TRUE(recovered.result.converged);
  // Recovery must not perturb the success path: bitwise-equal result.
  ASSERT_EQ(recovered.result.x.size(), direct.x.size());
  for (std::size_t i = 0; i < direct.x.size(); ++i)
    EXPECT_EQ(recovered.result.x[i], direct.x[i]) << "x[" << i << "]";
}

TEST(RecoveryLadderTest, ForcedFailureRecoversAtEscalatedRung) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 1;
  const RecoveredSolve recovered = solve_with_recovery(
      LcpSolverKind::kMmsim, qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kEscalated);
  EXPECT_EQ(recovered.attempts, 2u);
  EXPECT_GT(recovered.wasted_iterations, 0u);
  ASSERT_TRUE(recovered.result.converged);
  const LcpSolveResult reference =
      make_lcp_solver(LcpSolverKind::kLemke, qp)->solve();
  for (std::size_t i = 0; i < reference.x.size(); ++i)
    EXPECT_NEAR(recovered.result.x[i], reference.x[i], 1e-3);
}

TEST(RecoveryLadderTest, LadderFallsBackToReferenceThenLemke) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 2;  // primary + escalated forced down
  RecoveredSolve recovered = solve_with_recovery(
      LcpSolverKind::kMmsim, qp, fused_config(), recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kReference);
  EXPECT_EQ(recovered.attempts, 3u);

  recovery.forced_failures = 3;  // ... + reference: m > 0, so PSOR is
                                 // skipped and Lemke is the last resort
  recovered = solve_with_recovery(LcpSolverKind::kMmsim, qp,
                                  fused_config(), recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kLemke);
  EXPECT_EQ(recovered.attempts, 4u);
  ASSERT_TRUE(recovered.result.converged);
}

TEST(RecoveryLadderTest, PsorRungServesBoundConstrainedQps) {
  const StructuredQp qp = unconstrained_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 3;  // primary, escalated, reference forced down
  const RecoveredSolve recovered = solve_with_recovery(
      LcpSolverKind::kMmsim, qp, fused_config(), recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kPsor);
  ASSERT_TRUE(recovered.result.converged);
  EXPECT_NEAR(recovered.result.x[0], 3.0, 1e-6);
  EXPECT_NEAR(recovered.result.x[1], 0.0, 1e-6);
}

TEST(RecoveryLadderTest, ExhaustedLadderReportsEveryAttempt) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 100;
  const RecoveredSolve recovered = solve_with_recovery(
      LcpSolverKind::kMmsim, qp, fused_config(), recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kExhausted);
  // primary, escalated, reference, Lemke (PSOR skipped: m > 0).
  EXPECT_EQ(recovered.attempts, 4u);
  EXPECT_GT(recovered.wasted_iterations, 0u);
}

TEST(RecoveryLadderTest, DisabledRecoverySurfacesTheFailure) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.enabled = false;
  recovery.forced_failures = 1;
  const RecoveredSolve recovered = solve_with_recovery(
      LcpSolverKind::kMmsim, qp, LcpSolverConfig{}, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kExhausted);
  EXPECT_EQ(recovered.attempts, 1u);
}

TEST(RecoveryLadderTest, ZeroIterationBudgetRecoversByEscalation) {
  const StructuredQp qp = chain_qp();
  LcpSolverConfig config;
  config.mmsim.max_iterations = 1;  // genuine failure, not injected
  RecoveryOptions recovery;
  recovery.budget_multiplier = 20000;
  const RecoveredSolve recovered = solve_with_recovery(
      LcpSolverKind::kMmsim, qp, config, recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kEscalated);
  ASSERT_TRUE(recovered.result.converged);
  EXPECT_EQ(recovered.wasted_iterations, 1u);
}

TEST(RecoveryLadderTest, LadderRespectsSizeGates) {
  const StructuredQp qp = chain_qp();
  RecoveryOptions recovery;
  recovery.forced_failures = 100;
  recovery.lemke_fallback_max_size = 2;  // below n + m = 5: Lemke gated off
  const RecoveredSolve recovered = solve_with_recovery(
      LcpSolverKind::kMmsim, qp, fused_config(), recovery);
  EXPECT_EQ(recovered.rung, RecoveryRung::kExhausted);
  EXPECT_EQ(recovered.attempts, 3u);  // primary, escalated, reference only
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
