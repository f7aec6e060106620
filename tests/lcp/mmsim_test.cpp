// MMSIM solver tests: cross-validation against Lemke (exact) on small
// structured QPs from the real model builder, parameter invariances, the
// Sherman–Morrison closed form of the paper, and the strided stopping rule.
#include "lcp/mmsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "gen/generator.h"
#include "lcp/lemke.h"
#include "legal/model.h"
#include "legal/partition.h"
#include "legal/row_assign.h"
#include "util/check.h"

namespace mch::lcp {
namespace {

/// A small legalization QP produced by the real pipeline.
struct SmallProblem {
  db::Design design;
  legal::LegalizationModel model;
};

SmallProblem make_problem(std::size_t singles, std::size_t doubles,
                          double density, std::uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  opts.nets_per_cell = 0.0;  // no netlist needed here
  SmallProblem p{gen::generate_random_design(singles, doubles, density, opts),
                 {}};
  const legal::RowAssignment rows = legal::assign_rows(p.design);
  p.model = legal::build_model(p.design, rows);
  return p;
}

MmsimOptions tight() {
  MmsimOptions o;
  o.tolerance = 1e-10;
  o.max_iterations = 200000;
  return o;
}

TEST(MmsimTest, MatchesLemkeOnSmallSingleHeightProblem) {
  const SmallProblem p = make_problem(12, 0, 0.6, 7);
  const MmsimSolver solver(p.model.qp, tight());
  const MmsimResult mmsim = solver.solve();
  ASSERT_TRUE(mmsim.converged);

  const LemkeResult lemke = solve_lemke(p.model.qp.to_dense_lcp());
  ASSERT_EQ(lemke.status, LemkeStatus::kSolved);

  // Primal parts must agree (unique QP optimum; duals may be degenerate).
  for (std::size_t i = 0; i < p.model.num_variables(); ++i)
    EXPECT_NEAR(mmsim.x[i], lemke.z[i], 1e-5) << "variable " << i;
  EXPECT_NEAR(p.model.qp.objective(mmsim.x),
              p.model.qp.objective(Vector(
                  lemke.z.begin(),
                  lemke.z.begin() +
                      static_cast<std::ptrdiff_t>(p.model.num_variables()))),
              1e-6);
}

TEST(MmsimTest, MatchesLemkeOnSmallMixedHeightProblem) {
  const SmallProblem p = make_problem(10, 4, 0.7, 11);
  const MmsimSolver solver(p.model.qp, tight());
  const MmsimResult mmsim = solver.solve();
  ASSERT_TRUE(mmsim.converged);

  const LemkeResult lemke = solve_lemke(p.model.qp.to_dense_lcp());
  ASSERT_EQ(lemke.status, LemkeStatus::kSolved);
  for (std::size_t i = 0; i < p.model.num_variables(); ++i)
    EXPECT_NEAR(mmsim.x[i], lemke.z[i], 1e-4) << "variable " << i;
}

TEST(MmsimTest, SolutionSatisfiesLcpConditions) {
  const SmallProblem p = make_problem(30, 5, 0.75, 13);
  const MmsimSolver solver(p.model.qp, tight());
  const MmsimResult r = solver.solve();
  ASSERT_TRUE(r.converged);
  const LcpResidual res = p.model.qp.lcp_residual(r.z);
  EXPECT_LT(res.z_negativity, 1e-9);
  EXPECT_LT(res.w_negativity, 1e-6);
  EXPECT_LT(res.complementarity, 1e-4);
}

TEST(MmsimTest, SpacingConstraintsHoldAtSolution) {
  const SmallProblem p = make_problem(40, 8, 0.8, 17);
  const MmsimSolver solver(p.model.qp, tight());
  const MmsimResult r = solver.solve();
  ASSERT_TRUE(r.converged);
  EXPECT_LT(p.model.qp.max_constraint_violation(r.x), 1e-6);
}

TEST(MmsimTest, GammaInvariance) {
  const SmallProblem p = make_problem(15, 3, 0.6, 19);
  MmsimOptions base = tight();
  base.gamma = 2.0;
  MmsimOptions other = tight();
  other.gamma = 1.0;
  const MmsimResult a = MmsimSolver(p.model.qp, base).solve();
  const MmsimResult b = MmsimSolver(p.model.qp, other).solve();
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  for (std::size_t i = 0; i < p.model.num_variables(); ++i)
    EXPECT_NEAR(a.x[i], b.x[i], 1e-6);
}

TEST(MmsimTest, WarmStartReachesSameSolution) {
  const SmallProblem p = make_problem(20, 4, 0.7, 23);
  const MmsimSolver solver(p.model.qp, tight());
  const MmsimResult cold = solver.solve();
  ASSERT_TRUE(cold.converged);

  Vector s0(p.model.qp.lcp_size(), 0.0);
  for (std::size_t i = 0; i < p.model.num_variables(); ++i)
    s0[i] = -p.model.qp.p[i];  // start at the GP positions
  const MmsimResult warm = solver.solve_from(s0);
  ASSERT_TRUE(warm.converged);
  for (std::size_t i = 0; i < p.model.num_variables(); ++i)
    EXPECT_NEAR(cold.x[i], warm.x[i], 1e-6);
}

TEST(MmsimTest, UnconstrainedProblemReturnsClampedTargets) {
  // One cell per row: no spacing constraints; optimum is x = max(x', 0).
  gen::GeneratorOptions opts;
  opts.seed = 3;
  opts.nets_per_cell = 0.0;
  db::Design design = gen::generate_random_design(4, 0, 0.05, opts);
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  if (model.qp.num_constraints() > 0) GTEST_SKIP() << "cells share rows";
  const MmsimResult r = MmsimSolver(model.qp, tight()).solve();
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < model.num_variables(); ++i)
    EXPECT_NEAR(r.x[i], std::max(0.0, -model.qp.p[i]), 1e-7);
}

TEST(MmsimTest, InvalidBetaRejected) {
  const SmallProblem p = make_problem(5, 0, 0.5, 29);
  MmsimOptions o;
  o.beta = 2.5;
  EXPECT_THROW(MmsimSolver(p.model.qp, o), CheckError);
  o.beta = 0.0;
  EXPECT_THROW(MmsimSolver(p.model.qp, o), CheckError);
}

// Paper §3.2: with only double-height cells, EEᵀ = 2I and the
// Sherman–Morrison formula gives K⁻¹ = I − λ/(2λ+1)·EᵀE in closed form;
// our per-block inverse must match it.
TEST(MmsimTest, ShermanMorrisonClosedFormForDoubles) {
  const double lambda = 1000.0;
  const SmallProblem p = make_problem(0, 6, 0.5, 31);
  const auto& k = p.model.qp.K;
  const double off = -lambda / (2.0 * lambda + 1.0);
  const double diag = 1.0 - lambda / (2.0 * lambda + 1.0);
  for (std::size_t b = 0; b < k.block_count(); ++b) {
    ASSERT_EQ(k.block_size(b), 2u);
    const auto& inv = k.block_inverse(b);
    EXPECT_NEAR(inv(0, 0), diag, 1e-9);
    EXPECT_NEAR(inv(1, 1), diag, 1e-9);
    EXPECT_NEAR(inv(0, 1), -off, 1e-9);  // E row is (−1, 1): EᵀE off-diag −1
    EXPECT_NEAR(inv(1, 0), -off, 1e-9);
  }
}

TEST(MmsimTest, SchurTridiagonalMatchesBruteForce) {
  const SmallProblem p = make_problem(10, 3, 0.8, 37);
  const auto d = schur_tridiagonal(p.model.qp.K, p.model.qp.B);
  const std::size_t m = p.model.qp.num_constraints();
  ASSERT_EQ(d.size(), m);

  // Brute force: assemble B K⁻¹ Bᵀ densely.
  const std::size_t n = p.model.num_variables();
  linalg::DenseMatrix kinv(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      kinv(i, j) = p.model.qp.K.inverse_entry(i, j);
  linalg::DenseMatrix bd(m, n);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < n; ++c) bd(r, c) = p.model.qp.B.at(r, c);
  const linalg::DenseMatrix full = bd.multiply(kinv).multiply(bd.transpose());
  for (std::size_t r = 0; r < m; ++r) {
    EXPECT_NEAR(d.diag(r), full(r, r), 1e-9);
    if (r + 1 < m) {
      EXPECT_NEAR(d.upper(r), full(r, r + 1), 1e-9);
      EXPECT_NEAR(d.lower(r), full(r + 1, r), 1e-9);
    }
  }
}

TEST(MmsimTest, SuggestThetaPositiveAndBounded) {
  const SmallProblem p = make_problem(25, 5, 0.7, 41);
  const MmsimSolver solver(p.model.qp, MmsimOptions{});
  const double theta = solver.suggest_theta();
  EXPECT_GT(theta, 0.0);
  EXPECT_LE(theta, 0.9);
  EXPECT_GT(solver.estimate_mu_max(), 0.0);
}

TEST(MmsimTest, JacobiSplittingReachesSameSolution) {
  // The block-Jacobi ablation converges (slower) to the same fixed point —
  // any fixed point of the modulus map solves the LCP regardless of M.
  const SmallProblem p = make_problem(20, 4, 0.6, 43);
  MmsimOptions gs = tight();
  MmsimOptions jacobi = tight();
  jacobi.splitting = MmsimSplitting::kJacobi;
  const MmsimResult a = MmsimSolver(p.model.qp, gs).solve();
  const MmsimResult b = MmsimSolver(p.model.qp, jacobi).solve();
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  for (std::size_t i = 0; i < p.model.num_variables(); ++i)
    EXPECT_NEAR(a.x[i], b.x[i], 1e-5);
}

TEST(MmsimTest, GaussSeidelNotSlowerThanJacobi) {
  const SmallProblem p = make_problem(60, 10, 0.7, 47);
  MmsimOptions gs = tight();
  MmsimOptions jacobi = tight();
  jacobi.splitting = MmsimSplitting::kJacobi;
  const MmsimResult a = MmsimSolver(p.model.qp, gs).solve();
  const MmsimResult b = MmsimSolver(p.model.qp, jacobi).solve();
  ASSERT_TRUE(a.converged);
  if (b.converged) {
    EXPECT_LE(a.iterations, b.iterations * 2);
  }
}

TEST(MmsimTest, TraceRecordsDecay) {
  const SmallProblem p = make_problem(40, 8, 0.7, 51);
  MmsimOptions o = tight();
  o.trace_stride = 10;
  const MmsimResult r = MmsimSolver(p.model.qp, o).solve();
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.trace.size(), 2u);
  // Deltas shrink overall (allow plateaus between adjacent samples).
  EXPECT_LT(r.trace.back().second, r.trace.front().second);
  for (std::size_t k = 0; k < r.trace.size(); ++k)
    EXPECT_EQ(r.trace[k].first % 10, 1u);  // sampled every 10, 1-indexed
}

// Objective decrease property: MMSIM's solution is at least as good as the
// snapped GP projection, across random instances.
class MmsimRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(MmsimRandomSweep, BeatsNaiveFeasiblePoints) {
  const SmallProblem p =
      make_problem(8 + GetParam() * 3, GetParam(), 0.5 + 0.04 * GetParam(),
                   100 + GetParam());
  const MmsimResult r = MmsimSolver(p.model.qp, tight()).solve();
  ASSERT_TRUE(r.converged);
  ASSERT_LT(p.model.qp.max_constraint_violation(r.x), 1e-6);

  const LemkeResult lemke = solve_lemke(p.model.qp.to_dense_lcp());
  ASSERT_EQ(lemke.status, LemkeStatus::kSolved);
  const Vector lemke_x(
      lemke.z.begin(),
      lemke.z.begin() + static_cast<std::ptrdiff_t>(p.model.num_variables()));
  EXPECT_NEAR(p.model.qp.objective(r.x), p.model.qp.objective(lemke_x),
              1e-4 * (1.0 + std::abs(p.model.qp.objective(lemke_x))));
}

INSTANTIATE_TEST_SUITE_P(Instances, MmsimRandomSweep, ::testing::Range(0, 8));

// ------------------------------------------------------ the stopping rule
//
// run_loop checks the scaled residual at the first iteration whose delta is
// below tolerance, then no sooner than 16 iterations after each failed
// check, and always on the budget's last iteration. Once z's sign pattern
// holds still it also attempts the active-set polish, and stops on an
// accepted one. These tests drive step() by hand with a residual check on
// every iteration — the reference trajectory, whose first stop is k* — and
// hold solve() to it: every solve stops by k* + 15 on an iterate that
// passes both tests, and a solve the polish never ends follows the strided
// rule alone, bitwise on the hand-driven trajectory.

constexpr std::size_t kStride = 16;

/// The solver's scaled-residual verdict, recomputed from the public LCP
/// residual: feasibility and complementarity of z relative to 1 + ‖z‖∞ and
/// 1 + ‖w‖∞, with w = A z + q.
bool residual_passes(const StructuredQp& qp, const Vector& z, double tol) {
  Vector w;
  qp.lcp_apply(z, w);
  const LcpResidual res = qp.lcp_residual(z);
  const double scale_z = 1.0 + linalg::norm_inf(z);
  const double scale_w = 1.0 + linalg::norm_inf(w);
  return res.z_negativity <= tol * scale_z &&
         res.w_negativity <= tol * scale_w &&
         res.complementarity <= tol * scale_z * scale_w;
}

/// Which stopping test passes after each iteration of a hand-driven solve
/// (entry i is iteration i + 1). The delta test never counts on the first
/// iteration, as in run_loop.
struct Trajectory {
  std::vector<bool> delta_ok;
  std::vector<bool> residual_ok;
  /// z after iteration `z_at_iteration` (empty when not captured).
  Vector z;

  /// Iteration number of the first entry where `pred(i)` holds.
  template <typename Pred>
  std::optional<std::size_t> first(Pred pred) const {
    for (std::size_t i = 0; i < delta_ok.size(); ++i)
      if (pred(i)) return i + 1;
    return std::nullopt;
  }
  /// First iteration where the delta test passes.
  std::optional<std::size_t> first_small_delta() const {
    return first([&](std::size_t i) { return bool(delta_ok[i]); });
  }
  /// k*: the first iteration where both tests pass — where checking on
  /// every iteration would stop.
  std::optional<std::size_t> first_stop() const {
    return first([&](std::size_t i) { return delta_ok[i] && residual_ok[i]; });
  }
};

/// Drives step() by hand for at least `iterations` iterations and on to
/// k* + kStride − 1 (within the options' budget), capturing z after
/// `z_at_iteration`.
Trajectory drive_by_hand(const StructuredQp& qp, const MmsimSolver& solver,
                         const MmsimOptions& options, std::size_t iterations,
                         std::size_t z_at_iteration = 0) {
  Trajectory t;
  MmsimSolver::State state = solver.make_state();
  std::optional<std::size_t> k_star;
  for (std::size_t k = 0; k < options.max_iterations; ++k) {
    if (k >= iterations && k_star && k + 1 >= *k_star + kStride) break;
    const double delta = solver.step(state);
    t.delta_ok.push_back(k > 0 && delta < options.tolerance);
    t.residual_ok.push_back(
        residual_passes(qp, state.z, options.residual_tolerance));
    if (!k_star && t.delta_ok.back() && t.residual_ok.back()) k_star = k + 1;
    if (k + 1 == z_at_iteration) t.z = state.z;
  }
  return t;
}

/// One QP for the stopping-rule tests, with the Schur coupling breaks of an
/// extracted component (empty for a whole problem), the solver options
/// (the legalizer's defaults unless noted), and whether the solve ends on
/// an accepted polish.
struct StopInstance {
  std::string name;
  StructuredQp qp;
  std::vector<bool> breaks;
  MmsimOptions options;
  bool polishes = true;
};

/// A single row of `cells` unit-weight cells of width 4 whose GP targets
/// sit `pitch` sites apart on average: the whole row is one compressed
/// chain, so the iteration contracts slowly and the delta test passes
/// hundreds of iterations before the residual does.
StopInstance chain_instance(std::string name, std::size_t cells,
                            double pitch) {
  StopInstance inst{std::move(name), {}, {}, {}};
  for (std::size_t i = 0; i < cells; ++i) inst.qp.K.add_scalar_block(1.0);
  inst.qp.p.resize(cells);
  for (std::size_t i = 0; i < cells; ++i)
    inst.qp.p[i] = -(pitch * static_cast<double>(i) +
                     1.5 * static_cast<double>(i % 7));
  linalg::CooMatrix coo(cells - 1, cells);
  for (std::size_t r = 0; r + 1 < cells; ++r) {
    coo.add(r, r, -1.0);
    coo.add(r, r + 1, 1.0);
  }
  inst.qp.B = linalg::CsrMatrix::from_coo(coo);
  inst.qp.b.assign(cells - 1, 4.0);
  return inst;
}

/// The largest connected component of the 50k-cell service design (45k
/// single- and 5k double-height cells at density 0.7), extracted exactly as
/// the tiered legalizer extracts it.
StopInstance component_50k_instance() {
  gen::GeneratorOptions opts;
  opts.seed = 601;
  opts.nets_per_cell = 0.0;
  db::Design design = gen::generate_random_design(45000, 5000, 0.7, opts);
  const legal::RowAssignment rows = legal::assign_rows(design);
  legal::ConstraintPartition partition;
  const legal::LegalizationModel model =
      legal::build_model(design, rows, {}, &partition);
  std::size_t largest = 0;
  for (std::size_t c = 1; c < partition.num_components(); ++c)
    if (partition.component_size(c) > partition.component_size(largest))
      largest = c;
  legal::ComponentProblem component =
      model.component_problem(partition.component_variables[largest],
                              partition.component_constraints[largest]);
  return {"component50k", std::move(component.qp),
          std::move(component.schur_coupling_breaks), {}};
}

const StopInstance& stop_instance(const std::string& name) {
  static const StopInstance chain = chain_instance("chain", 40, 3.5);
  if (name == "chain") return chain;
  // 525 consecutive rows end tight, pinned against x = 0: one cluster,
  // more than the polish factors densely (512 rows). Every attempt is
  // rejected, so the solve runs on the strided rule alone. Looser
  // tolerances keep it to ~1.5k iterations (~39k at the defaults).
  static const StopInstance long_chain = [] {
    StopInstance inst = chain_instance("longchain", 530, 4.0);
    inst.options.tolerance = 1e-3;
    inst.options.residual_tolerance = 1e-5;
    inst.polishes = false;
    return inst;
  }();
  if (name == "longchain") return long_chain;
  static const StopInstance component = component_50k_instance();
  return component;
}

/// The production stopping rule on the instance, at the legalizer's
/// default tolerances.
class StoppingRuleTest : public ::testing::TestWithParam<std::string> {
 protected:
  const StopInstance& instance() const { return stop_instance(GetParam()); }
  MmsimSolver solver(const MmsimOptions& options) const {
    return MmsimSolver(instance().qp, options,
                       instance().breaks.empty() ? nullptr
                                                 : &instance().breaks);
  }
  /// The default solve, plus the hand-driven trajectory through k* and
  /// through as many iterations as the solve ran (capturing z there).
  void solve_and_trace(const MmsimOptions& options, MmsimResult& result,
                       Trajectory& trajectory) const {
    const MmsimSolver s = solver(options);
    result = s.solve();
    trajectory = drive_by_hand(instance().qp, s, options, result.iterations,
                               result.iterations);
  }
};

TEST_P(StoppingRuleTest, ConvergedSolveMeetsResidualTolerance) {
  const MmsimOptions options = instance().options;
  const MmsimResult result = solver(options).solve();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.polished, instance().polishes);
  EXPECT_TRUE(residual_passes(instance().qp, result.z,
                              options.residual_tolerance));
  EXPECT_LT(result.final_delta, options.tolerance);
}

TEST_P(StoppingRuleTest, StopsWithinOneStrideOfFirstPassingIteration) {
  const MmsimOptions options = instance().options;
  MmsimResult result;
  Trajectory t;
  solve_and_trace(options, result, t);
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.polished, instance().polishes);
  const std::optional<std::size_t> k_star = t.first_stop();

  ASSERT_TRUE(k_star.has_value());
  // The instance must exercise the stride: the delta test passes before
  // the residual does, so checking every iteration would pay many checks.
  ASSERT_LT(t.first_small_delta().value() + kStride, *k_star) << GetParam();
  EXPECT_LE(result.iterations, *k_star + kStride - 1);
  // The returned iterate passes both exit tests, polished or not.
  EXPECT_LT(result.final_delta, options.tolerance);
  EXPECT_TRUE(residual_passes(instance().qp, result.z,
                              options.residual_tolerance));
  if (result.polished) return;
  // Unpolished: the strided rule alone, bitwise on the hand trajectory.
  EXPECT_GE(result.iterations, *k_star);
  EXPECT_TRUE(t.delta_ok[result.iterations - 1]);
  EXPECT_TRUE(t.residual_ok[result.iterations - 1]);
  EXPECT_TRUE(result.z == t.z);
}

TEST_P(StoppingRuleTest, ChecksAtMostOncePerStride) {
  const MmsimOptions options = instance().options;
  MmsimResult result;
  Trajectory t;
  solve_and_trace(options, result, t);
  ASSERT_TRUE(result.converged);
  const std::size_t first = t.first_small_delta().value();
  // A polish may end the solve before the delta test ever passes; then
  // the stopping rule never ran a check.
  const std::size_t span =
      result.iterations > first ? result.iterations - first : 0;
  if (!result.polished) {
    EXPECT_GE(result.residual_checks, 1u);
  }
  if (result.iterations < first) {
    EXPECT_EQ(result.residual_checks, 0u);
  }
  EXPECT_LE(result.residual_checks, (span + kStride - 1) / kStride + 1);
}

TEST_P(StoppingRuleTest, BudgetEndingBetweenCheckPointsStillConverges) {
  const MmsimOptions options = instance().options;
  MmsimResult unbounded;
  Trajectory t;
  solve_and_trace(options, unbounded, t);
  ASSERT_TRUE(unbounded.converged);
  const std::size_t k_star = t.first_stop().value();
  std::size_t budgets = 0;
  if (unbounded.polished) {
    // Any budget that fits the accepted polish step ends on it, bitwise:
    // the next stride of budgets, and those past k* where the strided rule
    // would stop.
    for (std::size_t budget = unbounded.iterations;
         budget < k_star + kStride; ++budget) {
      if (budget > unbounded.iterations + kStride &&
          (budget < k_star || !t.delta_ok[budget - 1] ||
           !t.residual_ok[budget - 1]))
        continue;
      MmsimOptions capped = options;
      capped.max_iterations = budget;
      const MmsimResult result = solver(capped).solve();
      EXPECT_TRUE(result.converged) << "budget " << budget;
      EXPECT_TRUE(result.polished) << "budget " << budget;
      EXPECT_EQ(result.iterations, unbounded.iterations);
      EXPECT_TRUE(result.z == unbounded.z) << "budget " << budget;
      ++budgets;
    }
    EXPECT_GE(budgets, 1u);
    return;
  }
  // k* itself must not be a check point of the unbounded solve, or the
  // budget edge would be met by the regular cadence.
  ASSERT_GT(unbounded.iterations, k_star) << GetParam();
  for (std::size_t budget = k_star; budget < unbounded.iterations; ++budget) {
    if (!t.delta_ok[budget - 1] || !t.residual_ok[budget - 1]) continue;
    MmsimOptions capped = options;
    capped.max_iterations = budget;
    const MmsimResult result = solver(capped).solve();
    EXPECT_TRUE(result.converged) << "budget " << budget;
    EXPECT_EQ(result.iterations, budget);
    ++budgets;
  }
  EXPECT_GE(budgets, 1u);
}

TEST_P(StoppingRuleTest, WithoutResidualCheckStopsAtFirstSmallDelta) {
  MmsimOptions options = instance().options;
  options.residual_check = false;
  MmsimResult result;
  Trajectory t;
  solve_and_trace(options, result, t);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, t.first_small_delta().value());
  EXPECT_EQ(result.residual_checks, 0u);
  EXPECT_EQ(result.polish_attempts, 0u);
  EXPECT_FALSE(result.polished);
}

INSTANTIATE_TEST_SUITE_P(Instances, StoppingRuleTest,
                         ::testing::Values("chain", "longchain",
                                           "component50k"),
                         [](const auto& info) { return info.param; });

// The 50k component's sign pattern is final about 100 iterations into
// thousands: the polish must end its solve within a tenth of k*.
TEST(StoppingRulePolishTest, Component50kStopsWithinATenthOfFirstStop) {
  const StopInstance& inst = stop_instance("component50k");
  const MmsimOptions options;
  const MmsimSolver solver(inst.qp, options, &inst.breaks);
  const MmsimResult result = solver.solve();
  ASSERT_TRUE(result.converged);
  EXPECT_TRUE(result.polished);
  const Trajectory t = drive_by_hand(inst.qp, solver, options, 0);
  const std::size_t k_star = t.first_stop().value();
  EXPECT_LE(result.iterations * 10, k_star)
      << result.iterations << " vs k* " << k_star;
}

}  // namespace
}  // namespace mch::lcp
