// Active-set polish tests (MmsimSolver::try_polish): polished solves are
// exact KKT points (they match Lemke), a wrong active set is rejected and
// leaves the iterate bitwise untouched, budgets that end before the first
// attempt follow the hand-driven step() trajectory bitwise, the returned
// splitting iterate is a fixed point, and clusters far larger than the
// 50k design's (8 rows) still match the monolithic oracle.
#include "lcp/mmsim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gen/generator.h"
#include "lcp/lemke.h"
#include "legal/mmsim_legalizer.h"
#include "legal/model.h"
#include "legal/row_assign.h"

namespace mch::lcp {
namespace {

/// A legalization QP produced by the real pipeline.
struct Problem {
  db::Design design;
  legal::LegalizationModel model;
};

Problem make_problem(std::size_t singles, std::size_t doubles,
                     double density, std::uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  opts.nets_per_cell = 0.0;
  Problem p{gen::generate_random_design(singles, doubles, density, opts), {}};
  const legal::RowAssignment rows = legal::assign_rows(p.design);
  p.model = legal::build_model(p.design, rows);
  return p;
}

/// The problem most tests share: one system of ~200 variables whose solve
/// runs well past the first polish attempt.
const Problem& medium_problem() {
  static const Problem p = make_problem(120, 20, 0.7, 5);
  return p;
}

void expect_matches_lemke(const StructuredQp& qp) {
  const MmsimResult mmsim = MmsimSolver(qp).solve();
  ASSERT_TRUE(mmsim.converged);
  EXPECT_TRUE(mmsim.polished);
  const LemkeResult lemke = solve_lemke(qp.to_dense_lcp());
  ASSERT_EQ(lemke.status, LemkeStatus::kSolved);
  // The QP optimum is unique in x (K is SPD); duals may be degenerate.
  for (std::size_t i = 0; i < qp.num_variables(); ++i)
    EXPECT_NEAR(mmsim.x[i], lemke.z[i], 1e-9) << "variable " << i;
}

TEST(PolishTest, MatchesLemkeOnSmallSingleHeightProblem) {
  const Problem p = make_problem(30, 0, 0.8, 7);
  expect_matches_lemke(p.model.qp);
}

TEST(PolishTest, MatchesLemkeOnSmallMixedHeightProblem) {
  const Problem p = make_problem(24, 8, 0.8, 11);
  expect_matches_lemke(p.model.qp);
}

/// Copies of the state's public part plus one step from it: equal
/// results mean the splitting iterate s was equal too.
struct StepProbe {
  Vector z_before;
  std::size_t iterations;
  double delta;
  Vector z_after;
};

StepProbe probe(const MmsimSolver& solver, MmsimSolver::State state) {
  StepProbe out{state.z, state.iterations, 0.0, {}};
  out.delta = solver.step(state);
  out.z_after = state.z;
  return out;
}

TEST(PolishTest, WrongActiveSetIsRejectedAndRestoresTheIterate) {
  const StructuredQp& qp = medium_problem().model.qp;
  const MmsimSolver solver(qp);
  const MmsimResult exact = solver.solve();
  ASSERT_TRUE(exact.polished);
  const std::size_t n = qp.num_variables();

  // Three wrong active sets: the row with the largest multiplier dropped,
  // the row with the most slack added, the rightmost variable pinned at 0.
  Vector w;
  qp.lcp_apply(exact.z, w);
  const auto argmax = [](const Vector& v, std::size_t lo, std::size_t hi) {
    return static_cast<std::size_t>(
        std::max_element(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi)) -
        v.begin());
  };
  const std::size_t wrong_entries[] = {argmax(exact.z, n, exact.z.size()),
                                       argmax(w, n, w.size()),
                                       argmax(exact.z, 0, n)};
  for (const std::size_t entry : wrong_entries) {
    MmsimSolver::State state = solver.make_state(exact.s);
    solver.step(state);
    state.z[entry] = state.z[entry] > 0.0 ? 0.0 : 1.0;
    const StepProbe untouched = probe(solver, state);
    EXPECT_FALSE(solver.try_polish(state)) << "entry " << entry;
    const StepProbe after = probe(solver, state);
    EXPECT_TRUE(after.z_before == untouched.z_before) << "entry " << entry;
    EXPECT_EQ(after.iterations, untouched.iterations);
    EXPECT_EQ(after.delta, untouched.delta);
    EXPECT_TRUE(after.z_after == untouched.z_after) << "entry " << entry;
  }
}

/// z after each of the first `iterations` hand-driven step()s.
std::vector<Vector> hand_trajectory(const MmsimSolver& solver,
                                    std::size_t iterations) {
  MmsimSolver::State state = solver.make_state();
  std::vector<Vector> zs;
  for (std::size_t k = 0; k < iterations; ++k) {
    solver.step(state);
    zs.push_back(state.z);
  }
  return zs;
}

TEST(PolishTest, BudgetEndingBeforeTheFirstAttemptIsTheHandTrajectory) {
  const StructuredQp& qp = medium_problem().model.qp;
  const MmsimResult unbounded = MmsimSolver(qp).solve();
  ASSERT_GE(unbounded.polish_attempts, 1u);
  const std::vector<Vector> hand =
      hand_trajectory(MmsimSolver(qp), unbounded.iterations);

  // Raise the budget until it fits the first attempt. Every solve stays
  // within its budget, and one that made no attempt is the hand
  // trajectory, bitwise.
  MmsimOptions options;
  std::size_t first_attempt_budget = 0;
  for (std::size_t budget = 1; budget <= unbounded.iterations; ++budget) {
    options.max_iterations = budget;
    const MmsimResult capped = MmsimSolver(qp, options).solve();
    ASSERT_GE(capped.iterations, 1u);
    EXPECT_LE(capped.iterations, budget);
    if (capped.polish_attempts > 0) {
      first_attempt_budget = budget;
      break;
    }
    EXPECT_FALSE(capped.polished);
    EXPECT_TRUE(capped.z == hand[capped.iterations - 1])
        << "budget " << budget;
  }
  // Attempts follow a sign sample (one per 16 iterations, the earliest
  // attempt after the third), and the polish step takes one iteration more.
  ASSERT_GT(first_attempt_budget, 48u);
  EXPECT_EQ(first_attempt_budget % 16, 1u);
}

TEST(PolishTest, GateRejectsWhenTheStepTestCannotPass) {
  // With tolerance 0 no step delta passes, so every attempt is rejected
  // after its gate step, and each rejection restores the iterate: the
  // solve runs its whole budget on the hand trajectory, bitwise.
  const StructuredQp& qp = medium_problem().model.qp;
  MmsimOptions options;
  options.tolerance = 0.0;
  options.max_iterations = 600;
  const MmsimSolver solver(qp, options);
  const MmsimResult result = solver.solve();
  EXPECT_FALSE(result.converged);
  EXPECT_FALSE(result.polished);
  EXPECT_GE(result.polish_attempts, 2u);
  ASSERT_EQ(result.iterations, options.max_iterations);
  EXPECT_TRUE(result.z == hand_trajectory(solver, 600).back());
}

TEST(PolishTest, ReturnedIterateIsAFixedPoint) {
  const StructuredQp& qp = medium_problem().model.qp;
  const MmsimSolver solver(qp);
  const MmsimResult result = solver.solve();
  ASSERT_TRUE(result.polished);
  MmsimSolver::State state = solver.make_state(result.s);
  solver.step(state);
  const double scale = 1.0 + linalg::norm_inf(result.z);
  for (std::size_t i = 0; i < result.z.size(); ++i)
    EXPECT_NEAR(state.z[i], result.z[i], 1e-12 * scale) << "entry " << i;
  EXPECT_LT(solver.step(state), 1e-12 * scale);
  // A warm start from it therefore converges at once.
  const MmsimResult warm = solver.solve_from(result.s);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2u);
}

TEST(PolishTest, FusedAndReferencePathsPolishBitwiseAlike) {
  const StructuredQp& qp = medium_problem().model.qp;
  MmsimOptions fused, reference;
  fused.fused = true;
  reference.fused = false;
  const MmsimResult a = MmsimSolver(qp, fused).solve();
  const MmsimResult b = MmsimSolver(qp, reference).solve();
  ASSERT_TRUE(a.polished);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.polish_attempts, b.polish_attempts);
  EXPECT_TRUE(a.z == b.z);
}

// ----------------------------------------------- a near-capacity row

/// Two rows of 100 sites. Row 0 holds 30 cells of width 3 (90% full)
/// whose GP targets crowd its middle, so they end as one abutting run —
/// a cluster of ~29 tight rows, far past the 50k design's largest (8).
/// Two double-height cells tie it to a sparser row 1.
db::Design near_capacity_design() {
  db::Chip chip;
  chip.num_rows = 2;
  chip.num_sites = 100;
  chip.site_width = 1.0;
  chip.row_height = 10.0;
  db::Design design(chip);
  const auto add = [&](double width, double gp_x, double gp_y,
                       std::uint16_t rows) {
    db::Cell cell;
    cell.width = width;
    cell.gp_x = gp_x;
    cell.gp_y = gp_y;
    cell.height_rows = rows;
    design.add_cell(cell);
  };
  for (std::size_t i = 0; i < 30; ++i)
    add(3.0, 30.0 + 1.4 * static_cast<double>(i), 0.0, 1);
  add(4.0, 20.0, 0.0, 2);
  add(4.0, 80.0, 0.0, 2);
  for (std::size_t i = 0; i < 6; ++i)
    add(3.0, 30.0 + 4.0 * static_cast<double>(i), 10.0, 1);
  return design;
}

legal::MmsimLegalizerStats solve_mode(legal::PartitionMode mode,
                                      Vector& solution) {
  db::Design design = near_capacity_design();
  const legal::RowAssignment rows = legal::assign_rows(design);
  legal::MmsimLegalizerOptions options;
  options.partition = mode;
  options.solution_out = &solution;
  return legal::mmsim_legalize_continuous(design, rows, options);
}

TEST(PolishTest, NearCapacityRowMatchesTheMonolithicOracle) {
  Vector off_x, tiered_x;
  const legal::MmsimLegalizerStats off =
      solve_mode(legal::PartitionMode::kOff, off_x);
  const legal::MmsimLegalizerStats tiered =
      solve_mode(legal::PartitionMode::kTiered, tiered_x);
  ASSERT_TRUE(off.converged);
  ASSERT_TRUE(tiered.converged);
  EXPECT_EQ(off.components_polished, 1u);
  EXPECT_GE(tiered.components_polished, 1u);

  // The run of abutting cells the polish solved as one cluster.
  db::Design design = near_capacity_design();
  const legal::RowAssignment rows = legal::assign_rows(design);
  const legal::LegalizationModel model = legal::build_model(design, rows);
  const StructuredQp& qp = model.qp;
  Vector bx(qp.num_constraints(), 0.0);
  qp.B.multiply_add(1.0, off_x.data(), bx.data());
  std::size_t run = 0, longest = 0;
  for (std::size_t r = 0; r < qp.num_constraints(); ++r) {
    run = std::abs(bx[r] - qp.b[r]) < 1e-9 ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  EXPECT_GT(longest, 8u);

  ASSERT_EQ(off_x.size(), tiered_x.size());
  for (std::size_t i = 0; i < off_x.size(); ++i)
    EXPECT_NEAR(tiered_x[i], off_x[i], 1e-9) << "variable " << i;
}

}  // namespace
}  // namespace mch::lcp
