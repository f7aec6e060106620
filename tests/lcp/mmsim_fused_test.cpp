// Bitwise-equivalence suite for the fused MMSIM iteration kernels: the
// fused path must reproduce the reference (stage-by-stage) path bit for
// bit — iterate by iterate, on z, the convergence delta, and the final
// solve results. Registered again as ".mt4" with MCH_THREADS=4 so the
// contract is also checked through the parallel runtime's chunked sweeps.
#include <gtest/gtest.h>

#include <cstring>

#include "gen/generator.h"
#include "lcp/mmsim.h"
#include "legal/model.h"
#include "legal/row_assign.h"

namespace mch::lcp {
namespace {

bool bitwise_equal(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

legal::LegalizationModel make_model(std::size_t singles, std::size_t doubles,
                                    double density, std::uint64_t seed,
                                    double triple_fraction = 0.0,
                                    double quad_fraction = 0.0) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  opts.nets_per_cell = 0.0;
  opts.triple_fraction = triple_fraction;
  opts.quad_fraction = quad_fraction;
  db::Design design =
      gen::generate_random_design(singles, doubles, density, opts);
  const legal::RowAssignment rows = legal::assign_rows(design);
  return legal::build_model(design, rows);
}

void expect_stepwise_bitwise(const legal::LegalizationModel& model,
                             std::size_t iterations) {
  MmsimOptions options;
  options.fused = false;
  const MmsimSolver reference(model.qp, options);
  options.fused = true;
  const MmsimSolver fused(model.qp, options);

  MmsimSolver::State ref_state = reference.make_state();
  MmsimSolver::State fused_state = fused.make_state();
  for (std::size_t it = 0; it < iterations; ++it) {
    const double ref_delta = reference.step(ref_state);
    const double fused_delta = fused.step(fused_state);
    ASSERT_EQ(std::memcmp(&ref_delta, &fused_delta, sizeof(double)), 0)
        << "delta diverged at iteration " << it;
    ASSERT_TRUE(bitwise_equal(ref_state.z, fused_state.z))
        << "z diverged at iteration " << it;
  }
}

TEST(MmsimFusedTest, StepwiseBitwiseSingleHeight) {
  expect_stepwise_bitwise(make_model(400, 0, 0.6, 3), 150);
}

TEST(MmsimFusedTest, StepwiseBitwiseMixedHeight) {
  expect_stepwise_bitwise(make_model(300, 60, 0.7, 5), 150);
}

// Triple/quad-height cells exercise the runtime-sized fallback of the
// fused block sweep next to the unrolled 2×2 path.
TEST(MmsimFusedTest, StepwiseBitwiseTallBlocks) {
  expect_stepwise_bitwise(make_model(250, 40, 0.65, 9, 0.1, 0.05), 150);
}

TEST(MmsimFusedTest, SolveResultsBitwiseIdentical) {
  const legal::LegalizationModel model = make_model(500, 60, 0.7, 17);
  MmsimOptions options;
  options.tolerance = 1e-8;
  options.max_iterations = 50000;
  options.fused = false;
  const MmsimResult reference = MmsimSolver(model.qp, options).solve();
  options.fused = true;
  const MmsimResult fused = MmsimSolver(model.qp, options).solve();

  ASSERT_TRUE(reference.converged);
  ASSERT_TRUE(fused.converged);
  EXPECT_EQ(reference.iterations, fused.iterations);
  EXPECT_TRUE(bitwise_equal(reference.z, fused.z));
  EXPECT_TRUE(bitwise_equal(reference.x, fused.x));
  EXPECT_TRUE(bitwise_equal(reference.dual, fused.dual));
}

// The solve must not depend on where s⁽⁰⁾ came from: solve_in on a reused
// state is the same computation as solve_from on a fresh one.
TEST(MmsimFusedTest, SolveInMatchesSolveFromBitwise) {
  const legal::LegalizationModel model = make_model(300, 30, 0.65, 23);
  const MmsimSolver solver(model.qp, MmsimOptions{});
  const MmsimResult fresh = solver.solve();

  MmsimSolver::State state = solver.make_state();
  solver.solve_in(state);                       // dirty the buffers
  const MmsimResult reused = solver.solve_in(state);  // cold restart
  EXPECT_TRUE(bitwise_equal(fresh.z, reused.z));
  EXPECT_EQ(fresh.iterations, reused.iterations);
}

}  // namespace
}  // namespace mch::lcp
