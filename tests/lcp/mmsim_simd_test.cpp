// Bitwise-identity suite for the SIMD MMSIM sweeps: at every dispatch
// level the CPU supports, the fused half-step kernels must reproduce the
// scalar reference iteration bit for bit — iterate by iterate on z and the
// convergence delta, and on the final solve results (ALGORITHM.md ¶13).
// Registered again as ".mt4" (MCH_THREADS=4) so the contract holds through
// the parallel runtime's chunked sweeps, and as ".simd-off" (MCH_SIMD=0)
// where the loop below degenerates to scalar-vs-scalar.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gen/generator.h"
#include "lcp/mmsim.h"
#include "legal/model.h"
#include "legal/row_assign.h"
#include "linalg/simd.h"

namespace mch::lcp {
namespace {

bool bitwise_equal(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<linalg::SimdLevel> simd_levels_above_scalar() {
  std::vector<linalg::SimdLevel> levels;
  if (linalg::simd_level_supported() >= linalg::SimdLevel::kAvx2)
    levels.push_back(linalg::SimdLevel::kAvx2);
  if (linalg::simd_level_supported() >= linalg::SimdLevel::kAvx512)
    levels.push_back(linalg::SimdLevel::kAvx512);
  return levels;
}

class LevelGuard {
 public:
  LevelGuard() : entry_(linalg::simd_level()) {}
  ~LevelGuard() { linalg::set_simd_level(entry_); }

 private:
  linalg::SimdLevel entry_;
};

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

/// One solver, levels flipped between runs: dispatch is consulted at call
/// time, so the same instance must produce the same bits at every level.
void expect_stepwise_bitwise(const legal::LegalizationModel& model,
                             std::size_t iterations) {
  LevelGuard guard;
  const MmsimSolver solver(model.qp, MmsimOptions{});

  linalg::set_simd_level(linalg::SimdLevel::kScalar);
  MmsimSolver::State ref_state = solver.make_state();
  std::vector<double> ref_deltas;
  std::vector<Vector> ref_z;
  for (std::size_t it = 0; it < iterations; ++it) {
    ref_deltas.push_back(solver.step(ref_state));
    ref_z.push_back(ref_state.z);
  }

  for (const linalg::SimdLevel level : simd_levels_above_scalar()) {
    ASSERT_EQ(linalg::set_simd_level(level), level);
    MmsimSolver::State state = solver.make_state();
    for (std::size_t it = 0; it < iterations; ++it) {
      const double delta = solver.step(state);
      ASSERT_EQ(std::memcmp(&delta, &ref_deltas[it], sizeof(double)), 0)
          << linalg::simd_level_name(level) << ": delta diverged at "
          << it;
      ASSERT_TRUE(bitwise_equal(state.z, ref_z[it]))
          << linalg::simd_level_name(level) << ": z diverged at " << it;
    }
  }
}

TEST(MmsimSimdTest, StepwiseBitwiseSingleHeight) {
  expect_stepwise_bitwise(make_model(400, 0, 0.6, 3), 150);
}

TEST(MmsimSimdTest, StepwiseBitwiseMixedHeight) {
  expect_stepwise_bitwise(make_model(300, 60, 0.7, 5), 150);
}

// Triple/quad-height cells put general blocks in K: their lanes must be
// masked out of the vector primal sweep and handled by the block path.
TEST(MmsimSimdTest, StepwiseBitwiseTallBlocks) {
  expect_stepwise_bitwise(make_model(250, 40, 0.65, 9, 0.1, 0.05), 150);
}

TEST(MmsimSimdTest, SolveResultsBitwiseAcrossLevels) {
  LevelGuard guard;
  const legal::LegalizationModel model = make_model(500, 60, 0.7, 17);
  MmsimOptions options;
  options.tolerance = 1e-8;
  options.max_iterations = 50000;
  const MmsimSolver solver(model.qp, options);

  linalg::set_simd_level(linalg::SimdLevel::kScalar);
  const MmsimResult reference = solver.solve();
  ASSERT_TRUE(reference.converged);

  for (const linalg::SimdLevel level : simd_levels_above_scalar()) {
    ASSERT_EQ(linalg::set_simd_level(level), level);
    const MmsimResult result = solver.solve();
    ASSERT_TRUE(result.converged) << linalg::simd_level_name(level);
    EXPECT_EQ(result.iterations, reference.iterations)
        << linalg::simd_level_name(level);
    EXPECT_TRUE(bitwise_equal(result.z, reference.z))
        << linalg::simd_level_name(level);
    EXPECT_TRUE(bitwise_equal(result.x, reference.x))
        << linalg::simd_level_name(level);
    EXPECT_TRUE(bitwise_equal(result.dual, reference.dual))
        << linalg::simd_level_name(level);
  }
}

// The unfused (stage-by-stage) reference path also dispatches its CSR and
// block-diagonal sweeps; the whole fused/unfused/SIMD cube must agree.
TEST(MmsimSimdTest, UnfusedPathBitwiseAcrossLevels) {
  LevelGuard guard;
  const legal::LegalizationModel model = make_model(350, 50, 0.65, 29);
  MmsimOptions options;
  options.fused = false;
  const MmsimSolver solver(model.qp, options);

  linalg::set_simd_level(linalg::SimdLevel::kScalar);
  const MmsimResult reference = solver.solve();

  for (const linalg::SimdLevel level : simd_levels_above_scalar()) {
    ASSERT_EQ(linalg::set_simd_level(level), level);
    const MmsimResult result = solver.solve();
    EXPECT_EQ(result.iterations, reference.iterations)
        << linalg::simd_level_name(level);
    EXPECT_TRUE(bitwise_equal(result.z, reference.z))
        << linalg::simd_level_name(level);
  }
}

}  // namespace
}  // namespace mch::lcp
