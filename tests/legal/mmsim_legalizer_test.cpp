#include "legal/mmsim_legalizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/abacus.h"
#include "db/legality.h"
#include "design_families.h"
#include "gen/generator.h"
#include "legal/flow.h"

namespace mch::legal {
namespace {

db::Design small_design(std::size_t singles, std::size_t doubles,
                        double density, std::uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  opts.nets_per_cell = 0.0;
  return gen::generate_random_design(singles, doubles, density, opts);
}

TEST(MmsimLegalizerTest, ProducesRowAlignedOverlapFreeContinuousResult) {
  db::Design design = small_design(300, 40, 0.6, 3);
  const RowAssignment rows = assign_rows(design);
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.iterations, 0u);

  // Continuous output: y on rows, x possibly off-site but overlap-free up
  // to the solver tolerance and subcell mismatch.
  db::LegalityOptions options;
  options.require_site_alignment = false;
  options.tolerance = 1e-2;
  const db::LegalityReport report = db::check_legality(design, options);
  EXPECT_EQ(report.overlaps, 0u) << report.summary();
  EXPECT_EQ(report.off_row, 0u);
  EXPECT_EQ(report.rail_mismatches, 0u);
}

TEST(MmsimLegalizerTest, LambdaSuppressesSubcellMismatch) {
  double previous = 1e18;
  for (const double lambda : {1.0, 100.0, 10000.0}) {
    db::Design design = small_design(100, 40, 0.8, 5);
    const RowAssignment rows = assign_rows(design);
    MmsimLegalizerOptions options;
    options.model.lambda = lambda;
    options.mmsim.tolerance = 1e-7;
    options.mmsim.max_iterations = 150000;
    const MmsimLegalizerStats stats =
        mmsim_legalize_continuous(design, rows, options);
    EXPECT_TRUE(stats.converged) << "lambda " << lambda;
    EXPECT_LE(stats.max_mismatch, previous + 1e-9) << "lambda " << lambda;
    previous = stats.max_mismatch;
  }
  // At the paper's λ = 1000+ the mismatch is far below a site width.
  EXPECT_LT(previous, 1e-2);
}

TEST(MmsimLegalizerTest, MatchesPlaceRowOnSingleHeightFixedRows) {
  // The §5.3 equivalence at the solver level, before any site snapping.
  db::Design mmsim_design = small_design(250, 0, 0.7, 7);
  db::Design placerow_design = mmsim_design;

  const RowAssignment rows = assign_rows(mmsim_design);
  MmsimLegalizerOptions options;
  options.mmsim.tolerance = 1e-9;
  options.mmsim.max_iterations = 200000;
  mmsim_legalize_continuous(mmsim_design, rows, options);

  baselines::placerow_legalize_fixed_rows(placerow_design,
                                          /*clamp_right_boundary=*/false);

  for (std::size_t i = 0; i < mmsim_design.num_cells(); ++i)
    EXPECT_NEAR(mmsim_design.cells()[i].x, placerow_design.cells()[i].x,
                1e-4)
        << "cell " << i;
}

TEST(MmsimLegalizerTest, AutoThetaConvergesToSameSolution) {
  db::Design a = small_design(120, 20, 0.6, 9);
  db::Design b = a;
  const RowAssignment rows_a = assign_rows(a);
  const RowAssignment rows_b = assign_rows(b);

  MmsimLegalizerOptions fixed;
  fixed.mmsim.tolerance = 1e-8;
  const MmsimLegalizerStats sa = mmsim_legalize_continuous(a, rows_a, fixed);

  MmsimLegalizerOptions automatic = fixed;
  automatic.auto_theta = true;
  const MmsimLegalizerStats sb =
      mmsim_legalize_continuous(b, rows_b, automatic);

  EXPECT_TRUE(sa.converged);
  EXPECT_TRUE(sb.converged);
  EXPECT_GT(sb.theta_used, 0.0);
  for (std::size_t i = 0; i < a.num_cells(); ++i)
    EXPECT_NEAR(a.cells()[i].x, b.cells()[i].x, 1e-4);
}

TEST(MmsimLegalizerTest, StatsPopulated) {
  db::Design design = small_design(150, 20, 0.6, 11);
  const RowAssignment rows = assign_rows(design);
  const MmsimLegalizerStats stats = mmsim_legalize_continuous(design, rows);
  EXPECT_EQ(stats.num_variables, 150u + 2 * 20u);
  EXPECT_GT(stats.num_constraints, 0u);
  EXPECT_GT(stats.solve_seconds, 0.0);
  EXPECT_LT(stats.objective, 0.0);  // ½‖x‖²−xᵀx' < 0 near the targets
}

// Warm starting lives in solve_components (the session's ECO path, slots
// keyed by the caller) and is an iteration-count optimization, never a
// result-quality change: re-solving through the same slots must converge
// to the cold solution up to the solver tolerance.
TEST(MmsimLegalizerTest, TieredWarmStartConvergesToColdSolution) {
  db::Design design = small_design(400, 60, 0.7, 19);
  const RowAssignment rows = assign_rows(design);
  ConstraintPartition partition;
  const LegalizationModel model =
      build_model(design, rows, {}, &partition);
  ASSERT_GT(partition.num_components(), 1u);

  MmsimLegalizerOptions options;
  options.mmsim.tolerance = 1e-7;
  options.mmsim.max_iterations = 150000;
  lcp::SolverWorkspace workspace;
  workspace.prepare(partition.num_components());
  std::vector<ComponentSolveJob> jobs(partition.num_components());
  for (std::size_t c = 0; c < jobs.size(); ++c)
    jobs[c] = {&partition.component_variables[c],
               &partition.component_constraints[c], &workspace.slot(c), c};

  // The first pass finds every slot empty; the second starts every
  // component from the final iterate the first one stored.
  lcp::Vector cold_x(model.num_variables(), 0.0);
  MmsimLegalizerStats cold;
  const ComponentSolveReport cold_report = solve_components(
      design, model, jobs, options, options.recovery, cold_x, cold);
  ASSERT_TRUE(cold.converged);
  EXPECT_EQ(cold_report.warm_started, 0u);
  lcp::Vector warm_x(model.num_variables(), 0.0);
  MmsimLegalizerStats warm;
  const ComponentSolveReport warm_report = solve_components(
      design, model, jobs, options, options.recovery, warm_x, warm);
  ASSERT_TRUE(warm.converged);
  // Every component starts warm.
  EXPECT_EQ(warm_report.warm_started, jobs.size());
  EXPECT_GT(warm_report.warm_started, 0u);

  // Same tolerance, same fixed point: solutions agree to solver tolerance.
  for (std::size_t v = 0; v < cold_x.size(); ++v)
    EXPECT_NEAR(warm_x[v], cold_x[v], 1e-4) << "variable " << v;
  // Warm starting from the converged s of an identical solve should not
  // take more iterations than the cold critical path.
  EXPECT_LE(warm.iterations, cold.iterations);
  EXPECT_LT(warm.component_iterations, cold.component_iterations);
}

// A one-shot legalize is a pure function of (design, options): the
// thread-local solver arena it reuses carries buffers, never a warm start,
// from one call to the next. Legalizing A, then B, then B again on one
// thread must give B bitwise the result of a fresh thread's first call.
TEST(MmsimLegalizerTest, OneShotHasNoCallHistory) {
  const db::Design a = small_design(300, 40, 0.7, 23);
  const db::Design b = small_design(300, 40, 0.7, 29);

  db::Design fresh = b;
  FlowResult fresh_result;
  std::thread([&] { fresh_result = legalize(fresh); }).join();

  db::Design scratch = a;
  legalize(scratch);
  for (int pass = 0; pass < 2; ++pass) {
    db::Design repeat = b;
    const FlowResult result = legalize(repeat);
    EXPECT_EQ(result.solver.iterations, fresh_result.solver.iterations)
        << "pass " << pass;
    EXPECT_EQ(result.solver.component_iterations,
              fresh_result.solver.component_iterations)
        << "pass " << pass;
    for (std::size_t i = 0; i < repeat.num_cells(); ++i) {
      ASSERT_EQ(repeat.cells()[i].x, fresh.cells()[i].x)
          << "pass " << pass << " cell " << i;
      ASSERT_EQ(repeat.cells()[i].y, fresh.cells()[i].y)
          << "pass " << pass << " cell " << i;
    }
  }
}

TEST(MmsimLegalizerTest, PreservesCellOrderingWithinRows) {
  // The key property motivating the whole approach (paper Fig. 5(b)).
  db::Design design = small_design(500, 80, 0.8, 13);
  const RowAssignment rows = assign_rows(design);
  db::Design input = design;
  mmsim_legalize_continuous(design, rows);

  // For every pair of cells sharing a row with known GP order, the final
  // x order must match.
  for (std::size_t i = 0; i < design.num_cells(); ++i)
    for (std::size_t j = i + 1; j < design.num_cells(); ++j) {
      const db::Cell& a = design.cells()[i];
      const db::Cell& b = design.cells()[j];
      const bool share_row =
          rows[i] < rows[j] + b.height_rows && rows[j] < rows[i] + a.height_rows;
      if (!share_row) continue;
      const double gp_a = input.cells()[i].gp_x;
      const double gp_b = input.cells()[j].gp_x;
      if (gp_a == gp_b) continue;
      const bool gp_before = gp_a < gp_b || (gp_a == gp_b && i < j);
      if (gp_before)
        EXPECT_LE(a.x, b.x + 1e-6) << i << " vs " << j;
      else
        EXPECT_LE(b.x, a.x + 1e-6) << i << " vs " << j;
    }
}

// The §5.3 equivalence swept over seeds and densities: on single-height
// designs every row is its own component, and the default tiered solve of
// each must reach the exact PlaceRow optimum.
struct SingleHeightCase {
  const char* name;
  std::size_t cells;
  double density;
  std::uint64_t seed;
};

// gtest prints a parameter without one as its raw bytes, pointer included,
// which makes the registered test names differ from build to build.
void PrintTo(const SingleHeightCase& c, std::ostream* os) { *os << c.name; }

class SingleHeightOracleTest
    : public ::testing::TestWithParam<SingleHeightCase> {};

TEST_P(SingleHeightOracleTest, TieredMatchesPlaceRow) {
  const SingleHeightCase& param = GetParam();
  db::Design mmsim_design =
      small_design(param.cells, 0, param.density, param.seed);
  db::Design placerow_design = mmsim_design;

  const RowAssignment rows = assign_rows(mmsim_design);
  MmsimLegalizerOptions options;
  options.mmsim.tolerance = 1e-9;
  options.mmsim.max_iterations = 200000;
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(mmsim_design, rows, options);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.num_components, 1u);  // the tiered path ran

  baselines::placerow_legalize_fixed_rows(placerow_design,
                                          /*clamp_right_boundary=*/false);
  for (std::size_t i = 0; i < mmsim_design.num_cells(); ++i) {
    EXPECT_NEAR(mmsim_design.cells()[i].x, placerow_design.cells()[i].x,
                1e-4)
        << "cell " << i;
    EXPECT_EQ(mmsim_design.cells()[i].y, placerow_design.cells()[i].y)
        << "cell " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SingleHeightOracleTest,
    ::testing::Values(SingleHeightCase{"sparse", 250, 0.3, 41},
                      SingleHeightCase{"half", 250, 0.5, 42},
                      SingleHeightCase{"dense", 250, 0.8, 43},
                      SingleHeightCase{"full", 250, 0.95, 44},
                      SingleHeightCase{"few_cells", 40, 0.6, 45},
                      SingleHeightCase{"more_cells", 600, 0.7, 46}),
    [](const auto& info) { return std::string(info.param.name); });

// OneShotHasNoCallHistory on every design family: after legalizing an
// unrelated design and then the family's design on this thread, a repeat
// of the family's design is bitwise a fresh thread's first call.
class FamilyOneShotTest
    : public ::testing::TestWithParam<testing::DesignFamily> {};

TEST_P(FamilyOneShotTest, HasNoCallHistory) {
  const db::Design design = testing::generate(GetParam());

  db::Design fresh = design;
  FlowResult fresh_result;
  std::thread([&] { fresh_result = legalize(fresh); }).join();
  if (std::string(GetParam().name) == "dense_macros") {
    // Known defect (ROADMAP.md item 7): the allocation finds no
    // free position for cell 335, leaving 2 overlaps. Pinned exactly, so
    // that a fix and a regression both trip this.
    EXPECT_FALSE(fresh_result.legal);
    EXPECT_EQ(fresh_result.allocation.unplaced_cells, 1u);
    EXPECT_EQ(fresh_result.legality.overlaps, 2u);
    EXPECT_EQ(fresh_result.legality.total_violations, 2u);
  } else {
    EXPECT_TRUE(fresh_result.legal) << fresh_result.legality.summary();
  }

  db::Design unrelated = small_design(300, 40, 0.7, 23);
  legalize(unrelated);
  for (int pass = 0; pass < 2; ++pass) {
    db::Design repeat = design;
    const FlowResult result = legalize(repeat);
    EXPECT_EQ(result.legal, fresh_result.legal) << "pass " << pass;
    EXPECT_EQ(result.solver.iterations, fresh_result.solver.iterations)
        << "pass " << pass;
    EXPECT_EQ(result.solver.component_iterations,
              fresh_result.solver.component_iterations)
        << "pass " << pass;
    for (std::size_t i = 0; i < repeat.num_cells(); ++i) {
      ASSERT_EQ(repeat.cells()[i].x, fresh.cells()[i].x)
          << "pass " << pass << " cell " << i;
      ASSERT_EQ(repeat.cells()[i].y, fresh.cells()[i].y)
          << "pass " << pass << " cell " << i;
      ASSERT_EQ(repeat.cells()[i].flipped, fresh.cells()[i].flipped)
          << "pass " << pass << " cell " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyOneShotTest,
                         ::testing::ValuesIn(testing::kDesignFamilies),
                         testing::FamilyName());

}  // namespace
}  // namespace mch::legal
