// Options plumbing and cross-module consistency checks for the experiment
// runner: custom solver options must reach the MMSIM, and the metrics the
// runner reports must agree with direct computation.
#include <gtest/gtest.h>

#include "eval/suite_runner.h"

namespace mch::eval {
namespace {

db::Design small_design(std::uint64_t seed) {
  gen::GeneratorOptions options;
  options.seed = seed;
  return gen::generate_random_design(400, 50, 0.6, options);
}

TEST(SuiteRunnerOptionsTest, CustomLambdaReachesTheModel) {
  // A tiny λ leaves visible subcell mismatch, which the Tetris allocation
  // then fixes; the run must still be legal but typically needs more
  // allocation repairs than the λ=1000 default.
  db::Design design = small_design(1);
  legal::FlowOptions loose;
  loose.solver.model.lambda = 1.0;
  const RunResult loose_run = run_legalizer(design, Legalizer::kMmsim, loose);
  EXPECT_TRUE(loose_run.legal) << loose_run.legality_summary;

  legal::FlowOptions tight;
  tight.solver.model.lambda = 1000.0;
  const RunResult tight_run = run_legalizer(design, Legalizer::kMmsim, tight);
  EXPECT_TRUE(tight_run.legal);
  EXPECT_GE(loose_run.illegal_after_solver, tight_run.illegal_after_solver);
}

TEST(SuiteRunnerOptionsTest, CustomToleranceChangesIterations) {
  // The tolerance reaches the MMSIM. With the residual check off, the
  // solves stop at the first small delta, so a coarser tolerance must stop
  // strictly earlier. With it on (the default), the active-set polish ends
  // most component solves at the same exact KKT point whatever the
  // tolerance, so the coarse run may tie but never run longer.
  db::Design design = small_design(2);
  const auto run = [&](double tolerance, bool residual_check) {
    legal::FlowOptions options;
    options.solver.mmsim.tolerance = tolerance;
    options.solver.mmsim.residual_check = residual_check;
    db::Design copy = design;
    return run_legalizer(copy, Legalizer::kMmsim, options);
  };
  const RunResult coarse_run = run(1e-2, false);
  const RunResult fine_run = run(1e-8, false);
  EXPECT_LT(coarse_run.solver_iterations, fine_run.solver_iterations);
  EXPECT_EQ(coarse_run.solver_components_polished, 0u);
  EXPECT_TRUE(coarse_run.legal);
  EXPECT_TRUE(fine_run.legal);

  const RunResult coarse_checked = run(1e-2, true);
  const RunResult fine_checked = run(1e-8, true);
  EXPECT_LE(coarse_checked.solver_iterations, fine_checked.solver_iterations);
  EXPECT_GT(fine_checked.solver_components_polished, 0u);
  EXPECT_TRUE(coarse_checked.legal);
  EXPECT_TRUE(fine_checked.legal);
}

TEST(SuiteRunnerOptionsTest, ReportedMetricsMatchDirectComputation) {
  db::Design design = small_design(3);
  const RunResult result = run_legalizer(design, Legalizer::kMmsim);
  // The design still holds the final placement; recompute directly.
  EXPECT_DOUBLE_EQ(result.disp.total_sites,
                   displacement(design).total_sites);
  EXPECT_DOUBLE_EQ(result.hpwl, hpwl(design));
  EXPECT_DOUBLE_EQ(result.gp_hpwl, gp_hpwl(design));
  EXPECT_NEAR(result.delta_hpwl,
              (result.hpwl - result.gp_hpwl) / result.gp_hpwl, 1e-12);
}

TEST(SuiteRunnerOptionsTest, MacroDesignsRunThroughMmsimAndLocal) {
  gen::GeneratorOptions options;
  options.seed = 4;
  options.fixed_macros = 4;
  db::Design design = gen::generate_random_design(400, 40, 0.5, options);
  design.name = "macros";
  for (const auto which :
       {Legalizer::kMmsim, Legalizer::kTetris, Legalizer::kLocalBase}) {
    const RunResult result = run_legalizer(design, which);
    EXPECT_TRUE(result.legal)
        << to_string(which) << ": " << result.legality_summary;
  }
}

}  // namespace
}  // namespace mch::eval
