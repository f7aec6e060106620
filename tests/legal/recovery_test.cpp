// Fault-injection tests of the legalizer's non-convergence escalation
// ladder: every rung is forced via RecoveryOptions::forced_failures (the
// same knob the MCH_FORCE_SOLVER_FAILURE .recovery ctest variant sets), and
// the degenerate-design generator supplies genuinely pathological inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "db/legality.h"
#include "design_families.h"
#include "gen/generator.h"
#include "legal/flow.h"
#include "legal/mmsim_legalizer.h"
#include "legal/row_assign.h"
#include "obs/metrics.h"

namespace mch::legal {
namespace {

db::Design small_design(std::size_t singles, std::size_t doubles,
                        double density, std::uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  opts.nets_per_cell = 0.0;
  return gen::generate_random_design(singles, doubles, density, opts);
}

/// Options with fault injection pinned to `forced` failed attempts.
/// forced > 0 also shields the test from the ambient environment variable
/// (explicit settings win in resolve_recovery_options).
MmsimLegalizerOptions forced_failure_options(std::size_t forced) {
  MmsimLegalizerOptions options;
  options.recovery.forced_failures = forced;
  return options;
}

TEST(RecoveryLadderTest, HappyPathLeavesRecoveryUntouched) {
  db::Design design = small_design(200, 30, 0.6, 11);
  const RowAssignment rows = assign_rows(design);
  // forced_failures = 0 would let MCH_FORCE_SOLVER_FAILURE leak in under
  // the .recovery variant, which is exactly what this test must not see —
  // so it disables recovery injection via an explicit no-op ladder instead.
  MmsimLegalizerOptions options;
  options.recovery.enabled = true;
  options.recovery.forced_failures = 0;
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  EXPECT_TRUE(stats.converged);
  EXPECT_FALSE(stats.recovery.attempted());
  EXPECT_EQ(stats.recovery.component_ladders, 0u);
  EXPECT_EQ(stats.recovery.ladder_attempts, 0u);
  EXPECT_EQ(stats.recovery.extra_iterations, 0u);
  EXPECT_FALSE(stats.recovery.audit_ran);
  EXPECT_TRUE(stats.recovery.failures.empty());
}

std::uint64_t solved_on(const char* rung) {
  return obs::counter("recovery.solved", "rung", rung).value();
}

// One forced failure: every component's primary attempt fails, and its own
// ladder accepts the escalated retry, warm from the failed iterate.
TEST(RecoveryLadderTest, FirstFailureRecoversOnEscalatedRung) {
  db::Design reference_design = small_design(200, 30, 0.6, 11);
  db::Design design = reference_design;
  const RowAssignment rows = assign_rows(design);
  const RowAssignment reference_rows = assign_rows(reference_design);

  const std::uint64_t escalated_before = solved_on("escalated");
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, forced_failure_options(1));
  EXPECT_TRUE(stats.converged);
  ASSERT_GT(stats.num_components, 0u);
  EXPECT_EQ(solved_on("escalated") - escalated_before, stats.num_components);
  EXPECT_EQ(stats.recovery.component_ladders, stats.num_components);
  EXPECT_EQ(stats.recovery.recovered_components, stats.num_components);
  EXPECT_EQ(stats.recovery.ladder_attempts, 2 * stats.num_components);
  EXPECT_EQ(stats.recovery.clamped_components, 0u);
  EXPECT_GT(stats.recovery.extra_iterations, 0u);
  EXPECT_TRUE(stats.recovery.audit_ran);  // recovery engaged → audited
  // The audited result is continuous, overlap-free output: no overlaps or
  // off-row placements at the audit tolerance. (audit_legal itself may be
  // false for healthy results too — the relaxed model has no right-boundary
  // constraint, so outside_chip spill is legitimate pre-snap.)
  EXPECT_FALSE(stats.recovery.audit_summary.empty());

  // The escalated retries converge to the same optimum (different θ/γ only
  // change the trajectory, not the fixed point).
  MmsimLegalizerOptions clean;
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  mmsim_legalize_continuous(reference_design, reference_rows, clean);
  for (std::size_t c = 0; c < design.num_cells(); ++c)
    EXPECT_NEAR(design.cells()[c].x, reference_design.cells()[c].x, 1e-2)
        << "cell " << c;
}

// The monolithic oracle's failure path: the failed monolithic solve is one
// ladder, and its next rung hands every component to its own ladder with
// the remaining forced failure.
TEST(RecoveryLadderTest, SecondFailureDescendsToComponentLadders) {
  db::Design design = small_design(200, 30, 0.6, 11);
  const RowAssignment rows = assign_rows(design);
  MmsimLegalizerOptions options = forced_failure_options(2);
  options.partition = PartitionMode::kOff;
  const std::uint64_t escalated_before = solved_on("escalated");
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.num_components, 0u);  // kOff partitions lazily on descent
  EXPECT_EQ(solved_on("escalated") - escalated_before, stats.num_components);
  EXPECT_EQ(stats.recovery.component_ladders, 1 + stats.num_components);
  EXPECT_EQ(stats.recovery.ladder_attempts, 1 + 2 * stats.num_components);
  EXPECT_EQ(stats.recovery.recovered_components, 1 + stats.num_components);
  EXPECT_EQ(stats.recovery.clamped_components, 0u);
  EXPECT_TRUE(stats.recovery.audit_ran);
}

TEST(RecoveryLadderTest, SecondFailureDescendsToReferenceRung) {
  db::Design design = small_design(200, 30, 0.6, 11);
  const RowAssignment rows = assign_rows(design);
  // The reference rung re-runs MMSIM unfused, so it exists only when the
  // primary attempts ran the fused kernels.
  MmsimLegalizerOptions options = forced_failure_options(2);
  options.mmsim.fused = true;
  const std::uint64_t reference_before = solved_on("reference");
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.num_components, 0u);
  // Primary and escalated attempts both forced to fail: every ladder
  // accepts the unfused reference MMSIM.
  EXPECT_EQ(solved_on("reference") - reference_before, stats.num_components);
  EXPECT_EQ(stats.recovery.component_ladders, stats.num_components);
  EXPECT_EQ(stats.recovery.ladder_attempts, 3 * stats.num_components);
  EXPECT_EQ(stats.recovery.clamped_components, 0u);
  EXPECT_TRUE(stats.recovery.audit_ran);
}

TEST(RecoveryLadderTest, ExhaustedLadderClampsToSnapPositions) {
  db::Design design = small_design(60, 10, 0.5, 13);
  const RowAssignment rows = assign_rows(design);
  // Enough forced failures to exhaust every rung of every component ladder.
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, forced_failure_options(999));
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.recovery.component_ladders, stats.num_components);
  EXPECT_EQ(stats.recovery.clamped_components, stats.num_components);
  EXPECT_GT(stats.recovery.clamped_cells, 0u);
  ASSERT_EQ(stats.recovery.failures.size(), stats.num_components);

  // Structured records: every failure names its component, its attempts,
  // and the clamped cells; the summary is renderable.
  std::size_t recorded_cells = 0;
  for (const SolveFailure& failure : stats.recovery.failures) {
    EXPECT_LT(failure.component, stats.num_components);
    EXPECT_GT(failure.attempts, 0u);
    EXPECT_FALSE(failure.cells.empty());
    EXPECT_FALSE(failure.summary().empty());
    recorded_cells += failure.cells.size();
  }
  EXPECT_EQ(recorded_cells, stats.recovery.clamped_cells);

  // Degrade contract: clamped cells sit at row-assigned snap positions —
  // gp_x clamped into the chip, y on the assigned row — never at an
  // unconverged iterate.
  const db::Chip& chip = design.chip();
  for (const SolveFailure& failure : stats.recovery.failures) {
    for (const std::size_t c : failure.cells) {
      const db::Cell& cell = design.cells()[c];
      const double snap_x = std::clamp(
          cell.gp_x, 0.0, std::max(0.0, chip.width() - cell.width));
      EXPECT_DOUBLE_EQ(cell.x, snap_x) << "cell " << c;
      EXPECT_DOUBLE_EQ(cell.y, chip.row_y(rows[c])) << "cell " << c;
    }
  }

  // The audit must have run — an exhausted ladder never ships unverified.
  EXPECT_TRUE(stats.recovery.audit_ran);
  EXPECT_FALSE(stats.recovery.audit_summary.empty());
}

TEST(RecoveryLadderTest, GenuineBudgetFailureRecoversWithoutInjection) {
  db::Design design = small_design(200, 30, 0.7, 17);
  const RowAssignment rows = assign_rows(design);
  MmsimLegalizerOptions options;
  options.mmsim.max_iterations = 1;  // genuine non-convergence
  options.recovery.budget_multiplier = 100000;
  options.recovery.forced_failures = 0;
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  const std::uint64_t escalated_before = solved_on("escalated");
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  EXPECT_TRUE(stats.converged);
  // Only Lemke components (a pivot budget of their own) converge on the
  // primary rung; every iterative component recovers on the escalated one.
  const std::size_t iterative =
      stats.components_mmsim + stats.components_psor;
  EXPECT_GT(iterative, 0u);
  EXPECT_EQ(solved_on("escalated") - escalated_before, iterative);
  EXPECT_EQ(stats.recovery.component_ladders, iterative);
  EXPECT_EQ(stats.recovery.recovered_components, iterative);
  EXPECT_TRUE(stats.recovery.audit_ran);
}

// A genuine budget miss on some components re-solves only those: the
// components that converge on the primary rung keep the bits of a
// default-budget run, and each failing one walks its own ladder.
TEST(RecoveryLadderTest, GenuineFailureResolvesOnlyFailingComponents) {
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  db::Design input = small_design(400, 60, 0.75, 29);
  const RowAssignment rows = assign_rows(input);
  ConstraintPartition partition;
  const LegalizationModel model = build_model(input, rows, {}, &partition);
  const std::size_t num = partition.num_components();
  ASSERT_GT(num, 4u);

  // Per-component iteration counts under the default budget, one
  // single-job solve each.
  const MmsimLegalizerOptions roomy;
  lcp::SolverWorkspace workspace;
  workspace.prepare(num);
  std::vector<std::size_t> counts(num);
  for (std::size_t c = 0; c < num; ++c) {
    const std::vector<ComponentSolveJob> job = {
        {&partition.component_variables[c],
         &partition.component_constraints[c], &workspace.slot(c), c}};
    lcp::Vector x(model.num_variables(), 0.0);
    MmsimLegalizerStats stats;
    solve_components(input, model, job, roomy, roomy.recovery, x, stats);
    ASSERT_TRUE(stats.converged) << "component " << c;
    counts[c] = stats.iterations;
  }

  // A budget between the median and the largest count, clear of every
  // count: the last two iterations of a budget check differently, and a
  // solve that is due to stop within the next residual-check stride (16
  // iterations) may stop on the budget's final check instead.
  std::vector<std::size_t> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  std::size_t budget = 0;
  for (std::size_t i = sorted.size() - 1; i > sorted.size() / 2; --i) {
    if (sorted[i] - sorted[i - 1] >= 40) {
      budget = sorted[i - 1] + 4;
      break;
    }
  }
  ASSERT_GT(budget, 0u) << "no usable gap between the per-component counts";
  std::size_t failing = 0;
  for (const std::size_t count : counts) failing += count > budget ? 1 : 0;
  ASSERT_GT(failing, 0u);
  ASSERT_LT(failing, num);

  db::Design reference = input;
  const MmsimLegalizerStats full =
      mmsim_legalize_continuous(reference, rows, roomy);
  ASSERT_TRUE(full.converged);

  db::Design design = input;
  MmsimLegalizerOptions tight = roomy;
  tight.mmsim.max_iterations = budget;
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, tight);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.recovery.component_ladders, failing);
  EXPECT_EQ(stats.recovery.recovered_components, failing);
  EXPECT_EQ(stats.recovery.clamped_components, 0u);
  // Recovered components reach the same optimum to solver tolerance.
  for (std::size_t c = 0; c < num; ++c) {
    for (const index_t v : partition.component_variables[c]) {
      const std::size_t cell = model.variables[v].cell;
      if (counts[c] > budget)
        ASSERT_NEAR(design.cells()[cell].x, reference.cells()[cell].x, 1e-2)
            << "component " << c << " cell " << cell;
      else
        ASSERT_EQ(design.cells()[cell].x, reference.cells()[cell].x)
            << "component " << c << " cell " << cell;
    }
  }
}

// With recovery disabled a one-iteration budget is never retried: the
// monolithic oracle surfaces converged == false with its iterate, the
// tiered path clamps every failed component to snap positions and records
// it as a SolveFailure.
class SurfacesFailurePerMode
    : public ::testing::TestWithParam<PartitionMode> {};

TEST_P(SurfacesFailurePerMode, OneIterationBudgetSurfacesNonConvergence) {
  db::Design design = small_design(150, 20, 0.7, 19);
  const RowAssignment rows = assign_rows(design);
  MmsimLegalizerOptions options;
  options.partition = GetParam();
  options.mmsim.max_iterations = 1;
  options.recovery.enabled = false;
  // Pin every tiered component onto MMSIM so the one-iteration budget is a
  // guaranteed failure (Lemke's pivot budget is separate and would succeed).
  options.policy.lemke_max_size = 0;
  options.policy.psor_for_unconstrained = false;
  const MmsimLegalizerStats stats =
      mmsim_legalize_continuous(design, rows, options);
  EXPECT_FALSE(stats.converged);
  // The failure gate still audits the write-back.
  EXPECT_TRUE(stats.recovery.audit_ran);
  if (GetParam() == PartitionMode::kOff) {
    EXPECT_EQ(stats.iterations, 1u);
    EXPECT_FALSE(stats.recovery.attempted());
    return;
  }
  ASSERT_GT(stats.num_components, 0u);
  EXPECT_EQ(stats.recovery.component_ladders, stats.num_components);
  EXPECT_EQ(stats.recovery.ladder_attempts, stats.num_components);
  EXPECT_EQ(stats.recovery.clamped_components, stats.num_components);
  ASSERT_EQ(stats.recovery.failures.size(), stats.num_components);
  const db::Chip& chip = design.chip();
  for (const SolveFailure& failure : stats.recovery.failures) {
    EXPECT_EQ(failure.attempts, 1u);
    for (const std::size_t c : failure.cells) {
      const db::Cell& cell = design.cells()[c];
      EXPECT_DOUBLE_EQ(cell.x, std::clamp(cell.gp_x, 0.0,
                                          std::max(0.0, chip.width() -
                                                            cell.width)))
          << "cell " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, SurfacesFailurePerMode,
                         ::testing::Values(PartitionMode::kOff,
                                           PartitionMode::kTiered),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// --- degenerate-design generator -------------------------------------------

// The `tall` family with fixed macros (ROADMAP.md): triple- and
// quad-height cells next to 4 macros. At seed 19 the whole solve used to
// miss its budget (30,754 iterations), escalate once, and fail the
// post-recovery audit. The active-set polish now ends the slow components
// exactly, so the first pass converges, no recovery or audit engages, and
// the flow result is legal. (Seed 16 still exhausts the ladder; the family
// in design_families.h stays without macros until that is fixed.)
TEST(TallMacrosRegressionTest, Seed19ConvergesWithoutEscalation) {
  const testing::DesignFamily tall_macros = {
      "tall_macros", 300, 30, 0.6, 4, 19, /*triple=*/0.05, /*quad=*/0.03};
  db::Design design = testing::generate(tall_macros);
  // Shield the test from the .recovery variant's fault injection: the
  // contract is about the unforced solve.
  unsetenv("MCH_FORCE_SOLVER_FAILURE");
  for (const PartitionMode mode :
       {PartitionMode::kTiered, PartitionMode::kOff}) {
    db::Design copy = design;
    FlowOptions options;
    options.solver.partition = mode;
    options.solver.recovery.forced_failures = 0;
    const FlowResult result = legalize(copy, options);
    EXPECT_TRUE(result.solver.converged) << to_string(mode);
    EXPECT_FALSE(result.solver.recovery.attempted()) << to_string(mode);
    EXPECT_FALSE(result.solver.recovery.audit_ran) << to_string(mode);
    EXPECT_GE(result.solver.components_polished, 1u) << to_string(mode);
    EXPECT_TRUE(result.legal)
        << to_string(mode) << ": " << result.legality.summary();
  }
}

TEST(DegenerateDesignTest, ModesAreDeterministicAndWellFormed) {
  for (const gen::DegenerateMode mode :
       {gen::DegenerateMode::kNearSingularCoupling,
        gen::DegenerateMode::kInfeasibleRowCapacity,
        gen::DegenerateMode::kObstacleSaturatedRows}) {
    const db::Design a = gen::generate_degenerate_design(mode, 24, 5);
    const db::Design b = gen::generate_degenerate_design(mode, 24, 5);
    ASSERT_GE(a.num_cells(), 24u) << gen::to_string(mode);
    ASSERT_EQ(a.num_cells(), b.num_cells());
    for (std::size_t c = 0; c < a.num_cells(); ++c) {
      EXPECT_EQ(a.cells()[c].x, b.cells()[c].x);
      EXPECT_EQ(a.cells()[c].gp_x, a.cells()[c].x);  // committed as GP
    }
    // Pathological by construction: the GP input is not legal.
    const db::LegalityReport report = db::check_legality(a);
    EXPECT_FALSE(report.legal()) << gen::to_string(mode);
  }
}

TEST(DegenerateDesignTest, InfeasibleRowCapacityExceedsChipCapacity) {
  const db::Design design = gen::generate_degenerate_design(
      gen::DegenerateMode::kInfeasibleRowCapacity, 32, 7);
  double movable_area = 0.0;
  for (const db::Cell& cell : design.cells())
    movable_area += cell.width * static_cast<double>(cell.height_rows) *
                    design.chip().row_height;
  const double chip_area = design.chip().width() *
                           static_cast<double>(design.chip().num_rows) *
                           design.chip().row_height;
  EXPECT_GT(movable_area, 1.2 * chip_area);
}

TEST(DegenerateDesignTest, LadderDegradesGracefullyOnPathologicalInputs) {
  // The recovery contract on designs that genuinely cannot legalize: the
  // solve completes (no throw), and if anything failed, it is audited and
  // recorded rather than silent.
  for (const gen::DegenerateMode mode :
       {gen::DegenerateMode::kNearSingularCoupling,
        gen::DegenerateMode::kInfeasibleRowCapacity,
        gen::DegenerateMode::kObstacleSaturatedRows}) {
    db::Design design = gen::generate_degenerate_design(mode, 24, 3);
    const RowAssignment rows = assign_rows(design);
    MmsimLegalizerOptions options;
    options.mmsim.max_iterations = 2000;  // modest budget
    const MmsimLegalizerStats stats =
        mmsim_legalize_continuous(design, rows, options);
    if (!stats.converged || stats.recovery.attempted()) {
      EXPECT_TRUE(stats.recovery.audit_ran) << gen::to_string(mode);
      EXPECT_EQ(stats.recovery.clamped_cells >= 1,
                !stats.recovery.failures.empty())
          << gen::to_string(mode);
    }
    // Clamped cells (if any) are snapped inside the chip, never left at an
    // unconverged iterate. (Non-clamped continuous output may legitimately
    // spill past the right boundary — the allocation stage repairs that.)
    for (const SolveFailure& failure : stats.recovery.failures) {
      for (const std::size_t c : failure.cells) {
        const db::Cell& cell = design.cells()[c];
        EXPECT_GE(cell.x, -1e-9) << gen::to_string(mode);
        EXPECT_LE(cell.x + cell.width, design.chip().width() + 1e-9)
            << gen::to_string(mode);
      }
    }
  }
}

}  // namespace
}  // namespace mch::legal
