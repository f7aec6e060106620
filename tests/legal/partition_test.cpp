// Partitioner tests: component membership on hand-built designs whose rows
// are split by obstacles, sub-problem extraction, the solve-invariance
// guarantee of the partitioned legalizer (tiered == monolithic to solver
// tolerance), and MMSIM against the Lemke oracle on small and row-free
// components, the last three also swept over the generated design families.
#include "legal/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "design_families.h"
#include "gen/generator.h"
#include "lcp/lemke.h"
#include "legal/mmsim_legalizer.h"
#include "legal/model.h"
#include "legal/row_assign.h"
#include "util/rng.h"

namespace mch::legal {
namespace {

db::Chip two_row_chip() {
  db::Chip chip;
  chip.num_rows = 2;
  chip.num_sites = 100;
  chip.site_width = 1.0;
  chip.row_height = 10.0;
  return chip;
}

void add_movable(db::Design& design, double width, double gp_x, double gp_y) {
  db::Cell cell;
  cell.width = width;
  cell.gp_x = gp_x;
  cell.gp_y = gp_y;
  design.add_cell(cell);
}

void add_obstacle(db::Design& design, double x, double y, double width) {
  db::Cell cell;
  cell.fixed = true;
  cell.width = width;
  cell.x = x;
  cell.y = y;
  cell.gp_x = x;
  cell.gp_y = y;
  design.add_cell(cell);
}

/// Row 0: a, b | obstacle | c, d.  Row 1: e, f.  Three components.
db::Design split_row_design() {
  db::Design design(two_row_chip());
  add_movable(design, 3.0, 5.0, 0.0);    // a → var 0
  add_movable(design, 3.0, 12.0, 0.0);   // b → var 1
  add_movable(design, 3.0, 40.0, 0.0);   // c → var 2 (right of obstacle)
  add_movable(design, 3.0, 48.0, 0.0);   // d → var 3
  add_movable(design, 3.0, 8.0, 10.0);   // e → var 4
  add_movable(design, 3.0, 15.0, 10.0);  // f → var 5
  add_obstacle(design, 20.0, 0.0, 10.0);
  return design;
}

TEST(PartitionTest, ObstacleSplitsRowIntoComponents) {
  db::Design design = split_row_design();
  const RowAssignment rows = assign_rows(design);
  const LegalizationModel model = build_model(design, rows);
  ASSERT_EQ(model.num_variables(), 6u);
  // Constraints: a-b chain, obstacle bound on c, c-d chain, e-f chain.
  ASSERT_EQ(model.qp.num_constraints(), 4u);

  const ConstraintPartition partition = partition_model(model);
  ASSERT_EQ(partition.num_components(), 3u);
  EXPECT_EQ(partition.variable_component,
            (std::vector<mch::index_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(partition.component_variables[0],
            (std::vector<mch::index_t>{0, 1}));
  EXPECT_EQ(partition.component_variables[1],
            (std::vector<mch::index_t>{2, 3}));
  EXPECT_EQ(partition.component_variables[2],
            (std::vector<mch::index_t>{4, 5}));
  EXPECT_EQ(partition.constraint_component,
            (std::vector<mch::index_t>{0, 1, 1, 2}));
  EXPECT_EQ(partition.component_constraints[1],
            (std::vector<mch::index_t>{1, 2}));

  EXPECT_EQ(partition.component_size(0), 3u);  // 2 vars + 1 constraint
  EXPECT_EQ(partition.component_size(1), 4u);
  EXPECT_EQ(partition.max_component_size(), 4u);
  EXPECT_DOUBLE_EQ(partition.mean_component_size(), 10.0 / 3.0);
}

TEST(PartitionTest, TallCellBridgesRows) {
  db::Design design = split_row_design();
  // A double-height cell left of the obstacle chains into row 0 (with a, b)
  // and row 1 (with e, f), merging their components.
  db::Cell tall;
  tall.width = 2.0;
  tall.height_rows = 2;
  tall.bottom_rail = db::RailType::kVss;
  tall.gp_x = 2.0;
  tall.gp_y = 0.0;
  design.add_cell(tall);

  const RowAssignment rows = assign_rows(design);
  const LegalizationModel model = build_model(design, rows);
  const ConstraintPartition partition = partition_model(model);
  ASSERT_EQ(partition.num_components(), 2u);
  // {tall, a, b, e, f} together; {c, d} still isolated by the obstacle.
  const std::size_t cd_component = partition.variable_component[2];
  EXPECT_EQ(partition.component_variables[cd_component],
            (std::vector<mch::index_t>{2, 3}));
  EXPECT_EQ(partition.variable_component[0],
            partition.variable_component[4]);
}

TEST(PartitionTest, ComponentProblemExtraction) {
  db::Design design = split_row_design();
  const RowAssignment rows = assign_rows(design);
  const LegalizationModel model = build_model(design, rows);
  const ConstraintPartition partition = partition_model(model);

  // Component {c, d}: the obstacle bound on c plus the c-d chain.
  const ComponentProblem component = model.component_problem(
      partition.component_variables[1], partition.component_constraints[1]);
  EXPECT_EQ(component.variables, (std::vector<mch::index_t>{2, 3}));
  EXPECT_EQ(component.constraints, (std::vector<mch::index_t>{1, 2}));
  ASSERT_EQ(component.qp.num_variables(), 2u);
  ASSERT_EQ(component.qp.num_constraints(), 2u);
  EXPECT_EQ(component.qp.p, (lcp::Vector{-40.0, -48.0}));
  // Row 0: obstacle bound x_c ≥ 30 (obstacle end). Row 1: x_d − x_c ≥ w_c.
  EXPECT_DOUBLE_EQ(component.qp.B.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(component.qp.B.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(component.qp.B.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(component.qp.B.at(1, 1), 1.0);
  EXPECT_EQ(component.qp.b, (lcp::Vector{30.0, 3.0}));
  // Global rows 1 and 2 are adjacent, so only the leading break is set.
  EXPECT_EQ(component.schur_coupling_breaks,
            (std::vector<bool>{true, false}));
}

db::Design invariance_design() {
  gen::GeneratorOptions options;
  options.seed = 11;
  options.nets_per_cell = 0.0;
  options.fixed_macros = 6;
  return gen::generate_random_design(300, 40, 0.6, options);
}

MmsimLegalizerStats run_mode(const db::Design& base, PartitionMode mode,
                             db::Design& out, bool auto_theta = false) {
  out = base;
  const RowAssignment rows = assign_rows(out);
  MmsimLegalizerOptions options;
  options.partition = mode;
  options.auto_theta = auto_theta;
  return mmsim_legalize_continuous(out, rows, options);
}

// The θ probe runs on the monolithic system in both modes.
TEST(PartitionTest, AutoThetaIsModeIndependent) {
  const db::Design base = invariance_design();
  db::Design mono, part;
  const MmsimLegalizerStats off =
      run_mode(base, PartitionMode::kOff, mono, /*auto_theta=*/true);
  const MmsimLegalizerStats tiered =
      run_mode(base, PartitionMode::kTiered, part, /*auto_theta=*/true);
  EXPECT_EQ(off.theta_used, tiered.theta_used);
  EXPECT_TRUE(tiered.converged);
}

TEST(PartitionTest, TieredMatchesMonolithicWithinTolerance) {
  const db::Design base = invariance_design();
  db::Design mono, part;
  const MmsimLegalizerStats off = run_mode(base, PartitionMode::kOff, mono);
  const MmsimLegalizerStats tiered =
      run_mode(base, PartitionMode::kTiered, part);

  ASSERT_GT(tiered.num_components, 1u);
  EXPECT_TRUE(tiered.converged);
  EXPECT_EQ(tiered.components_mmsim, tiered.num_components);
  EXPECT_EQ(tiered.components_psor + tiered.components_lemke, 0u);
  // Independent termination: small components stop early, so the summed
  // iteration count beats every-component-runs-to-the-global-stop.
  EXPECT_LT(tiered.component_iterations,
            off.iterations * tiered.num_components);
  EXPECT_NEAR(tiered.objective, off.objective,
              1e-6 * (1.0 + std::abs(off.objective)));
  for (std::size_t c = 0; c < mono.num_cells(); ++c)
    EXPECT_NEAR(mono.cells()[c].x, part.cells()[c].x, 1e-2) << "cell " << c;
}

void expect_same_partition(const ConstraintPartition& a,
                           const ConstraintPartition& b) {
  EXPECT_EQ(a.variable_component, b.variable_component);
  EXPECT_EQ(a.constraint_component, b.constraint_component);
  EXPECT_EQ(a.component_variables, b.component_variables);
  EXPECT_EQ(a.component_constraints, b.component_constraints);
}

/// Applies an ECO batch the way the service layer does — db helpers plus
/// delta tracking — and returns the delta. `rows` is updated in place.
PartitionDelta apply_eco(db::Design& design, RowAssignment& rows,
                         const std::vector<std::size_t>& moves,
                         const std::vector<double>& gp_x,
                         const std::vector<double>& gp_y) {
  PartitionDelta delta;
  delta.affected_rows.assign(design.chip().num_rows, 0);
  const auto mark = [&](std::size_t first, std::size_t count) {
    for (std::size_t r = first;
         r < std::min(first + count, design.chip().num_rows); ++r)
      delta.affected_rows[r] = 1;
  };
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const std::size_t id = moves[i];
    mark(rows[id], design.cells()[id].height_rows);
    design.move_cell(id, gp_x[i], gp_y[i]);
    rows[id] = design.nearest_legal_row(design.cells()[id]);
    mark(rows[id], design.cells()[id].height_rows);
  }
  delta.touched_cells.assign(design.num_cells(), 0);
  for (const std::size_t id : moves) delta.touched_cells[id] = 1;
  return delta;
}

TEST(PartitionTest, RepartitionMatchesScratchOnHandBuiltMove) {
  db::Design design = split_row_design();
  RowAssignment rows = assign_rows(design);
  const LegalizationModel before = build_model(design, rows);
  const ConstraintPartition part_before = partition_model(before);
  ASSERT_EQ(part_before.num_components(), 3u);

  // Move c from right of the obstacle into row 1: components merge.
  const PartitionDelta delta =
      apply_eco(design, rows, {2}, {8.0}, {10.0});
  const LegalizationModel after = build_model(design, rows);
  expect_same_partition(
      repartition_model(after, before, part_before, delta),
      partition_model(after));
}

TEST(PartitionTest, RepartitionMatchesScratchOnRandomEcoStream) {
  gen::GeneratorOptions options;
  options.seed = 31;
  db::Design design = gen::generate_random_design(1800, 200, 0.7, options);
  RowAssignment rows = assign_rows(design);
  LegalizationModel model = build_model(design, rows);
  ConstraintPartition partition = partition_model(model);
  ASSERT_GT(partition.num_components(), 1u);

  Rng rng(57);
  for (int batch = 0; batch < 4; ++batch) {
    std::vector<std::size_t> moves;
    std::vector<double> gp_x;
    std::vector<double> gp_y;
    while (moves.size() < 7) {
      const auto id = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(design.num_cells()) - 1));
      if (design.cells()[id].fixed) continue;
      moves.push_back(id);
      gp_x.push_back(design.cells()[id].gp_x +
                     rng.normal(0.0, 8.0 * design.chip().site_width));
      gp_y.push_back(design.cells()[id].gp_y +
                     rng.normal(0.0, 1.5 * design.chip().row_height));
    }
    const PartitionDelta delta = apply_eco(design, rows, moves, gp_x, gp_y);
    LegalizationModel after = build_model(design, rows);
    const ConstraintPartition scratch = partition_model(after);
    expect_same_partition(
        repartition_model(after, model, partition, delta), scratch);
    model = std::move(after);
    partition = scratch;
  }
}

class FamilyPartitionTest
    : public ::testing::TestWithParam<testing::DesignFamily> {};

// The canonical partition is an exact cover: every variable and every
// constraint row sits in exactly one component, every row of B only couples
// variables of its own component, and the index lists are sorted with
// components ordered by their smallest variable.
TEST_P(FamilyPartitionTest, IsCanonicalExactCover) {
  db::Design design = testing::generate(GetParam());
  const RowAssignment rows = assign_rows(design);
  const LegalizationModel model = build_model(design, rows);
  const ConstraintPartition partition = partition_model(model);
  const std::size_t n = model.num_variables();
  const std::size_t m = model.qp.num_constraints();
  ASSERT_EQ(partition.variable_component.size(), n);
  ASSERT_EQ(partition.constraint_component.size(), m);
  ASSERT_EQ(partition.component_constraints.size(),
            partition.num_components());

  std::vector<int> variable_seen(n, 0);
  std::vector<int> constraint_seen(m, 0);
  for (std::size_t c = 0; c < partition.num_components(); ++c) {
    const auto& vars = partition.component_variables[c];
    ASSERT_FALSE(vars.empty()) << "component " << c;
    EXPECT_TRUE(std::is_sorted(vars.begin(), vars.end())) << "component " << c;
    if (c > 0) {
      EXPECT_LT(partition.component_variables[c - 1].front(), vars.front());
    }
    for (const index_t v : vars) {
      ++variable_seen[v];
      EXPECT_EQ(partition.variable_component[v], c) << "variable " << v;
    }
    const auto& cons = partition.component_constraints[c];
    EXPECT_TRUE(std::is_sorted(cons.begin(), cons.end())) << "component " << c;
    for (const index_t k : cons) {
      ++constraint_seen[k];
      EXPECT_EQ(partition.constraint_component[k], c) << "row " << k;
    }
  }
  EXPECT_EQ(std::count(variable_seen.begin(), variable_seen.end(), 1),
            static_cast<std::ptrdiff_t>(n));
  EXPECT_EQ(std::count(constraint_seen.begin(), constraint_seen.end(), 1),
            static_cast<std::ptrdiff_t>(m));

  const auto& row_ptr = model.qp.B.row_ptr();
  const auto& col_idx = model.qp.B.col_idx();
  for (std::size_t k = 0; k < m; ++k)
    for (std::size_t e = row_ptr[k]; e < row_ptr[k + 1]; ++e)
      EXPECT_EQ(partition.variable_component[col_idx[e]],
                partition.constraint_component[k])
          << "row " << k << " column " << col_idx[e];
}

// The oracle contract on every family: the default tiered solve and the
// monolithic kOff solve reach the same optimum to solver tolerance.
TEST_P(FamilyPartitionTest, TieredMatchesMonolithicWithinTolerance) {
  const db::Design base = testing::generate(GetParam());
  db::Design mono, part;
  const MmsimLegalizerStats off = run_mode(base, PartitionMode::kOff, mono);
  const MmsimLegalizerStats tiered =
      run_mode(base, PartitionMode::kTiered, part);

  EXPECT_TRUE(off.converged);
  EXPECT_TRUE(tiered.converged);
  EXPECT_EQ(tiered.components_mmsim, tiered.num_components);
  EXPECT_EQ(tiered.components_psor + tiered.components_lemke, 0u);
  EXPECT_NEAR(tiered.objective, off.objective,
              1e-6 * (1.0 + std::abs(off.objective)));
  for (std::size_t c = 0; c < mono.num_cells(); ++c) {
    EXPECT_NEAR(mono.cells()[c].x, part.cells()[c].x, 1e-2) << "cell " << c;
    EXPECT_EQ(mono.cells()[c].y, part.cells()[c].y) << "cell " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FamilyPartitionTest,
                         ::testing::ValuesIn(testing::kDesignFamilies),
                         testing::FamilyName());

class SmallComponentOracleTest
    : public ::testing::TestWithParam<testing::DesignFamily> {};

// The shapes once routed away from MMSIM — components of KKT size
// n + m ≤ 32 (once Lemke's) and components without spacing rows (once
// PSOR's) — now take the production MMSIM solve through solve_components
// like every other component, and must match the exact Lemke solution of
// the same extracted QP: x to 1e-9 where the solve polished, and else to
// 1e-6 on the scale 1 + ‖x‖∞ that MMSIM's stopping residual is measured
// on (an unpolished macros component at x ≈ 213 is off by 2.6e-6).
TEST_P(SmallComponentOracleTest, MmsimMatchesLemkeOnSmallAndRowFreeComponents) {
  db::Design design = testing::generate(GetParam());
  const RowAssignment rows = assign_rows(design);
  ConstraintPartition partition;
  const LegalizationModel model = build_model(design, rows, {}, &partition);
  const MmsimLegalizerOptions options;
  const lcp::RecoveryOptions recovery =
      lcp::resolve_recovery_options(options.recovery);
  const std::size_t num = partition.num_components();
  lcp::SolverWorkspace workspace;
  workspace.prepare(num);
  std::size_t checked = 0;
  for (std::size_t c = 0; c < num; ++c) {
    const std::vector<index_t>& vars = partition.component_variables[c];
    const std::vector<index_t>& cons = partition.component_constraints[c];
    if (!cons.empty() && vars.size() + cons.size() > 32) continue;
    ++checked;
    lcp::Vector x(model.num_variables(), 0.0);
    MmsimLegalizerStats stats;
    solve_components(design, model, {{&vars, &cons, &workspace.slot(c), c}},
                     options, recovery, x, stats);
    ASSERT_TRUE(stats.converged) << "component " << c;
    const ComponentProblem component = model.component_problem(vars, cons);
    const lcp::LemkeResult lemke =
        lcp::solve_lemke(component.qp.to_dense_lcp());
    ASSERT_EQ(lemke.status, lcp::LemkeStatus::kSolved) << "component " << c;
    double scale = 1.0;
    for (std::size_t v = 0; v < vars.size(); ++v)
      scale = std::max(scale, 1.0 + std::abs(lemke.z[v]));
    const double tolerance =
        stats.components_polished == 1 ? 1e-9 : 1e-6 * scale;
    for (std::size_t v = 0; v < vars.size(); ++v)
      EXPECT_NEAR(x[vars[v]], lemke.z[v], tolerance)
          << "component " << c << " variable " << v;
  }
  EXPECT_GT(checked, 0u);
}

/// The design families, plus `tall` with 4 macros at seed 19, whose solve
/// once escalated (see recovery_test.cpp). Macro-free `tall` has no
/// component of either shape, so the macro variant stands in for it.
std::vector<testing::DesignFamily> oracle_families() {
  std::vector<testing::DesignFamily> families;
  for (const testing::DesignFamily& family : testing::kDesignFamilies)
    if (std::string(family.name) != "tall") families.push_back(family);
  families.push_back(
      {"tall_macros", 300, 30, 0.6, 4, 19, /*triple=*/0.05, /*quad=*/0.03});
  return families;
}

INSTANTIATE_TEST_SUITE_P(Families, SmallComponentOracleTest,
                         ::testing::ValuesIn(oracle_families()),
                         testing::FamilyName());

}  // namespace
}  // namespace mch::legal
