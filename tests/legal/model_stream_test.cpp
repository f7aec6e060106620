// Streamed-assembly identity tests: build_model (chunked, CSR-direct, with
// the union-find riding the constraint stream) must be *bitwise* identical
// to build_model_monolithic (the COO-staged reference oracle) on every
// design family the generator can produce — including the degenerate
// fault-injection designs and the production-scale variant families — and
// the partition streamed out of the build must equal partition_model run on
// the finished model. A last test pins the staged extraction schedule:
// toggling it must not change a single written-back position.
#include <gtest/gtest.h>

#include <vector>

#include "gen/generator.h"
#include "legal/mmsim_legalizer.h"
#include "legal/model.h"
#include "legal/partition.h"
#include "legal/row_assign.h"

namespace mch::legal {
namespace {

// Exact (bitwise) equality of every model array. EXPECT_EQ on double
// vectors is deliberate: the streamed path must emit the same bits, not
// merely close values.
void expect_models_identical(const LegalizationModel& a,
                             const LegalizationModel& b) {
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(a.qp.p, b.qp.p);
  EXPECT_EQ(a.qp.b, b.qp.b);

  // CSR spine of B: the three arrays, not just the logical matrix.
  EXPECT_EQ(a.qp.B.rows(), b.qp.B.rows());
  EXPECT_EQ(a.qp.B.cols(), b.qp.B.cols());
  EXPECT_EQ(a.qp.B.row_ptr(), b.qp.B.row_ptr());
  EXPECT_EQ(a.qp.B.col_idx(), b.qp.B.col_idx());
  EXPECT_EQ(a.qp.B.values(), b.qp.B.values());

  // K block structure and payload (scalar fast-path arrays carry the 1×1
  // blocks; general blocks are compared entry-wise).
  ASSERT_EQ(a.qp.K.size(), b.qp.K.size());
  ASSERT_EQ(a.qp.K.block_count(), b.qp.K.block_count());
  EXPECT_EQ(a.qp.K.scalar_values(), b.qp.K.scalar_values());
  EXPECT_EQ(a.qp.K.scalar_inverses(), b.qp.K.scalar_inverses());
  for (std::size_t blk = 0; blk < a.qp.K.block_count(); ++blk) {
    ASSERT_EQ(a.qp.K.block_offset(blk), b.qp.K.block_offset(blk));
    ASSERT_EQ(a.qp.K.block_size(blk), b.qp.K.block_size(blk));
    ASSERT_EQ(a.qp.K.is_scalar_block(blk), b.qp.K.is_scalar_block(blk));
    if (a.qp.K.is_scalar_block(blk)) continue;
    const std::size_t off = a.qp.K.block_offset(blk);
    const std::size_t d = a.qp.K.block_size(blk);
    for (std::size_t r = 0; r < d; ++r)
      for (std::size_t c = 0; c < d; ++c)
        EXPECT_EQ(a.qp.K.entry(off + r, off + c),
                  b.qp.K.entry(off + r, off + c))
            << "K block " << blk << " (" << r << "," << c << ")";
  }

  // Bookkeeping arrays.
  ASSERT_EQ(a.variables.size(), b.variables.size());
  for (std::size_t v = 0; v < a.variables.size(); ++v) {
    EXPECT_EQ(a.variables[v].cell, b.variables[v].cell) << "variable " << v;
    EXPECT_EQ(a.variables[v].subrow, b.variables[v].subrow)
        << "variable " << v;
  }
  EXPECT_EQ(a.cell_first_var, b.cell_first_var);
  EXPECT_EQ(a.cell_var_count, b.cell_var_count);
  EXPECT_EQ(a.base_rows, b.base_rows);
  EXPECT_EQ(a.row_variables, b.row_variables);
  EXPECT_EQ(a.constraint_row, b.constraint_row);
}

void expect_partitions_identical(const ConstraintPartition& a,
                                 const ConstraintPartition& b) {
  EXPECT_EQ(a.variable_component, b.variable_component);
  EXPECT_EQ(a.constraint_component, b.constraint_component);
  EXPECT_EQ(a.component_variables, b.component_variables);
  EXPECT_EQ(a.component_constraints, b.component_constraints);
}

// Builds the model both ways on a copy of the design and checks model and
// streamed partition against the monolithic oracle.
void check_design(db::Design design) {
  const RowAssignment rows = assign_rows(design);
  ConstraintPartition streamed;
  const LegalizationModel model = build_model(design, rows, {}, &streamed);
  const LegalizationModel oracle = build_model_monolithic(design, rows);
  expect_models_identical(model, oracle);
  expect_partitions_identical(streamed, partition_model(oracle));
}

TEST(ModelStreamTest, MatchesMonolithicAcrossBenchmarkSuite) {
  gen::GeneratorOptions options;
  options.scale = 0.002;  // up to ~2.5k cells per spec; shapes preserved
  options.seed = 7;
  for (const gen::BenchmarkSpec& spec : gen::ispd2015_mch_suite()) {
    SCOPED_TRACE(spec.name);
    check_design(gen::generate_design(spec, options));
  }
}

TEST(ModelStreamTest, MatchesMonolithicOnDegenerateDesigns) {
  for (const gen::DegenerateMode mode :
       {gen::DegenerateMode::kNearSingularCoupling,
        gen::DegenerateMode::kInfeasibleRowCapacity,
        gen::DegenerateMode::kObstacleSaturatedRows}) {
    SCOPED_TRACE(gen::to_string(mode));
    check_design(gen::generate_degenerate_design(mode, 300, 3));
  }
}

TEST(ModelStreamTest, MatchesMonolithicOnScaleVariants) {
  for (const gen::ScaleVariant variant :
       {gen::ScaleVariant::kBaseline, gen::ScaleVariant::kObstacleHeavy,
        gen::ScaleVariant::kHighUtilization}) {
    SCOPED_TRACE(gen::to_string(variant));
    check_design(gen::generate_scale_design(variant, 2000, 11));
  }
}

TEST(ModelStreamTest, MatchesMonolithicWithObstaclesAndMixedHeights) {
  gen::GeneratorOptions options;
  options.seed = 5;
  options.fixed_macros = 12;
  check_design(gen::generate_random_design(1500, 300, 0.75, options));
}

TEST(ModelStreamTest, HandlesDesignWithNoMovableCells) {
  db::Chip chip;
  chip.num_rows = 2;
  chip.num_sites = 100;
  chip.site_width = 1.0;
  chip.row_height = 10.0;
  db::Design design(chip);
  db::Cell fixed;
  fixed.width = 20.0;
  fixed.gp_x = fixed.x = 10.0;
  fixed.gp_y = fixed.y = 0.0;
  fixed.fixed = true;
  design.add_cell(fixed);

  const RowAssignment rows = assign_rows(design);
  ConstraintPartition streamed;
  const LegalizationModel model = build_model(design, rows, {}, &streamed);
  const LegalizationModel oracle = build_model_monolithic(design, rows);
  EXPECT_EQ(model.num_variables(), 0u);
  EXPECT_EQ(model.qp.num_constraints(), 0u);
  expect_models_identical(model, oracle);
  expect_partitions_identical(streamed, partition_model(oracle));
  EXPECT_EQ(streamed.num_components(), 0u);
}

// partition_out of the full legalize must be the same canonical partition
// partition_model computes on the monolithic model — the legalizer streams
// it out of the build instead of re-walking B.
TEST(ModelStreamTest, LegalizerPartitionOutMatchesPartitionModel) {
  db::Design design = gen::generate_scale_design(
      gen::ScaleVariant::kObstacleHeavy, 1200, 17);
  db::Design reference = design;

  MmsimLegalizerOptions options;
  ConstraintPartition out;
  options.partition_out = &out;
  mmsim_legalize_continuous(design, assign_rows(design), options);

  const RowAssignment rows = assign_rows(reference);
  const LegalizationModel oracle = build_model_monolithic(reference, rows);
  expect_partitions_identical(out, partition_model(oracle));
}

}  // namespace
}  // namespace mch::legal
