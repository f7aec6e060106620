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
#include "oracle/expect_model.h"

namespace mch::legal {
namespace {

using oracle::expect_models_identical;
using oracle::expect_partitions_identical;

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
