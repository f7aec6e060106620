#include "baselines/local.h"

#include <gtest/gtest.h>

#include "db/legality.h"
#include "eval/metrics.h"
#include "gen/generator.h"

namespace mch::baselines {
namespace {

db::Design design_for(double density, std::uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.seed = seed;
  return gen::generate_random_design(600, 70, density, opts);
}

class LocalVariantTest : public ::testing::TestWithParam<LocalVariant> {};

TEST_P(LocalVariantTest, ProducesLegalPlacement) {
  db::Design design = design_for(0.55, 71);
  const LocalLegalizerStats stats = local_legalize(design, GetParam());
  EXPECT_EQ(stats.failed_cells, 0u);
  const db::LegalityReport report = db::check_legality(design);
  EXPECT_TRUE(report.legal()) << report.summary();
}

TEST_P(LocalVariantTest, DenseDesignLegal) {
  db::Design design = design_for(0.88, 72);
  const LocalLegalizerStats stats = local_legalize(design, GetParam());
  EXPECT_EQ(stats.failed_cells, 0u);
  EXPECT_TRUE(db::check_legality(design).legal());
}

TEST_P(LocalVariantTest, MostPlacementsDirectAtLowDensity) {
  db::Design design = design_for(0.2, 73);
  const LocalLegalizerStats stats = local_legalize(design, GetParam());
  EXPECT_GT(stats.direct_placements, 9 * stats.window_placements);
}

INSTANTIATE_TEST_SUITE_P(Variants, LocalVariantTest,
                         ::testing::Values(LocalVariant::kBase,
                                           LocalVariant::kImproved));

TEST(LocalLegalizerTest, ImprovedNotWorseThanBaseOnDenseDesigns) {
  double base_total = 0.0;
  double improved_total = 0.0;
  for (std::uint64_t seed = 80; seed < 84; ++seed) {
    db::Design base_design = design_for(0.9, seed);
    db::Design improved_design = base_design;
    local_legalize(base_design, LocalVariant::kBase);
    local_legalize(improved_design, LocalVariant::kImproved);
    base_total += eval::displacement(base_design).total_sites;
    improved_total += eval::displacement(improved_design).total_sites;
  }
  EXPECT_LE(improved_total, base_total * 1.001);
}

TEST(LocalLegalizerTest, StatsAccountForEveryCell) {
  db::Design design = design_for(0.6, 74);
  const LocalLegalizerStats stats =
      local_legalize(design, LocalVariant::kBase);
  EXPECT_EQ(stats.direct_placements + stats.window_placements +
                stats.failed_cells,
            design.num_cells());
}

// A design with more movable area than the chip holds leaves some cells
// unplaced. The improved variant's refinement must skip them (they hold
// no span in the occupancy grid) instead of aborting on their release.
TEST(LocalLegalizerTest, ImprovedSkipsCellsTheBasePassCouldNotPlace) {
  for (const LocalVariant variant :
       {LocalVariant::kBase, LocalVariant::kImproved}) {
    db::Design design = gen::generate_degenerate_design(
        gen::DegenerateMode::kInfeasibleRowCapacity, 32, 7);
    LocalLegalizerStats stats;
    EXPECT_NO_THROW(stats = local_legalize(design, variant));
    EXPECT_GT(stats.failed_cells, 0u);
    EXPECT_EQ(stats.direct_placements + stats.window_placements +
                  stats.failed_cells,
              design.num_cells());
  }
}

}  // namespace
}  // namespace mch::baselines
