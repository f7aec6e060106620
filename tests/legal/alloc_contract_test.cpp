// Bitwise contract of the linear-time allocation and legality check:
// legal::tetris_allocate (a frontier sweep that builds the occupancy grid
// only for step 3) must reproduce the is_free/place scan in tests/oracle/,
// and db::check_legality (CSR row lists) the
// vector-of-vector checker there, exactly — positions, orientations,
// TetrisStats and the full LegalityReport, violation detail strings
// included — on generated families, the benchmark suite, the degenerate
// designs (eviction and unplaced cells) and hand-built edge cases.
#include <gtest/gtest.h>

#include <string>

#include "db/legality.h"
#include "design_families.h"
#include "gen/generator.h"
#include "legal/mmsim_legalizer.h"
#include "legal/row_assign.h"
#include "legal/tetris_alloc.h"
#include "oracle/expect.h"
#include "oracle/oracle.h"
#include "util/check.h"

namespace mch::legal {
namespace {

using oracle::check_allocation;
using oracle::expect_same_audits;

/// The two inputs the flow's allocation sees in practice: the row-assigned
/// GP (far from legal, so step 3 and eviction do real work) and the
/// relaxed MMSIM optimum (the flow's own input to the allocation).
void check_placed_and_relaxed(const db::Design& design) {
  db::Design placed = design;
  const RowAssignment rows = assign_rows(placed);
  {
    SCOPED_TRACE("row-assigned GP");
    check_allocation(placed);
  }
  db::Design relaxed = placed;
  mmsim_legalize_continuous(relaxed, rows);
  {
    SCOPED_TRACE("relaxed optimum");
    check_allocation(relaxed);
  }
}

class AllocContractFamilyTest
    : public ::testing::TestWithParam<testing::DesignFamily> {};

TEST_P(AllocContractFamilyTest, MatchesOracle) {
  check_placed_and_relaxed(testing::generate(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Families, AllocContractFamilyTest,
                         ::testing::ValuesIn(testing::kDesignFamilies),
                         testing::FamilyName());

TEST(AllocContractTest, MatchesOracleAcrossBenchmarkSuite) {
  gen::GeneratorOptions options;
  options.scale = 0.002;  // up to ~2.5k cells per spec; shapes preserved
  options.seed = 7;
  for (const gen::BenchmarkSpec& spec : gen::ispd2015_mch_suite()) {
    SCOPED_TRACE(spec.name);
    check_placed_and_relaxed(gen::generate_design(spec, options));
  }
}

TEST(AllocContractTest, MatchesOracleOnDegenerateDesigns) {
  std::size_t unplaced = 0;
  for (const gen::DegenerateMode mode :
       {gen::DegenerateMode::kNearSingularCoupling,
        gen::DegenerateMode::kInfeasibleRowCapacity,
        gen::DegenerateMode::kObstacleSaturatedRows}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(gen::to_string(mode)) + " seed " +
                   std::to_string(seed));
      db::Design placed = gen::generate_degenerate_design(mode, 120, seed);
      assign_rows(placed);
      unplaced += check_allocation(placed).unplaced_cells;
    }
  }
  EXPECT_GT(unplaced, 0u) << "no degenerate design left a cell unplaced";
}

db::Chip hand_chip() {
  db::Chip chip;
  chip.num_rows = 4;
  chip.num_sites = 50;
  chip.site_width = 1.0;
  chip.row_height = 10.0;
  return chip;
}

std::size_t add(db::Design& design, double x, double y, double width,
                std::uint16_t height_rows = 1, bool fixed = false) {
  db::Cell cell;
  cell.width = width;
  cell.height_rows = height_rows;
  cell.gp_x = cell.x = x;
  cell.gp_y = cell.y = y;
  cell.fixed = fixed;
  return design.add_cell(cell);
}

TEST(AllocContractTest, ZeroWidthCells) {
  db::Design design(hand_chip());
  const std::size_t obstacle = add(design, 20, 0, 5, 1, /*fixed=*/true);
  add(design, 10, 0, 5);
  // Cells narrower than a site hold an empty span: each is accepted
  // wherever it fits the chip, inside a cell, at an obstacle's start and
  // at the right edge; past the edge it is illegal and relocated.
  for (const double x : {12.0, 20.0, 22.0, 50.0, 51.0}) {
    const std::size_t id = add(design, x, 0, 1.0);
    design.cells()[id].width = 1e-12;
  }
  // A cell on the zero-width cells' sites, and one overlapping the first.
  add(design, 12, 0, 3);
  add(design, 11, 0, 3);
  const TetrisStats stats = check_allocation(design);
  EXPECT_EQ(stats.illegal_cells, 3u);
  EXPECT_TRUE(design.cells()[obstacle].fixed);
}

TEST(AllocContractTest, CellsSnappedPastTheRightEdge) {
  db::Design design(hand_chip());
  add(design, 48.6, 0, 5);   // site 49, ends at 54
  add(design, 1e7, 0, 3);    // far past the chip
  add(design, 60, 0, 3);     // past the chip, left of the previous one
  add(design, 60, 10, 3);    // same site, higher id
  add(design, 45, 0, 5);     // ends exactly at the edge: accepted
  const TetrisStats stats = check_allocation(design);
  EXPECT_EQ(stats.illegal_cells, 4u);
}

TEST(AllocContractTest, TwoCellsOnOneSiteKeepIdOrder) {
  db::Design design(hand_chip());
  add(design, 30.2, 10, 4);
  add(design, 29.9, 10, 4);  // same site 30, higher id: the illegal one
  add(design, 30.0, 0, 4, 2);
  add(design, 30.4, 0, 2);   // same site, under the double-height cell
  const TetrisStats stats = check_allocation(design);
  EXPECT_EQ(stats.illegal_cells, 2u);
}

TEST(AllocContractTest, UnalignedObstacles) {
  db::Design design(hand_chip());
  // Outline [10.5, 13.7) rounds outward to sites [10, 14).
  add(design, 10.5, 0, 3.2, 1, /*fixed=*/true);
  // y = 15 is not row-aligned: the obstacle touches rows 1 and 2.
  add(design, 30, 15, 4, 1, /*fixed=*/true);
  add(design, 14, 0, 3);    // abuts the first obstacle
  add(design, 6, 0, 4);     // abuts it from the left
  add(design, 13, 0, 2);    // overlaps it
  add(design, 27, 10, 3);   // abuts the second obstacle on row 1
  add(design, 33, 20, 3);   // overlaps it on row 2
  add(design, 28, 10, 3, 2);  // double-height, overlaps it on both rows
  const TetrisStats stats = check_allocation(design);
  EXPECT_EQ(stats.illegal_cells, 3u);
}

TEST(AllocContractTest, OverlappingObstaclesRejectedByBoth) {
  db::Design design(hand_chip());
  add(design, 10, 0, 5, 1, /*fixed=*/true);
  add(design, 12, 0, 5, 1, /*fixed=*/true);
  add(design, 30, 0, 5);
  expect_same_audits(design);
  db::Design production = design;
  db::Design reference = design;
  EXPECT_THROW(tetris_allocate(production), CheckError);
  EXPECT_THROW(oracle::tetris_allocate(reference), CheckError);
}

TEST(AllocContractTest, OffRowAndTallerThanChipCells) {
  db::Design design(hand_chip());
  add(design, 10, 0, 5);
  add(design, 12, 13, 5);     // off-row, touching rows 1 and 2
  add(design, 11, 4, 5, 2);   // off-row double-height
  add(design, 30, 0, 5, 3);
  const std::size_t tall = add(design, 40, 0, 4);
  design.cells()[tall].height_rows = 6;  // taller than the chip
  expect_same_audits(design);
  db::Design production = design;
  db::Design reference = design;
  EXPECT_THROW(tetris_allocate(production), CheckError);
  EXPECT_THROW(oracle::tetris_allocate(reference), CheckError);

  // Without the tall cell, the off-row cells snap to their nearest rows.
  design.cells()[tall].height_rows = 1;
  check_allocation(design);
}

TEST(AllocContractTest, EvictionOnAFullRowPair) {
  // Rows 0–1 filled by single-height cells leave no gap for a
  // double-height cell: step 3 must evict, in both implementations.
  db::Chip chip = hand_chip();
  chip.num_sites = 20;
  db::Design design(chip);
  for (int row = 0; row < 4; ++row)
    for (int i = 0; i < 4; ++i) add(design, 5.0 * i, 10.0 * row, 4);
  add(design, 8, 0, 6, 2);
  const TetrisStats stats = check_allocation(design);
  EXPECT_EQ(stats.illegal_cells, 1u);
}

TEST(AllocContractTest, ZeroWidthCellSharingAVictimsStart) {
  // The zero-width cell takes over the owner entry at site 5, hiding the
  // cell under it from the eviction's blocker search: both implementations
  // must then fail the same way.
  db::Chip chip = hand_chip();
  chip.num_sites = 20;
  db::Design design(chip);
  for (int row = 0; row < 4; ++row)
    for (int i = 0; i < 4; ++i) add(design, 5.0 * i, 10.0 * row, 4);
  const std::size_t zero = add(design, 5, 0, 1);
  design.cells()[zero].width = 1e-12;
  add(design, 8, 0, 6, 2);
  db::Design production = design;
  db::Design reference = design;
  EXPECT_THROW(tetris_allocate(production), CheckError);
  EXPECT_THROW(oracle::tetris_allocate(reference), CheckError);
}

}  // namespace
}  // namespace mch::legal
