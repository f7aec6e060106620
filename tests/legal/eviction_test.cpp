#include "legal/eviction.h"

#include <gtest/gtest.h>

#include "db/legality.h"

namespace mch::legal {
namespace {

db::Chip test_chip() {
  db::Chip chip;
  chip.num_rows = 4;
  chip.num_sites = 30;
  chip.site_width = 1.0;
  chip.row_height = 10.0;
  return chip;
}

db::Design design_with_cells(std::size_t singles, std::size_t doubles) {
  db::Design design(test_chip());
  for (std::size_t i = 0; i < singles; ++i) {
    db::Cell cell;
    cell.width = 5;
    design.add_cell(cell);
  }
  for (std::size_t i = 0; i < doubles; ++i) {
    db::Cell cell;
    cell.width = 5;
    cell.height_rows = 2;
    cell.bottom_rail = db::RailType::kVss;
    design.add_cell(cell);
  }
  return design;
}

TEST(OwnedOccupancyTest, PlaceWritesPositionAndBlocks) {
  db::Design design = design_with_cells(1, 0);
  OwnedOccupancy occ(design.chip());
  occ.place(design, 0, 2, 10);
  EXPECT_DOUBLE_EQ(design.cells()[0].x, 10.0);
  EXPECT_DOUBLE_EQ(design.cells()[0].y, 20.0);
  EXPECT_FALSE(occ.is_free(2, 1, 10, 5));
  EXPECT_TRUE(occ.is_free(2, 1, 15, 5));
}

TEST(OwnedOccupancyTest, RemoveFrees) {
  db::Design design = design_with_cells(1, 0);
  OwnedOccupancy occ(design.chip());
  occ.place(design, 0, 1, 8);
  occ.remove(design, 0);
  EXPECT_TRUE(occ.is_free(1, 1, 8, 5));
  EXPECT_EQ(occ.max_end(1), 0);
}

TEST(OwnedOccupancyTest, BlockersIdentifiesOverlappers) {
  db::Design design = design_with_cells(3, 0);
  OwnedOccupancy occ(design.chip());
  occ.place(design, 0, 0, 0);    // [0, 5)
  occ.place(design, 1, 0, 10);   // [10, 15)
  occ.place(design, 2, 1, 3);    // row 1
  const auto ids = occ.blockers(0, 1, 4, 8);  // span [4, 12) row 0
  EXPECT_EQ(ids, (std::vector<std::size_t>{0, 1}));
  const auto both_rows = occ.blockers(0, 2, 0, 30);
  EXPECT_EQ(both_rows, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(OwnedOccupancyTest, MaxEndTracksRightmost) {
  db::Design design = design_with_cells(2, 0);
  OwnedOccupancy occ(design.chip());
  occ.place(design, 0, 0, 3);
  occ.place(design, 1, 0, 20);
  EXPECT_EQ(occ.max_end(0), 25);
  occ.remove(design, 1);
  EXPECT_EQ(occ.max_end(0), 8);
}

TEST(OwnedOccupancyTest, PlaceWithoutEvictionWhenSpaceExists) {
  db::Design design = design_with_cells(1, 0);
  OwnedOccupancy occ(design.chip());
  design.cells()[0].gp_x = 12.0;
  design.cells()[0].gp_y = 0.0;
  EXPECT_TRUE(occ.place_with_eviction(design, 0, 12.0, 0.0));
  EXPECT_DOUBLE_EQ(design.cells()[0].x, 12.0);
}

TEST(OwnedOccupancyTest, EvictionFreesSpanForDoubleHeight) {
  // Each row is packed with width-2 singles except one 6-site gap, and the
  // gaps are staggered so no two adjacent rows share a free span: a
  // double-height cell cannot be placed anywhere without eviction.
  db::Design design(test_chip());
  std::vector<std::pair<std::size_t, std::size_t>> placements;  // id, row
  for (std::size_t r = 0; r < 4; ++r) {
    const SiteIndex gap_start = (r % 2 == 0) ? 24 : 0;
    for (SiteIndex s = 0; s + 2 <= 30; s += 2) {
      if (s >= gap_start && s < gap_start + 6) continue;
      db::Cell cell;
      cell.width = 2;
      cell.gp_x = static_cast<double>(s);
      cell.gp_y = static_cast<double>(10 * r);
      placements.emplace_back(design.add_cell(cell), r);
    }
  }
  db::Cell tall;
  tall.width = 5;
  tall.height_rows = 2;
  tall.bottom_rail = db::RailType::kVss;  // base row must be even: 0 or 2
  tall.gp_x = 12.0;
  tall.gp_y = 0.0;
  const std::size_t tall_id = design.add_cell(tall);

  OwnedOccupancy occ(design.chip());
  for (const auto& [id, row] : placements)
    occ.place(design, id, row,
              static_cast<SiteIndex>(design.cells()[id].gp_x));

  // Sanity: no direct position exists.
  ASSERT_FALSE(occ.find_nearest(design.cells()[tall_id], 12.0, 0.0).found);

  ASSERT_TRUE(occ.place_with_eviction(design, tall_id, 12.0, 0.0));
  const db::LegalityReport report = db::check_legality(design);
  EXPECT_TRUE(report.legal()) << report.summary();
  // The tall cell sits on a rail-correct even row at the target x.
  const auto row = static_cast<std::size_t>(design.cells()[tall_id].y / 10.0);
  EXPECT_EQ(row % 2, 0u);
  EXPECT_DOUBLE_EQ(design.cells()[tall_id].x, 12.0);
}

TEST(OwnedOccupancyTest, EvictionRefusesMultiRowVictims) {
  // The whole chip is covered by double-height cells: eviction (which only
  // relocates singles) must give up rather than cascade.
  db::Design design(test_chip());
  std::vector<std::size_t> talls;
  for (std::size_t r = 0; r < 4; r += 2)
    for (std::size_t s = 0; s < 6; ++s) {
      db::Cell cell;
      cell.width = 5;
      cell.height_rows = 2;
      cell.bottom_rail = db::RailType::kVss;
      talls.push_back(design.add_cell(cell));
    }
  OwnedOccupancy occ(design.chip());
  std::size_t k = 0;
  for (std::size_t r = 0; r < 4; r += 2)
    for (std::size_t s = 0; s < 6; ++s, ++k)
      occ.place(design, talls[k], r, static_cast<SiteIndex>(5 * s));

  db::Cell extra;
  extra.width = 5;
  extra.height_rows = 2;
  extra.bottom_rail = db::RailType::kVss;
  const std::size_t id = design.add_cell(extra);
  EXPECT_FALSE(occ.place_with_eviction(design, id, 12.0, 0.0));
}

TEST(OwnedOccupancyTest, BlockersExcludeAbuttingSpans) {
  db::Design design = design_with_cells(3, 0);
  OwnedOccupancy occ(design.chip());
  occ.place(design, 0, 0, 0);    // [0, 5)
  occ.place(design, 1, 0, 5);    // [5, 10)
  occ.place(design, 2, 0, 10);   // [10, 15)
  EXPECT_EQ(occ.blockers(0, 1, 5, 5), (std::vector<std::size_t>{1}));
  EXPECT_EQ(occ.blockers(0, 1, 4, 7), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(occ.blockers(0, 1, 15, 5).empty());
  EXPECT_TRUE(occ.blockers(1, 1, 0, 30).empty());
}

TEST(OwnedOccupancyTest, ZeroWidthOwners) {
  // A cell narrower than a site holds an empty span: it occupies nothing,
  // is listed as a blocker wherever its site lies inside the query, and
  // takes over the owner entry of a cell starting on the same site. A query
  // starting on that site then lists neither of them, although the span is
  // not free (a known limitation of one owner per start).
  db::Design design = design_with_cells(3, 0);
  design.cells()[1].width = 1e-12;
  design.cells()[2].width = 1e-12;
  OwnedOccupancy occ(design.chip());
  occ.place(design, 0, 0, 10);   // [10, 15)
  occ.place(design, 1, 0, 12);   // inside cell 0
  EXPECT_EQ(occ.blockers(0, 1, 11, 3), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(occ.max_end(0), 15);  // cell 0's end, not the empty span's
  occ.remove(design, 1);
  EXPECT_FALSE(occ.is_free(0, 1, 12, 1));
  EXPECT_EQ(occ.blockers(0, 1, 11, 3), (std::vector<std::size_t>{0}));

  occ.place(design, 2, 0, 10);   // on cell 0's start
  EXPECT_TRUE(occ.blockers(0, 1, 10, 5).empty());
  EXPECT_EQ(occ.blockers(0, 1, 9, 5), (std::vector<std::size_t>{2}));
  EXPECT_FALSE(occ.is_free(0, 1, 10, 5));
}

}  // namespace
}  // namespace mch::legal
