// gtest comparisons of production against the oracles in oracle.h, shared
// by the allocation contract test and the ECO fuzz.
#pragma once

#include <gtest/gtest.h>

#include <limits>

#include "legal/row_assign.h"
#include "oracle/oracle.h"

namespace mch::oracle {

inline void expect_same_report(const db::LegalityReport& actual,
                               const db::LegalityReport& expected) {
  EXPECT_EQ(actual.total_violations, expected.total_violations);
  EXPECT_EQ(actual.outside_chip, expected.outside_chip);
  EXPECT_EQ(actual.off_site, expected.off_site);
  EXPECT_EQ(actual.off_row, expected.off_row);
  EXPECT_EQ(actual.overlaps, expected.overlaps);
  EXPECT_EQ(actual.rail_mismatches, expected.rail_mismatches);
  EXPECT_EQ(actual.max_overlap_depth, expected.max_overlap_depth);
  ASSERT_EQ(actual.violations.size(), expected.violations.size());
  for (std::size_t i = 0; i < actual.violations.size(); ++i) {
    const db::Violation& a = actual.violations[i];
    const db::Violation& e = expected.violations[i];
    EXPECT_EQ(a.kind, e.kind) << "violation " << i;
    EXPECT_EQ(a.cell, e.cell) << "violation " << i;
    EXPECT_EQ(a.other, e.other) << "violation " << i;
    EXPECT_EQ(a.detail, e.detail) << "violation " << i;
  }
}

/// Both checkers on the same design: the default audit, the pre-snap audit
/// (site alignment not required) and an uncapped one.
inline void expect_same_audits(const db::Design& design) {
  {
    SCOPED_TRACE("default audit");
    expect_same_report(db::check_legality(design),
                       oracle::check_legality(design));
  }
  db::LegalityOptions relaxed;
  relaxed.require_site_alignment = false;
  {
    SCOPED_TRACE("pre-snap audit");
    expect_same_report(db::check_legality(design, relaxed),
                       oracle::check_legality(design, relaxed));
  }
  db::LegalityOptions uncapped;
  uncapped.max_recorded = std::numeric_limits<std::size_t>::max();
  {
    SCOPED_TRACE("uncapped audit");
    expect_same_report(db::check_legality(design, uncapped),
                       oracle::check_legality(design, uncapped));
  }
}

inline void expect_same_cells(const db::Design& actual,
                              const db::Design& expected) {
  ASSERT_EQ(actual.num_cells(), expected.num_cells());
  for (std::size_t i = 0; i < actual.num_cells(); ++i) {
    ASSERT_EQ(actual.cells()[i].x, expected.cells()[i].x) << "cell " << i;
    ASSERT_EQ(actual.cells()[i].y, expected.cells()[i].y) << "cell " << i;
    ASSERT_EQ(actual.cells()[i].flipped, expected.cells()[i].flipped)
        << "cell " << i;
  }
}

/// Audits `input` with both checkers, allocates copies of it with both
/// allocators and compares stats, positions and the audits of the result.
/// Returns the production stats for callers that pin them.
inline legal::TetrisStats check_allocation(const db::Design& input) {
  expect_same_audits(input);
  db::Design production = input;
  db::Design reference = input;
  const legal::TetrisStats actual = legal::tetris_allocate(production);
  const legal::TetrisStats expected = oracle::tetris_allocate(reference);
  EXPECT_EQ(actual.illegal_cells, expected.illegal_cells);
  EXPECT_EQ(actual.unplaced_cells, expected.unplaced_cells);
  EXPECT_EQ(actual.relocation_cost_sites, expected.relocation_cost_sites);
  expect_same_cells(production, reference);
  legal::assign_orientations(production);
  legal::assign_orientations(reference);
  expect_same_cells(production, reference);
  expect_same_audits(production);
  return actual;
}

}  // namespace mch::oracle
