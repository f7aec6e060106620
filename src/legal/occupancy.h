// Site-granular occupancy tracking and nearest-free-position search.
//
// Shared machinery of the paper's Tetris-like allocation (§4), the Tetris
// baseline legalizer, and the DAC'16-style local legalizer. All coordinates
// are integer *site* indices; callers convert from distance units. Working
// on the site grid makes "cells must be located at placement sites" (problem
// constraint (2)) structural rather than a numerical afterthought.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "db/design.h"

namespace mch::legal {

using SiteIndex = std::int64_t;

/// Disjoint occupied intervals [start, end) on one row, auto-coalescing.
/// Stored as one flat vector sorted by start: lookups binary-search it (a
/// lookup at or right of the last interval's start skips the search), and
/// updates insert or erase in place, shifting the row's tail. The final
/// allocation and the Tetris baseline fill rows left to right, so their
/// updates land at the row's end. dp/detailed fills its grids in cell-id
/// order and the local baseline re-occupies cells mid-row: each such
/// update moves O(row length) intervals. At 50k and 200k cells both ran
/// no slower than on the std::map rows this replaced (CHANGES.md).
class RowOccupancy {
 public:
  /// True when [start, end) intersects no occupied interval.
  bool is_free(SiteIndex start, SiteIndex end) const;

  /// Marks [start, end) occupied. Requires is_free(start, end).
  void occupy(SiteIndex start, SiteIndex end);

  /// Removes exactly the span [start, end), which must be occupied. Used by
  /// legalizers that relocate already-placed cells.
  void release(SiteIndex start, SiteIndex end);

  /// Appends the intervals intersecting [lo, hi) to `out` (clipped).
  void collect(SiteIndex lo, SiteIndex hi,
               std::vector<std::pair<SiteIndex, SiteIndex>>& out) const;

  std::size_t interval_count() const { return intervals_.size(); }

 private:
  using Interval = std::pair<SiteIndex, SiteIndex>;  ///< [start, end)

  /// First interval whose start is greater than `site`.
  std::vector<Interval>::const_iterator first_after(SiteIndex site) const;

  std::vector<Interval> intervals_;  ///< sorted by start, disjoint
};

/// Width of a cell in sites (rounded up — cells narrower than their site
/// count cannot overlap when site-aligned).
SiteIndex cell_width_sites(const db::Chip& chip, const db::Cell& cell);

/// Rows [first_row, end_row) and sites [site_start, site_end) that a cell's
/// outline touches, rounded outward and clipped to the chip: the footprint
/// of an obstacle, whose position need not be grid-aligned.
struct Outline {
  std::size_t first_row = 0;
  std::size_t end_row = 0;
  SiteIndex site_start = 0;
  SiteIndex site_end = 0;
};
Outline cell_outline(const db::Chip& chip, const db::Cell& cell);

/// A feasible placement candidate returned by the search.
struct PlacementCandidate {
  bool found = false;
  std::size_t base_row = 0;
  SiteIndex site = 0;
  double cost = 0.0;  ///< |Δx| + |Δy| in distance units from the target
};

/// Occupancy of the whole chip with placement search.
class OccupancyGrid {
 public:
  explicit OccupancyGrid(const db::Chip& chip);

  const db::Chip& chip() const { return chip_; }

  /// True when the w-site span at `site` is free on rows
  /// [base_row, base_row + height) and inside the chip.
  bool is_free(std::size_t base_row, std::size_t height, SiteIndex site,
               SiteIndex width_sites) const;

  /// Occupies the span. Requires is_free(...).
  void occupy(std::size_t base_row, std::size_t height, SiteIndex site,
              SiteIndex width_sites);

  /// Releases a span previously occupied.
  void release(std::size_t base_row, std::size_t height, SiteIndex site,
               SiteIndex width_sites);

  /// Convenience overloads taking a cell whose x/y are site/row aligned.
  void occupy_cell(const db::Cell& cell);
  void release_cell(const db::Cell& cell);

  /// Occupies every site/row the cell's outline touches, rounding outward.
  /// For obstacles whose position need not be grid-aligned.
  void occupy_outline(const db::Cell& cell);

  /// Finds the minimum-cost feasible position for a cell of the given
  /// height/width whose target is (target_x, target_y) in distance units.
  /// Honors rail compatibility for the cell. Cost is Manhattan distance.
  /// `max_row_distance` optionally restricts the row search radius (used by
  /// the local-window baselines); 0 means unrestricted.
  PlacementCandidate find_nearest(const db::Cell& cell, double target_x,
                                  double target_y,
                                  std::size_t max_row_distance = 0) const;

  /// Nearest feasible site for a fixed base row; cost is |Δx| only,
  /// measured from the target rounded to the nearest site (positions are
  /// site-quantized, so sub-site target precision is meaningless).
  /// Returns found = false when the row span cannot fit the width anywhere.
  PlacementCandidate find_in_rows(std::size_t base_row, std::size_t height,
                                  SiteIndex width_sites,
                                  double target_x) const;

  SiteIndex num_sites() const {
    return static_cast<SiteIndex>(chip_.num_sites);
  }

  /// cell_width_sites on this grid's chip.
  SiteIndex width_sites(const db::Cell& cell) const {
    return cell_width_sites(chip_, cell);
  }

 private:
  db::Chip chip_;
  std::vector<RowOccupancy> rows_;
};

}  // namespace mch::legal
