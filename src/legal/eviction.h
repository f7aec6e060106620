// Ownership-aware occupancy with bounded eviction.
//
// Wraps OccupancyGrid with a per-row list of which cell owns which span, so
// that when the nearest-free-position search comes up empty — fragmented
// free space versus a multi-row cell on a near-capacity chip — the caller
// can free a rail-correct span by relocating the single-height cells inside
// it. Used by the final Tetris-like allocation (paper §4) and by the Tetris
// baseline; eviction triggers only in the regime the paper's benchmarks
// never reach (density well above 0.91), but a production legalizer must
// not fail there.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "db/design.h"
#include "legal/occupancy.h"

namespace mch::legal {

/// Cell `id` owns [start, end) on a row.
struct OwnedSpan {
  SiteIndex start;
  SiteIndex end;
  std::size_t id;
};

class OwnedOccupancy {
 public:
  explicit OwnedOccupancy(const db::Chip& chip)
      : grid_(chip), owners_(chip.num_rows) {}

  const OccupancyGrid& grid() const { return grid_; }
  const db::Chip& chip() const { return grid_.chip(); }

  /// Occupies the span for the cell and writes its position into the
  /// design. Requires the span free.
  void place(db::Design& design, std::size_t id, std::size_t base_row,
             SiteIndex site);

  /// Releases the cell's current (site/row-aligned) span.
  void remove(db::Design& design, std::size_t id);

  /// Registers a fixed cell (obstacle) at its current position without
  /// moving it: occupies every site/row its outline touches (rounded
  /// outward to whole sites/rows). Fixed cells are never eviction victims.
  void place_fixed(const db::Design& design, std::size_t id);

  bool is_free(std::size_t base_row, std::size_t height, SiteIndex site,
               SiteIndex width_sites) const {
    return grid_.is_free(base_row, height, site, width_sites);
  }

  PlacementCandidate find_nearest(const db::Cell& cell, double target_x,
                                  double target_y,
                                  std::size_t max_row_distance = 0) const {
    return grid_.find_nearest(cell, target_x, target_y, max_row_distance);
  }

  SiteIndex width_sites(const db::Cell& cell) const {
    return grid_.width_sites(cell);
  }

  /// Ids of the cells overlapping [site, site+width) on the row span.
  std::vector<std::size_t> blockers(std::size_t base_row, std::size_t height,
                                    SiteIndex site, SiteIndex width) const;

  /// Largest right edge (exclusive) of the row's owned spans, or 0 when
  /// the row is empty. Lets frontier-based callers re-establish their
  /// invariant after an eviction reshuffles cells.
  SiteIndex max_end(std::size_t row) const {
    // Spans with width never overlap, so the last of them by start ends
    // furthest right; only the empty spans of zero-width cells after it,
    // which may lie inside it, need a look.
    SiteIndex end = 0;
    const auto& owners = owners_[row];
    for (auto it = owners.rbegin(); it != owners.rend(); ++it) {
      end = std::max(end, it->end);
      if (it->end > it->start) break;
    }
    return end;
  }

  /// Places the cell at the nearest free position; when none exists, frees
  /// a rail-correct span near the target by evicting single-height blockers
  /// and re-placing them at their nearest free positions. Returns false
  /// only when every candidate span is blocked by another multi-row cell or
  /// a relocated victim cannot be re-seated.
  bool place_with_eviction(db::Design& design, std::size_t id,
                           double target_x, double target_y);

 private:
  using OwnerRow = std::vector<OwnedSpan>;

  /// First span of `row` whose start is not less than `site`.
  static OwnerRow::iterator lower_bound(OwnerRow& row, SiteIndex site);
  /// Inserts `span`, or replaces the span with the same start.
  static void set_owner(OwnerRow& row, const OwnedSpan& span);

  OccupancyGrid grid_;
  /// Per row: owned spans sorted by start, one per start.
  std::vector<OwnerRow> owners_;
};

}  // namespace mch::legal
