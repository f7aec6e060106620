#include "oracle/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <unordered_set>

namespace mch::oracle {

using namespace db;

namespace {

void record(LegalityReport& report, const LegalityOptions& options,
            Violation violation) {
  ++report.total_violations;
  if (report.violations.size() < options.max_recorded)
    report.violations.push_back(std::move(violation));
}

/// Row index range [first, end) touched by a vertical outline [y, y + h),
/// clamped to the chip. Used for cells that are not row-aligned (fixed
/// macros and off-row violators), which must still occupy every row their
/// outline intersects so the overlap sweep sees them.
std::pair<std::size_t, std::size_t> touched_rows(const Chip& chip, double y,
                                                 double height, double eps) {
  const auto first = static_cast<std::size_t>(std::clamp(
      std::floor(y / chip.row_height + eps), 0.0,
      static_cast<double>(chip.num_rows)));
  const auto end = static_cast<std::size_t>(std::clamp(
      std::ceil((y + height) / chip.row_height - eps), 0.0,
      static_cast<double>(chip.num_rows)));
  return {first, end};
}

}  // namespace

LegalityReport check_legality(const Design& design,
                              const LegalityOptions& options) {
  LegalityReport report;
  const Chip& chip = design.chip();
  const double eps = options.tolerance;

  // Per-cell checks, and row occupancy lists for the overlap sweep.
  std::vector<std::vector<std::size_t>> row_cells(chip.num_rows);
  for (const Cell& cell : design.cells()) {
    // Tombstoned cells occupy nothing and obey no rules.
    if (cell.erased) continue;

    // (1) Inside the chip region.
    const double height =
        static_cast<double>(cell.height_rows) * chip.row_height;
    if (cell.x < -eps || cell.x + cell.width > chip.width() + eps ||
        cell.y < -eps || cell.y + height > chip.height() + eps) {
      ++report.outside_chip;
      std::ostringstream os;
      os << "cell " << cell.id << " at (" << cell.x << "," << cell.y
         << ") extends outside the chip";
      record(report, options,
             {ViolationKind::kOutsideChip, cell.id, 0, os.str()});
    }

    // Fixed cells (obstacles) are exempt from alignment and rail rules —
    // they are immutable input. They still participate in the overlap
    // sweep, occupying every row their outline touches.
    if (cell.fixed) {
      const auto [first_row, end_row] = touched_rows(chip, cell.y, height, eps);
      for (std::size_t r = first_row; r < end_row; ++r)
        row_cells[r].push_back(cell.id);
      continue;
    }

    // (2a) On a row boundary. The vertical-fit comparison must happen in
    // the double domain: num_rows and height_rows are unsigned, and their
    // difference wraps for a cell taller than the chip.
    const double row_float = cell.y / chip.row_height;
    const double row_round = std::round(row_float);
    const bool on_row =
        std::abs(cell.y - row_round * chip.row_height) <= eps &&
        row_round >= 0.0 &&
        row_round <= static_cast<double>(chip.num_rows) -
                         static_cast<double>(cell.height_rows);
    if (!on_row) {
      ++report.off_row;
      std::ostringstream os;
      os << "cell " << cell.id << " y=" << cell.y << " not on a row";
      record(report, options, {ViolationKind::kOffRow, cell.id, 0, os.str()});
      // An off-row cell still physically occupies every row its outline
      // touches; register it there so the overlap sweep can see collisions
      // with row-aligned cells instead of silently skipping it.
      const auto [first_row, end_row] = touched_rows(chip, cell.y, height, eps);
      for (std::size_t r = first_row; r < end_row; ++r)
        row_cells[r].push_back(cell.id);
    }

    // (2b) On a site boundary.
    if (options.require_site_alignment) {
      const double site_float = cell.x / chip.site_width;
      if (std::abs(cell.x - std::round(site_float) * chip.site_width) > eps) {
        ++report.off_site;
        std::ostringstream os;
        os << "cell " << cell.id << " x=" << cell.x << " not on a site";
        record(report, options,
               {ViolationKind::kOffSite, cell.id, 0, os.str()});
      }
    }

    // (4) Power-rail alignment, only meaningful when the cell is on a row.
    if (on_row) {
      const auto row = static_cast<std::size_t>(row_round);
      if (!cell.rail_compatible(chip, row)) {
        ++report.rail_mismatches;
        std::ostringstream os;
        os << "cell " << cell.id << " (" << to_string(cell.bottom_rail)
           << "-bottom, height " << cell.height_rows << ") on row " << row
           << " with " << to_string(chip.rail_at(row)) << " rail";
        record(report, options,
               {ViolationKind::kRailMismatch, cell.id, 0, os.str()});
      }
      for (std::size_t r = row;
           r < std::min(row + cell.height_rows, chip.num_rows); ++r)
        row_cells[r].push_back(cell.id);
    }
  }

  // (3) Overlaps: per-row sweep over cells sorted by x. A multi-row cell
  // appears in every row it occupies; a pair sharing two rows would be
  // reported twice, so overlapping pairs are deduplicated through a hash
  // set keyed on the ordered id pair — violation-heavy designs produce
  // O(cells²) pairs, and a linear scan over a growing pair list would make
  // the checker quadratic in the *violation* count on top of that.
  std::unordered_set<std::uint64_t> seen_pairs;
  for (std::size_t r = 0; r < chip.num_rows; ++r) {
    auto& ids = row_cells[r];
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      const double xa = design.cells()[a].x;
      const double xb = design.cells()[b].x;
      return xa != xb ? xa < xb : a < b;
    });
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      const Cell& left = design.cells()[ids[i]];
      // A cell can overlap several successors, not just the next one.
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        const Cell& right = design.cells()[ids[j]];
        const double spill = left.x + left.width - right.x;
        if (spill <= eps) break;  // sorted by x: no further overlaps with i
        const std::uint64_t key =
            (static_cast<std::uint64_t>(std::min(left.id, right.id)) << 32) |
            static_cast<std::uint64_t>(std::max(left.id, right.id));
        if (!seen_pairs.insert(key).second) continue;
        // The overlapped extent cannot exceed the right cell's own width (a
        // narrow cell contained inside a wide one overlaps by its width,
        // not by the distance to the wide cell's far edge).
        const double depth = std::min(spill, right.width);
        ++report.overlaps;
        report.max_overlap_depth = std::max(report.max_overlap_depth, depth);
        std::ostringstream os;
        os << "cells " << left.id << " and " << right.id << " overlap by "
           << depth << " in row " << r;
        record(report, options,
               {ViolationKind::kOverlap, left.id, right.id, os.str()});
      }
    }
  }

  return report;
}

}  // namespace mch::oracle
