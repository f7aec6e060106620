#include "db/legality.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <sstream>
#include <unordered_set>

namespace mch::db {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kOutsideChip:
      return "outside-chip";
    case ViolationKind::kOffSite:
      return "off-site";
    case ViolationKind::kOffRow:
      return "off-row";
    case ViolationKind::kOverlap:
      return "overlap";
    case ViolationKind::kRailMismatch:
      return "rail-mismatch";
  }
  return "unknown";
}

std::string LegalityReport::summary() const {
  std::ostringstream os;
  if (legal()) {
    os << "legal";
  } else {
    os << total_violations << " violations (outside=" << outside_chip
       << " off-site=" << off_site << " off-row=" << off_row
       << " overlap=" << overlaps << " rail=" << rail_mismatches
       << " max-overlap=" << max_overlap_depth << ")";
  }
  return os.str();
}

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

/// Rows [first, end) a live cell occupies in the overlap sweep, and whether
/// a movable cell sits on a row (`row` is then its base row).
struct SweepRows {
  std::size_t first = 0;
  std::size_t end = 0;
  bool on_row = false;
  std::size_t row = 0;
};

SweepRows sweep_rows(const Chip& chip, const Cell& cell, double eps) {
  const double height =
      static_cast<double>(cell.height_rows) * chip.row_height;
  SweepRows rows;
  // Fixed cells (obstacles) are exempt from alignment and rail rules —
  // they are immutable input. They still participate in the overlap
  // sweep, occupying every row their outline touches.
  if (cell.fixed) {
    std::tie(rows.first, rows.end) = touched_rows(chip, cell.y, height, eps);
    return rows;
  }
  // (2a) On a row boundary. The vertical-fit comparison must happen in
  // the double domain: num_rows and height_rows are unsigned, and their
  // difference wraps for a cell taller than the chip.
  const double row_round = std::round(cell.y / chip.row_height);
  rows.on_row = std::abs(cell.y - row_round * chip.row_height) <= eps &&
                row_round >= 0.0 &&
                row_round <= static_cast<double>(chip.num_rows) -
                                 static_cast<double>(cell.height_rows);
  if (!rows.on_row) {
    // An off-row cell still physically occupies every row its outline
    // touches; register it there so the overlap sweep can see collisions
    // with row-aligned cells instead of silently skipping it.
    std::tie(rows.first, rows.end) = touched_rows(chip, cell.y, height, eps);
    return rows;
  }
  rows.row = static_cast<std::size_t>(row_round);
  rows.first = rows.row;
  rows.end = std::min(rows.row + cell.height_rows, chip.num_rows);
  return rows;
}

/// One cell's entry in a row of the overlap sweep.
struct RowEntry {
  double x;
  double width;
  index_t id;
};

}  // namespace

LegalityReport check_legality(const Design& design,
                              const LegalityOptions& options) {
  LegalityReport report;
  const Chip& chip = design.chip();
  const double eps = options.tolerance;

  // Per-cell checks, counting each row's entries for the overlap sweep.
  // Each cell's x, width and rows [first, end) go into one compact array
  // that the fill and the sweep below read instead of the cells.
  std::vector<std::size_t> row_begin(chip.num_rows + 1, 0);
  struct CellRows {
    double x;
    double width;
    index_t first;
    index_t end;
  };
  std::vector<CellRows> cell_rows(design.num_cells());
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

    const SweepRows rows = sweep_rows(chip, cell, eps);
    cell_rows[cell.id] = {cell.x, cell.width, to_index(rows.first),
                          to_index(rows.end)};
    for (std::size_t r = rows.first; r < rows.end; ++r) ++row_begin[r + 1];
    if (cell.fixed) continue;

    if (!rows.on_row) {
      ++report.off_row;
      std::ostringstream os;
      os << "cell " << cell.id << " y=" << cell.y << " not on a row";
      record(report, options, {ViolationKind::kOffRow, cell.id, 0, os.str()});
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
    if (rows.on_row && !cell.rail_compatible(chip, rows.row)) {
      ++report.rail_mismatches;
      std::ostringstream os;
      os << "cell " << cell.id << " (" << to_string(cell.bottom_rail)
         << "-bottom, height " << cell.height_rows << ") on row " << rows.row
         << " with " << to_string(chip.rail_at(rows.row)) << " rail";
      record(report, options,
             {ViolationKind::kRailMismatch, cell.id, 0, os.str()});
    }
  }

  // CSR row lists of cell ids: prefix-sum the counts, then fill in id
  // order from the row ranges kept above.
  std::partial_sum(row_begin.begin(), row_begin.end(), row_begin.begin());
  std::vector<index_t> row_ids(row_begin.back());
  {
    std::vector<std::size_t> next(row_begin.begin(), row_begin.end() - 1);
    for (std::size_t c = 0; c < cell_rows.size(); ++c)
      for (std::size_t r = cell_rows[c].first; r < cell_rows[c].end; ++r)
        row_ids[next[r]++] = to_index(c);
  }

  // (3) Overlaps: per-row sweep over cells sorted by x. A multi-row cell
  // appears in every row it occupies; a pair sharing two rows would be
  // reported twice, so overlapping pairs are deduplicated through a hash
  // set keyed on the ordered id pair — violation-heavy designs produce
  // O(cells²) pairs, and a linear scan over a growing pair list would make
  // the checker quadratic in the *violation* count on top of that.
  // Each row's cells are copied by value into one reused buffer and sorted
  // there by (x, id) with a direct comparator: one row's buffer stays in
  // cache, where a whole-design array of entries would not.
  std::unordered_set<std::uint64_t> seen_pairs;
  std::vector<RowEntry> entries;
  for (std::size_t r = 0; r < chip.num_rows; ++r) {
    entries.clear();
    for (std::size_t k = row_begin[r]; k < row_begin[r + 1]; ++k) {
      const CellRows& cell = cell_rows[row_ids[k]];
      entries.push_back({cell.x, cell.width, row_ids[k]});
    }
    const auto first = entries.begin();
    const auto last = entries.end();
    std::sort(first, last, [](const RowEntry& a, const RowEntry& b) {
      return a.x != b.x ? a.x < b.x : a.id < b.id;
    });
    for (auto left = first; left != last; ++left) {
      // A cell can overlap several successors, not just the next one.
      for (auto right = std::next(left); right != last; ++right) {
        const double spill = left->x + left->width - right->x;
        if (spill <= eps) break;  // sorted by x: left overlaps no further
        const std::uint64_t key =
            (static_cast<std::uint64_t>(std::min(left->id, right->id))
             << 32) |
            static_cast<std::uint64_t>(std::max(left->id, right->id));
        if (!seen_pairs.insert(key).second) continue;
        // The overlapped extent cannot exceed the right cell's own width (a
        // narrow cell contained inside a wide one overlaps by its width,
        // not by the distance to the wide cell's far edge).
        const double depth = std::min(spill, right->width);
        ++report.overlaps;
        report.max_overlap_depth = std::max(report.max_overlap_depth, depth);
        std::ostringstream os;
        os << "cells " << left->id << " and " << right->id << " overlap by "
           << depth << " in row " << r;
        record(report, options,
               {ViolationKind::kOverlap, left->id, right->id, os.str()});
      }
    }
  }

  return report;
}

}  // namespace mch::db
