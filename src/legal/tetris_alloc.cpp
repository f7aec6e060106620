#include "legal/tetris_alloc.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "legal/eviction.h"
#include "util/check.h"
#include "util/index.h"
#include "util/log.h"

namespace mch::legal {

namespace {

/// A movable cell snapped to its nearest site and row (not clamped right —
/// step 2 flags out-of-boundary cells instead, exactly as in the paper):
/// the span [site, site + width) on rows [base_row, base_row + height).
/// A width past the chip's is stored as num_sites + 1; such a cell never
/// fits, whatever its exact width.
struct Snapped {
  SiteIndex site;
  index_t cell;
  index_t base_row;
  index_t width;
  std::uint16_t height;
};

/// An obstacle's sites [start, end) on one row.
struct Span {
  SiteIndex start;
  SiteIndex end;
};

/// Step 1: every movable live cell snapped, in id order, checked to be
/// row-aligned; every obstacle's outline appended to the rows it touches
/// (rounded outward, as OwnedOccupancy::place_fixed registers it).
std::vector<Snapped> snap_cells(
    const db::Design& design,
    std::vector<std::vector<Span>>& obstacles) {
  const db::Chip& chip = design.chip();
  const auto max_width = static_cast<SiteIndex>(to_index(chip.num_sites + 1));
  std::vector<Snapped> snapped;
  snapped.reserve(design.num_cells());
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    const db::Cell& cell = design.cells()[c];
    if (cell.erased) continue;
    if (cell.fixed) {
      const Outline o = cell_outline(chip, cell);
      if (o.site_start >= o.site_end) continue;
      for (std::size_t r = o.first_row; r < o.end_row; ++r)
        obstacles[r].push_back({o.site_start, o.site_end});
      continue;
    }
    const auto site =
        static_cast<SiteIndex>(std::llround(cell.x / chip.site_width));
    const auto base_row =
        static_cast<std::size_t>(std::llround(cell.y / chip.row_height));
    MCH_CHECK_MSG(base_row + cell.height_rows <= chip.num_rows,
                  "cell " << c << " not row-aligned before allocation");
    snapped.push_back(
        {std::max<SiteIndex>(site, 0), to_index(c), to_index(base_row),
         static_cast<index_t>(
             std::min(cell_width_sites(chip, cell), max_width)),
         cell.height_rows});
  }
  return snapped;
}

/// Indices into `snapped` in (site, id) order, by a stable counting sort
/// over the sites. Every site past the chip is rejected by step 2 whatever
/// its value, so those share one overflow bucket that is sorted on its
/// own: the count array stays the chip's width, not the largest site.
std::vector<index_t> sort_by_site(const std::vector<Snapped>& snapped,
                                  std::size_t num_sites) {
  const std::size_t overflow = num_sites + 1;
  const auto bucket = [&](const Snapped& s) {
    return std::min(static_cast<std::size_t>(s.site), overflow);
  };
  std::vector<std::size_t> offset(overflow + 2, 0);
  for (const Snapped& s : snapped) ++offset[bucket(s) + 1];
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  const auto overflow_begin = static_cast<std::ptrdiff_t>(offset[overflow]);
  std::vector<index_t> order(snapped.size());
  for (std::size_t k = 0; k < snapped.size(); ++k)
    order[offset[bucket(snapped[k])]++] = to_index(k);
  std::stable_sort(order.begin() + overflow_begin, order.end(),
                   [&](index_t a, index_t b) {
                     return snapped[a].site < snapped[b].site;
                   });
  return order;
}

}  // namespace

TetrisStats tetris_allocate(db::Design& design) {
  TetrisStats stats;
  const db::Chip& chip = design.chip();
  const auto num_sites = static_cast<SiteIndex>(chip.num_sites);

  // Step 1: snap to the nearest site. Obstacles are never snapped or
  // relocated; per row, their spans are sorted and must be disjoint.
  std::vector<std::vector<Span>> obstacles(chip.num_rows);
  const std::vector<Snapped> snapped = snap_cells(design, obstacles);
  const std::vector<index_t> order = sort_by_site(snapped, chip.num_sites);
  for (std::vector<Span>& row : obstacles) {
    std::sort(row.begin(), row.end(), [](const Span& a, const Span& b) {
      return a.start < b.start;
    });
    for (std::size_t i = 1; i < row.size(); ++i)
      MCH_CHECK_MSG(row[i - 1].end <= row[i].start,
                    "occupy(" << row[i].start << "," << row[i].end
                              << ") not free");
  }

  // Step 2: left-to-right legality scan, as a sweep. Every cell accepted
  // before this one starts at or left of it, so a span [site, site + w)
  // with w > 0 misses all of them iff each spanned row's frontier (the max
  // end of its accepted spans) is at or left of `site`; obstacles are
  // checked through a forward-only cursor per row. An empty span
  // intersects nothing, so a zero-width cell only has to fit the chip.
  std::vector<SiteIndex> frontier(chip.num_rows, 0);
  std::vector<std::size_t> next_obstacle(chip.num_rows, 0);
  const auto fits = [&](const Snapped& s) {
    const SiteIndex width = s.width;
    if (s.site + width > num_sites) return false;
    if (width == 0) return true;
    for (std::size_t r = s.base_row; r < s.base_row + s.height; ++r) {
      if (frontier[r] > s.site) return false;
      const std::vector<Span>& row = obstacles[r];
      std::size_t& k = next_obstacle[r];
      while (k < row.size() && row[k].end <= s.site) ++k;
      if (k < row.size() && row[k].start < s.site + width) return false;
    }
    return true;
  };

  std::vector<index_t> illegal;  // into `snapped`, in sweep order
  for (const index_t k : order) {
    const Snapped& s = snapped[k];
    if (!fits(s)) {
      illegal.push_back(k);
      continue;
    }
    db::Cell& cell = design.cells()[s.cell];
    cell.x = static_cast<double>(s.site) * chip.site_width;
    cell.y = chip.row_y(s.base_row);
    if (s.width == 0) continue;
    for (std::size_t r = s.base_row; r < s.base_row + s.height; ++r)
      frontier[r] = s.site + s.width;
  }
  stats.illegal_cells = illegal.size();
  if (illegal.empty()) return stats;

  // Step 3 needs the occupancy grid: the obstacles, then the accepted cells
  // in sweep order, exactly as an is_free/place scan would have left it
  // (every placement lands at or right of its rows' earlier cells).
  OwnedOccupancy occupancy(chip);
  for (std::size_t c = 0; c < design.num_cells(); ++c)
    if (design.cells()[c].fixed && !design.cells()[c].erased)
      occupancy.place_fixed(design, c);
  std::size_t next_illegal = 0;
  for (const index_t k : order) {
    if (next_illegal < illegal.size() && illegal[next_illegal] == k) {
      ++next_illegal;
      continue;
    }
    occupancy.place(design, snapped[k].cell, snapped[k].base_row,
                    snapped[k].site);
  }

  // Step 3: nearest free rail-correct position for each illegal cell, with
  // bounded eviction as the last resort on near-capacity chips.
  for (const index_t k : illegal) {
    const Snapped& s = snapped[k];
    db::Cell& cell = design.cells()[s.cell];
    const double target_x = static_cast<double>(s.site) * chip.site_width;
    const double target_y = chip.row_y(s.base_row);
    const double before_x = target_x;
    const double before_y = target_y;
    if (!occupancy.place_with_eviction(design, s.cell, target_x, target_y)) {
      ++stats.unplaced_cells;
      MCH_LOG(kWarn) << "tetris allocation: no free position for cell "
                     << cell.id;
      continue;
    }
    stats.relocation_cost_sites +=
        (std::abs(cell.x - before_x) + std::abs(cell.y - before_y)) /
        chip.site_width;
  }
  return stats;
}

}  // namespace mch::legal
