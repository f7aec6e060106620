#include "oracle/oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "legal/eviction.h"
#include "util/check.h"
#include "util/log.h"

namespace mch::oracle {

using legal::OwnedOccupancy;
using legal::SiteIndex;

legal::TetrisStats tetris_allocate(db::Design& design) {
  legal::TetrisStats stats;
  const db::Chip& chip = design.chip();
  OwnedOccupancy occupancy(chip);

  // Step 1: snap to the nearest site (not clamped right — step 2 flags
  // out-of-boundary cells instead, exactly as in the paper).
  struct Snapped {
    std::size_t cell;
    SiteIndex site;
    std::size_t base_row;
  };
  // Obstacles are registered first; they are never snapped or relocated.
  for (std::size_t c = 0; c < design.num_cells(); ++c)
    if (design.cells()[c].fixed && !design.cells()[c].erased)
      occupancy.place_fixed(design, c);

  std::vector<Snapped> order;
  order.reserve(design.num_cells());
  for (std::size_t c = 0; c < design.num_cells(); ++c) {
    db::Cell& cell = design.cells()[c];
    if (cell.fixed || cell.erased) continue;
    const auto site = static_cast<SiteIndex>(
        std::llround(cell.x / chip.site_width));
    const auto base_row = static_cast<std::size_t>(
        std::llround(cell.y / chip.row_height));
    MCH_CHECK_MSG(base_row + cell.height_rows <= chip.num_rows,
                  "cell " << c << " not row-aligned before allocation");
    order.push_back({c, std::max<SiteIndex>(site, 0), base_row});
  }

  // Step 2: left-to-right legality scan.
  std::sort(order.begin(), order.end(), [](const Snapped& a, const Snapped& b) {
    if (a.site != b.site) return a.site < b.site;
    return a.cell < b.cell;
  });

  std::vector<Snapped> illegal;
  for (const Snapped& s : order) {
    db::Cell& cell = design.cells()[s.cell];
    const SiteIndex w = occupancy.width_sites(cell);
    if (occupancy.is_free(s.base_row, cell.height_rows, s.site, w)) {
      occupancy.place(design, s.cell, s.base_row, s.site);
    } else {
      illegal.push_back(s);
    }
  }
  stats.illegal_cells = illegal.size();

  // Step 3: nearest free rail-correct position for each illegal cell, with
  // bounded eviction as the last resort on near-capacity chips.
  for (const Snapped& s : illegal) {
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

}  // namespace mch::oracle
