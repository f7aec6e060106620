#include "baselines/local.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "legal/occupancy.h"
#include "util/log.h"
#include "util/timer.h"

namespace mch::baselines {

namespace {

/// First-fit search: rows in increasing vertical distance, accepting the
/// first row that can accommodate the cell without weighing it against
/// candidates in further rows. This is the "quick pick of a nearby
/// accommodating region" behavior of the published base algorithm; the
/// improved variant refines its output with a ripple pass.
legal::PlacementCandidate first_fit(const db::Design& design,
                                    const legal::OccupancyGrid& grid,
                                    const db::Cell& cell) {
  const db::Chip& chip = design.chip();
  const std::size_t h = cell.height_rows;
  const std::size_t max_base = chip.num_rows - h;
  const std::size_t anchor = design.nearest_row(cell.gp_y, h);
  const legal::SiteIndex w = grid.width_sites(cell);

  legal::PlacementCandidate best;
  for (std::size_t dist = 0; dist <= chip.num_rows; ++dist) {
    bool any = false;
    for (const int sign : {+1, -1}) {
      if (dist == 0 && sign < 0) continue;
      const auto row = static_cast<std::ptrdiff_t>(anchor) +
                       sign * static_cast<std::ptrdiff_t>(dist);
      if (row < 0 || row > static_cast<std::ptrdiff_t>(max_base)) continue;
      any = true;
      const auto base = static_cast<std::size_t>(row);
      if (!cell.rail_compatible(chip, base)) continue;
      legal::PlacementCandidate cand =
          grid.find_in_rows(base, h, w, cell.gp_x);
      if (!cand.found) continue;
      cand.cost += std::abs(chip.row_y(base) - cell.gp_y);
      // First fit: take the first nearby-row candidate with a modest
      // horizontal detour instead of weighing all rows against each other.
      return cand;
    }
    if (!any) break;
  }
  return best;
}

/// Places one cell: direct snap when free, otherwise the first-fit search.
/// Returns false when no position exists anywhere.
bool place_cell(const db::Design& design, legal::OccupancyGrid& grid,
                db::Cell& cell, LocalLegalizerStats& stats) {
  const db::Chip& chip = design.chip();
  const std::size_t row = design.nearest_legal_row(cell);
  const auto site = static_cast<legal::SiteIndex>(
      std::llround(cell.gp_x / chip.site_width));
  const legal::SiteIndex w = grid.width_sites(cell);
  const auto clamped_site = std::clamp<legal::SiteIndex>(
      site, 0, std::max<legal::SiteIndex>(0, grid.num_sites() - w));
  if (grid.is_free(row, cell.height_rows, clamped_site, w)) {
    grid.occupy(row, cell.height_rows, clamped_site, w);
    cell.x = static_cast<double>(clamped_site) * chip.site_width;
    cell.y = chip.row_y(row);
    ++stats.direct_placements;
    return true;
  }

  const legal::PlacementCandidate cand = first_fit(design, grid, cell);
  if (!cand.found) return false;
  grid.occupy(cand.base_row, cell.height_rows, cand.site, w);
  cell.x = static_cast<double>(cand.site) * chip.site_width;
  cell.y = chip.row_y(cand.base_row);
  ++stats.window_placements;
  return true;
}

}  // namespace

LocalLegalizerStats local_legalize(db::Design& design, LocalVariant variant) {
  Timer timer;
  LocalLegalizerStats stats;
  const db::Chip& chip = design.chip();
  legal::OccupancyGrid grid(chip);

  // Obstacles block the grid up front and are skipped by the sweep.
  for (std::size_t i = 0; i < design.num_cells(); ++i)
    if (design.cells()[i].fixed) grid.occupy_outline(design.cells()[i]);

  std::vector<std::size_t> order;
  order.reserve(design.num_cells());
  for (std::size_t i = 0; i < design.num_cells(); ++i)
    if (!design.cells()[i].fixed) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double xa = design.cells()[a].gp_x;
    const double xb = design.cells()[b].gp_x;
    if (xa != xb) return xa < xb;
    return a < b;
  });

  std::vector<char> placed(design.num_cells(), 0);
  for (const std::size_t id : order) {
    db::Cell& cell = design.cells()[id];
    if (place_cell(design, grid, cell, stats)) {
      placed[id] = 1;
    } else {
      ++stats.failed_cells;
      MCH_LOG(kWarn) << "local legalizer: no position for cell " << id;
    }
  }

  // "Improved" variant: ripple refinement on top of the base pass — every
  // cell is lifted out and re-inserted at its now-best position. Each move
  // strictly reduces that cell's displacement, so the refined placement is
  // never worse than the base one. This mirrors the authors'
  // post-conference improved binary, which beat their DAC'16 numbers (see
  // paper Table 2 "DAC'16-Imp"). Cells the base pass could not place hold
  // no span in the grid and stay out of the refinement.
  if (variant == LocalVariant::kImproved) {
    for (const std::size_t id : order) {
      if (placed[id] == 0) continue;
      db::Cell& cell = design.cells()[id];
      grid.release_cell(cell);
      const double old_x = cell.x;
      const double old_y = cell.y;
      const legal::PlacementCandidate cand =
          grid.find_nearest(cell, cell.gp_x, cell.gp_y);
      if (cand.found) {
        const double new_cost =
            std::abs(static_cast<double>(cand.site) * chip.site_width -
                     cell.gp_x) +
            std::abs(chip.row_y(cand.base_row) - cell.gp_y);
        const double old_cost =
            std::abs(old_x - cell.gp_x) + std::abs(old_y - cell.gp_y);
        if (new_cost < old_cost) {
          grid.occupy(cand.base_row, cell.height_rows, cand.site,
                      grid.width_sites(cell));
          cell.x = static_cast<double>(cand.site) * chip.site_width;
          cell.y = chip.row_y(cand.base_row);
          continue;
        }
      }
      // Keep the original spot.
      grid.occupy_cell(cell);
    }
  }

  stats.seconds = timer.seconds();
  return stats;
}

}  // namespace mch::baselines
