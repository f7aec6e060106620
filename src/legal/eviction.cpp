#include "legal/eviction.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace mch::legal {

OwnedOccupancy::OwnerRow::iterator OwnedOccupancy::lower_bound(
    OwnerRow& row, SiteIndex site) {
  if (row.empty() || row.back().start < site) return row.end();
  return std::lower_bound(
      row.begin(), row.end(), site,
      [](const OwnedSpan& span, SiteIndex s) { return span.start < s; });
}

void OwnedOccupancy::set_owner(OwnerRow& row, const OwnedSpan& span) {
  const auto it = lower_bound(row, span.start);
  if (it != row.end() && it->start == span.start)
    *it = span;
  else
    row.insert(it, span);
}

void OwnedOccupancy::place(db::Design& design, std::size_t id,
                           std::size_t base_row, SiteIndex site) {
  db::Cell& cell = design.cells()[id];
  const SiteIndex w = grid_.width_sites(cell);
  grid_.occupy(base_row, cell.height_rows, site, w);
  for (std::size_t r = base_row; r < base_row + cell.height_rows; ++r)
    set_owner(owners_[r], {site, site + w, id});
  cell.x = static_cast<double>(site) * chip().site_width;
  cell.y = chip().row_y(base_row);
}

void OwnedOccupancy::remove(db::Design& design, std::size_t id) {
  db::Cell& cell = design.cells()[id];
  const auto base_row = static_cast<std::size_t>(
      std::llround(cell.y / chip().row_height));
  const auto site =
      static_cast<SiteIndex>(std::llround(cell.x / chip().site_width));
  grid_.release(base_row, cell.height_rows, site, grid_.width_sites(cell));
  for (std::size_t r = base_row; r < base_row + cell.height_rows; ++r) {
    OwnerRow& row = owners_[r];
    const auto it = lower_bound(row, site);
    if (it != row.end() && it->start == site) row.erase(it);
  }
}

void OwnedOccupancy::place_fixed(const db::Design& design, std::size_t id) {
  const db::Cell& cell = design.cells()[id];
  MCH_CHECK(cell.fixed);
  const Outline o = cell_outline(chip(), cell);
  if (o.site_start >= o.site_end) return;
  for (std::size_t r = o.first_row; r < o.end_row; ++r) {
    grid_.occupy(r, 1, o.site_start, o.site_end - o.site_start);
    set_owner(owners_[r], {o.site_start, o.site_end, id});
  }
}

std::vector<std::size_t> OwnedOccupancy::blockers(std::size_t base_row,
                                                  std::size_t height,
                                                  SiteIndex site,
                                                  SiteIndex width) const {
  std::vector<std::size_t> ids;
  for (std::size_t r = base_row; r < base_row + height; ++r) {
    const OwnerRow& row = owners_[r];
    // First span starting after `site`; its predecessor may cover site.
    auto it = std::upper_bound(
        row.begin(), row.end(), site,
        [](SiteIndex s, const OwnedSpan& span) { return s < span.start; });
    if (it != row.begin() && std::prev(it)->end > site)
      ids.push_back(std::prev(it)->id);
    for (; it != row.end() && it->start < site + width; ++it)
      ids.push_back(it->id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

bool OwnedOccupancy::place_with_eviction(db::Design& design, std::size_t id,
                                         double target_x, double target_y) {
  db::Cell& cell = design.cells()[id];
  const PlacementCandidate direct =
      grid_.find_nearest(cell, target_x, target_y);
  if (direct.found) {
    place(design, id, direct.base_row, direct.site);
    return true;
  }

  const std::size_t h = cell.height_rows;
  if (h > chip().num_rows) return false;
  const std::size_t max_base = chip().num_rows - h;
  const SiteIndex w = grid_.width_sites(cell);
  const auto anchor = design.nearest_row(target_y, h);

  for (std::size_t dist = 0; dist <= chip().num_rows; ++dist) {
    bool any = false;
    for (const int sign : {+1, -1}) {
      if (dist == 0 && sign < 0) continue;
      const auto row = static_cast<std::ptrdiff_t>(anchor) +
                       sign * static_cast<std::ptrdiff_t>(dist);
      if (row < 0 || row > static_cast<std::ptrdiff_t>(max_base)) continue;
      any = true;
      const auto base = static_cast<std::size_t>(row);
      if (!cell.rail_compatible(chip(), base)) continue;

      const auto site = std::clamp<SiteIndex>(
          static_cast<SiteIndex>(std::llround(target_x / chip().site_width)),
          0, grid_.num_sites() - w);
      const std::vector<std::size_t> victims = blockers(base, h, site, w);
      const bool all_single =
          std::all_of(victims.begin(), victims.end(), [&](std::size_t v) {
            return !design.cells()[v].fixed &&
                   design.cells()[v].height_rows == 1;
          });
      if (!all_single) continue;

      for (const std::size_t v : victims) remove(design, v);
      place(design, id, base, site);
      for (const std::size_t v : victims) {
        db::Cell& evicted = design.cells()[v];
        const PlacementCandidate spot =
            grid_.find_nearest(evicted, evicted.gp_x, evicted.gp_y);
        if (!spot.found) return false;  // chip genuinely has no capacity
        place(design, v, spot.base_row, spot.site);
      }
      return true;
    }
    if (!any) break;
  }
  return false;
}

}  // namespace mch::legal
