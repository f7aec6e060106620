#include "legal/occupancy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace mch::legal {

std::vector<RowOccupancy::Interval>::const_iterator RowOccupancy::first_after(
    SiteIndex site) const {
  // Rows filled left to right look up at their end: skip the search.
  if (intervals_.empty() || intervals_.back().first <= site)
    return intervals_.end();
  return std::upper_bound(
      intervals_.begin(), intervals_.end(), site,
      [](SiteIndex s, const Interval& interval) { return s < interval.first; });
}

bool RowOccupancy::is_free(SiteIndex start, SiteIndex end) const {
  MCH_DCHECK(start <= end);
  if (start == end) return true;
  // First interval starting after `start`; its predecessor may cover start.
  const auto it = first_after(start);
  if (it != intervals_.begin() && std::prev(it)->second > start) return false;
  return it == intervals_.end() || it->first >= end;
}

void RowOccupancy::occupy(SiteIndex start, SiteIndex end) {
  MCH_CHECK_MSG(is_free(start, end),
                "occupy(" << start << "," << end << ") not free");
  if (start == end) return;
  // Coalesce with neighbors touching exactly at the boundaries.
  const auto pos =
      intervals_.begin() + (first_after(start) - intervals_.cbegin());
  const bool joins_prev =
      pos != intervals_.begin() && std::prev(pos)->second == start;
  const bool joins_next = pos != intervals_.end() && pos->first == end;
  if (joins_prev && joins_next) {
    std::prev(pos)->second = pos->second;
    intervals_.erase(pos);
  } else if (joins_prev) {
    std::prev(pos)->second = end;
  } else if (joins_next) {
    pos->first = start;
  } else {
    intervals_.insert(pos, {start, end});
  }
}

void RowOccupancy::release(SiteIndex start, SiteIndex end) {
  if (start == end) return;
  auto it = intervals_.begin() + (first_after(start) - intervals_.cbegin());
  MCH_CHECK_MSG(it != intervals_.begin(), "release of unoccupied span");
  --it;
  MCH_CHECK_MSG(it->first <= start && it->second >= end,
                "release(" << start << "," << end
                           << ") does not match an occupied span");
  const SiteIndex old_start = it->first;
  const SiteIndex old_end = it->second;
  if (old_start < start && end < old_end) {
    it->second = start;
    intervals_.insert(std::next(it), {end, old_end});
  } else if (old_start < start) {
    it->second = start;
  } else if (end < old_end) {
    it->first = end;
  } else {
    intervals_.erase(it);
  }
}

void RowOccupancy::collect(
    SiteIndex lo, SiteIndex hi,
    std::vector<std::pair<SiteIndex, SiteIndex>>& out) const {
  auto it = first_after(lo);
  if (it != intervals_.begin()) {
    const auto prev = std::prev(it);
    if (prev->second > lo)
      out.emplace_back(std::max(prev->first, lo),
                       std::min(prev->second, hi));
  }
  for (; it != intervals_.end() && it->first < hi; ++it)
    out.emplace_back(it->first, std::min(it->second, hi));
}

OccupancyGrid::OccupancyGrid(const db::Chip& chip)
    : chip_(chip), rows_(chip.num_rows) {}

SiteIndex cell_width_sites(const db::Chip& chip, const db::Cell& cell) {
  return static_cast<SiteIndex>(
      std::ceil(cell.width / chip.site_width - 1e-9));
}

Outline cell_outline(const db::Chip& chip, const db::Cell& cell) {
  const double height =
      static_cast<double>(cell.height_rows) * chip.row_height;
  Outline o;
  o.first_row = static_cast<std::size_t>(std::clamp(
      std::floor(cell.y / chip.row_height + 1e-9), 0.0,
      static_cast<double>(chip.num_rows)));
  o.end_row = static_cast<std::size_t>(std::clamp(
      std::ceil((cell.y + height) / chip.row_height - 1e-9), 0.0,
      static_cast<double>(chip.num_rows)));
  o.site_start = std::max<SiteIndex>(
      0, static_cast<SiteIndex>(std::floor(cell.x / chip.site_width + 1e-9)));
  o.site_end = std::min<SiteIndex>(
      static_cast<SiteIndex>(chip.num_sites),
      static_cast<SiteIndex>(
          std::ceil((cell.x + cell.width) / chip.site_width - 1e-9)));
  return o;
}

bool OccupancyGrid::is_free(std::size_t base_row, std::size_t height,
                            SiteIndex site, SiteIndex width_sites) const {
  if (site < 0 || site + width_sites > num_sites()) return false;
  if (base_row + height > chip_.num_rows) return false;
  for (std::size_t r = base_row; r < base_row + height; ++r)
    if (!rows_[r].is_free(site, site + width_sites)) return false;
  return true;
}

void OccupancyGrid::occupy(std::size_t base_row, std::size_t height,
                           SiteIndex site, SiteIndex width_sites) {
  MCH_CHECK(base_row + height <= chip_.num_rows);
  for (std::size_t r = base_row; r < base_row + height; ++r)
    rows_[r].occupy(site, site + width_sites);
}

void OccupancyGrid::release(std::size_t base_row, std::size_t height,
                            SiteIndex site, SiteIndex width_sites) {
  MCH_CHECK(base_row + height <= chip_.num_rows);
  for (std::size_t r = base_row; r < base_row + height; ++r)
    rows_[r].release(site, site + width_sites);
}

void OccupancyGrid::occupy_cell(const db::Cell& cell) {
  const auto row = static_cast<std::size_t>(
      std::llround(cell.y / chip_.row_height));
  const auto site =
      static_cast<SiteIndex>(std::llround(cell.x / chip_.site_width));
  occupy(row, cell.height_rows, site, width_sites(cell));
}

void OccupancyGrid::occupy_outline(const db::Cell& cell) {
  const Outline o = cell_outline(chip_, cell);
  if (o.site_start >= o.site_end) return;
  for (std::size_t r = o.first_row; r < o.end_row; ++r)
    rows_[r].occupy(o.site_start, o.site_end);
}

void OccupancyGrid::release_cell(const db::Cell& cell) {
  const auto row = static_cast<std::size_t>(
      std::llround(cell.y / chip_.row_height));
  const auto site =
      static_cast<SiteIndex>(std::llround(cell.x / chip_.site_width));
  release(row, cell.height_rows, site, width_sites(cell));
}

PlacementCandidate OccupancyGrid::find_in_rows(std::size_t base_row,
                                               std::size_t height,
                                               SiteIndex width_sites,
                                               double target_x) const {
  PlacementCandidate best;
  if (base_row + height > chip_.num_rows) return best;
  const SiteIndex total = num_sites();
  if (width_sites > total) return best;

  const auto target_site = static_cast<SiteIndex>(
      std::llround(target_x / chip_.site_width));

  // Expanding-window scan: merge the occupied intervals of the spanned rows
  // inside [lo, hi), list the free gaps, and pick the gap position nearest
  // to the target. The window doubles until a position is found or the row
  // is fully covered.
  SiteIndex radius = std::max<SiteIndex>(4 * width_sites, 64);
  std::vector<std::pair<SiteIndex, SiteIndex>> occupied;
  while (true) {
    const SiteIndex lo = std::max<SiteIndex>(0, target_site - radius);
    const SiteIndex hi = std::min<SiteIndex>(total, target_site + radius);

    occupied.clear();
    for (std::size_t r = base_row; r < base_row + height; ++r)
      rows_[r].collect(lo, hi, occupied);
    std::sort(occupied.begin(), occupied.end());

    // Walk the merged gaps.
    double best_cost = std::numeric_limits<double>::infinity();
    SiteIndex best_site = 0;
    bool found = false;
    SiteIndex cursor = lo;
    const auto consider_gap = [&](SiteIndex g0, SiteIndex g1) {
      if (g1 - g0 < width_sites) return;
      const SiteIndex pos =
          std::clamp(target_site, g0, g1 - width_sites);
      const double cost =
          std::abs(static_cast<double>(pos - target_site)) * chip_.site_width;
      if (cost < best_cost) {
        best_cost = cost;
        best_site = pos;
        found = true;
      }
    };
    for (const auto& [s, e] : occupied) {
      if (s > cursor) consider_gap(cursor, s);
      cursor = std::max(cursor, e);
    }
    if (cursor < hi) consider_gap(cursor, hi);

    const bool window_covers_row = (lo == 0 && hi == total);
    if (found) {
      // A position at the window edge may be beaten by one just outside;
      // accept only if the window slack exceeds the found cost (or the
      // window is the whole row).
      const double slack =
          static_cast<double>(std::min(target_site - lo, hi - target_site)) *
          chip_.site_width;
      if (window_covers_row || best_cost <= slack) {
        best.found = true;
        best.base_row = base_row;
        best.site = best_site;
        best.cost = best_cost;
        return best;
      }
    }
    if (window_covers_row) return best;  // exhaustive and nothing found
    radius *= 2;
  }
}

PlacementCandidate OccupancyGrid::find_nearest(
    const db::Cell& cell, double target_x, double target_y,
    std::size_t max_row_distance) const {
  PlacementCandidate best;
  double best_cost = std::numeric_limits<double>::infinity();

  const std::size_t height = cell.height_rows;
  if (height > chip_.num_rows) return best;
  const std::size_t max_base = chip_.num_rows - height;
  const auto anchor = static_cast<std::ptrdiff_t>(std::clamp<double>(
      static_cast<double>(std::llround(target_y / chip_.row_height)), 0.0,
      static_cast<double>(max_base)));
  const SiteIndex w = width_sites(cell);

  // Candidate base rows in increasing |row_y − target_y|, alternating
  // above/below the anchor. Stop once the vertical cost alone exceeds the
  // best total cost found.
  for (std::size_t dist = 0;; ++dist) {
    if (max_row_distance > 0 && dist > max_row_distance) break;
    bool any_candidate = false;
    for (const int sign : {+1, -1}) {
      if (dist == 0 && sign < 0) continue;
      const std::ptrdiff_t row =
          anchor + sign * static_cast<std::ptrdiff_t>(dist);
      if (row < 0 || row > static_cast<std::ptrdiff_t>(max_base)) continue;
      any_candidate = true;
      const auto base = static_cast<std::size_t>(row);
      if (!cell.rail_compatible(chip_, base)) continue;

      const double dy = std::abs(chip_.row_y(base) - target_y);
      if (dy >= best_cost) continue;
      PlacementCandidate cand = find_in_rows(base, height, w, target_x);
      if (!cand.found) continue;
      const double cost = cand.cost + dy;
      if (cost < best_cost) {
        best_cost = cost;
        best = cand;
        best.cost = cost;
      }
    }
    if (!any_candidate) break;
    // Vertical lower bound of the next ring.
    const double next_dy =
        static_cast<double>(dist + 1) * chip_.row_height -
        std::abs(target_y - chip_.row_y(static_cast<std::size_t>(anchor)));
    if (best.found && next_dy > best_cost) break;
  }
  return best;
}

}  // namespace mch::legal
