#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <unordered_set>

#include "util/rng.h"

namespace mm::geo {

namespace {

/// floor(v / cell) as an int64 cell coordinate. std::floor keeps the
/// negative side correct (-0.3 -> cell -1, not 0). Clamping guards the cast
/// against extreme coordinate/cell ratios; it is monotone, so insertion and
/// query traversal agree on which (possibly saturated) cell a point is in.
std::int64_t cell_coord(double v, double cell) noexcept {
  constexpr double kLimit = 1099511627776.0;  // 2^40 cells
  const double scaled = std::floor(v / cell);
  if (!(scaled > -kLimit)) return -static_cast<std::int64_t>(kLimit);  // also NaN
  if (scaled > kLimit) return static_cast<std::int64_t>(kLimit);
  return static_cast<std::int64_t>(scaled);
}

/// The self-sizing cell: ~1 point per cell over the points' bounding box,
/// clamped to [1 m, 1 km]. A degenerate box (one point, coincident points)
/// counts as 1 m^2. `points` must be non-empty.
double density_cell(std::span<const Vec2> points) {
  Vec2 lo = points.front();
  Vec2 hi = lo;
  for (const Vec2& p : points) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  const double area = std::max(1.0, (hi.x - lo.x) * (hi.y - lo.y));
  return std::clamp(std::sqrt(area / static_cast<double>(points.size())), 1.0, 1000.0);
}

}  // namespace

std::size_t SpatialIndex::CellHasher::operator()(const Cell& c) const noexcept {
  return static_cast<std::size_t>(util::hash_combine(static_cast<std::uint64_t>(c.x),
                                                     static_cast<std::uint64_t>(c.y)));
}

SpatialIndex::SpatialIndex() : cell_size_(100.0), self_sizing_(true) {}

SpatialIndex::SpatialIndex(double cell_size_m)
    : cell_size_(cell_size_m), self_sizing_(false) {
  if (!(cell_size_m > 0.0) || !std::isfinite(cell_size_m)) {
    throw std::invalid_argument("SpatialIndex: cell size must be positive and finite");
  }
}

SpatialIndex SpatialIndex::build_from(std::span<const Vec2> points) {
  SpatialIndex index;
  if (!points.empty()) index.cell_size_ = density_cell(points);
  // Later inserts resume the doubling schedule above the bulk size.
  while (index.next_resize_ <= points.size()) index.next_resize_ *= 2;
  for (std::size_t i = 0; i < points.size(); ++i) {
    index.points_.emplace(i, points[i]);
    index.place(i, points[i]);
  }
  return index;
}

SpatialIndex::Cell SpatialIndex::cell_of(Vec2 p) const noexcept {
  return {cell_coord(p.x, cell_size_), cell_coord(p.y, cell_size_)};
}

void SpatialIndex::insert(Id id, Vec2 p) {
  if (!points_.emplace(id, p).second) {
    throw std::invalid_argument("SpatialIndex::insert: duplicate id");
  }
  place(id, p);
  if (self_sizing_ && points_.size() >= next_resize_) {
    // Checked at doubling sizes to amortize the rebuild; a cell within
    // 0.5-2x of the current one is not worth the churn.
    next_resize_ *= 2;
    std::vector<Vec2> positions;
    positions.reserve(points_.size());
    for (const auto& [pid, pos] : points_) positions.push_back(pos);
    const double cell = density_cell(positions);
    if (!(cell > cell_size_ * 0.5 && cell < cell_size_ * 2.0)) rebuild(cell);
  }
}

void SpatialIndex::place(Id id, Vec2 p) {
  const Cell c = cell_of(p);
  cells_[c].push_back({id, p});
  if (!has_bounds_) {
    cell_lo_ = cell_hi_ = c;
    has_bounds_ = true;
  } else {
    cell_lo_.x = std::min(cell_lo_.x, c.x);
    cell_lo_.y = std::min(cell_lo_.y, c.y);
    cell_hi_.x = std::max(cell_hi_.x, c.x);
    cell_hi_.y = std::max(cell_hi_.y, c.y);
  }
}

void SpatialIndex::rebuild(double cell_size_m) {
  cell_size_ = cell_size_m;
  cells_.clear();
  has_bounds_ = false;
  for (const auto& [id, p] : points_) place(id, p);
}

bool SpatialIndex::erase(Id id) {
  const auto it = points_.find(id);
  if (it == points_.end()) return false;
  const Cell c = cell_of(it->second);
  const auto cell_it = cells_.find(c);
  if (cell_it != cells_.end()) {
    auto& bucket = cell_it->second;
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(),
                                [&](const Entry& e) { return e.id == id; }),
                 bucket.end());
    if (bucket.empty()) cells_.erase(cell_it);
  }
  points_.erase(it);
  return true;
}

void SpatialIndex::clear() {
  cells_.clear();
  points_.clear();
  has_bounds_ = false;
  next_resize_ = kFirstResize;
}

std::vector<SpatialIndex::Id> SpatialIndex::query_disc(Vec2 center, double radius_m) const {
  std::vector<Id> out;
  query_disc(center, radius_m, out);
  return out;
}

void SpatialIndex::query_disc(Vec2 center, double radius_m, std::vector<Id>& out) const {
  out.clear();
  if (!(radius_m >= 0.0) || points_.empty()) return;  // rejects NaN too

  const std::int64_t cx_lo = cell_coord(center.x - radius_m, cell_size_);
  const std::int64_t cx_hi = cell_coord(center.x + radius_m, cell_size_);
  const std::int64_t cy_lo = cell_coord(center.y - radius_m, cell_size_);
  const std::int64_t cy_hi = cell_coord(center.y + radius_m, cell_size_);
  const auto span_x = static_cast<std::uint64_t>(cx_hi - cx_lo + 1);
  const auto span_y = static_cast<std::uint64_t>(cy_hi - cy_lo + 1);

  // A huge radius over a small index degenerates to visiting every occupied
  // cell instead of the whole rectangle. Either traversal yields the same
  // result: the final ascending-id sort canonicalizes the order.
  if (span_x > cells_.size() || span_y > cells_.size() ||
      span_x * span_y > cells_.size()) {
    for (const auto& [cell, bucket] : cells_) {
      if (cell.x < cx_lo || cell.x > cx_hi || cell.y < cy_lo || cell.y > cy_hi) continue;
      for (const Entry& e : bucket) {
        if (e.p.distance_to(center) <= radius_m) out.push_back(e.id);
      }
    }
  } else {
    for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
        const auto it = cells_.find({cx, cy});
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          if (e.p.distance_to(center) <= radius_m) out.push_back(e.id);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<SpatialIndex::Id> SpatialIndex::query_range(Vec2 lo, Vec2 hi) const {
  std::vector<Id> out;
  query_range(lo, hi, out);
  return out;
}

void SpatialIndex::query_range(Vec2 lo, Vec2 hi, std::vector<Id>& out) const {
  out.clear();
  if (points_.empty() || !(lo.x <= hi.x) || !(lo.y <= hi.y)) return;

  const std::int64_t cx_lo = cell_coord(lo.x, cell_size_);
  const std::int64_t cx_hi = cell_coord(hi.x, cell_size_);
  const std::int64_t cy_lo = cell_coord(lo.y, cell_size_);
  const std::int64_t cy_hi = cell_coord(hi.y, cell_size_);
  const auto span_x = static_cast<std::uint64_t>(cx_hi - cx_lo + 1);
  const auto span_y = static_cast<std::uint64_t>(cy_hi - cy_lo + 1);

  const auto in_rect = [&](Vec2 p) {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  };
  if (span_x > cells_.size() || span_y > cells_.size() ||
      span_x * span_y > cells_.size()) {
    for (const auto& [cell, bucket] : cells_) {
      if (cell.x < cx_lo || cell.x > cx_hi || cell.y < cy_lo || cell.y > cy_hi) continue;
      for (const Entry& e : bucket) {
        if (in_rect(e.p)) out.push_back(e.id);
      }
    }
  } else {
    for (std::int64_t cy = cy_lo; cy <= cy_hi; ++cy) {
      for (std::int64_t cx = cx_lo; cx <= cx_hi; ++cx) {
        const auto it = cells_.find({cx, cy});
        if (it == cells_.end()) continue;
        for (const Entry& e : it->second) {
          if (in_rect(e.p)) out.push_back(e.id);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<SpatialIndex::Id> SpatialIndex::nearest_k(Vec2 center, std::size_t k) const {
  std::vector<Id> out;
  if (k == 0 || points_.empty()) return out;

  std::vector<std::pair<double, Id>> best;

  if (2 * k >= points_.size()) {
    // The answer covers (most of) the index; any traversal degenerates to a
    // full scan, so do the scan without frontier bookkeeping.
    best.reserve(points_.size());
    for (const auto& [id, p] : points_) best.emplace_back(p.distance_to(center), id);
  } else {
    // Best-first search over cells. The frontier starts at the occupied
    // bounding box's cell nearest the query (a far-away center therefore
    // skips straight past the empty gulf old ring expansion crawled across)
    // and expands 8-neighbourhoods in ascending lower-bound order, so cells
    // behind the query are popped only if the answer forces them.
    //
    // The per-cell lower bound is the per-axis ring argument: a point whose
    // cell is d >= 1 cells away along an axis lies at least (d-1)*cell away
    // along that axis (the center may sit on its own cell's edge), giving
    // hypot(max(0,dx-1), max(0,dy-1)) * cell overall. The 1e-12 shave keeps
    // it a true lower bound under the rounding of hypot and the cell
    // bucketing divisions — sloppiness only ever scans extra cells, never
    // skips a contender, so results stay bit-identical to the brute oracle.
    const Cell c0 = cell_of(center);
    const Cell start{std::clamp(c0.x, cell_lo_.x, cell_hi_.x),
                     std::clamp(c0.y, cell_lo_.y, cell_hi_.y)};
    const auto bound_of = [&](const Cell& c) {
      const std::int64_t dx = c.x > c0.x ? c.x - c0.x : c0.x - c.x;
      const std::int64_t dy = c.y > c0.y ? c.y - c0.y : c0.y - c.y;
      const double ax = dx > 0 ? static_cast<double>(dx - 1) * cell_size_ : 0.0;
      const double ay = dy > 0 ? static_cast<double>(dy - 1) * cell_size_ : 0.0;
      return std::hypot(ax, ay) * (1.0 - 1e-12);
    };

    using FrontierEntry = std::pair<double, Cell>;
    std::priority_queue<FrontierEntry, std::vector<FrontierEntry>, std::greater<>>
        frontier;
    std::unordered_set<Cell, CellHasher> seen;
    // Max-heap of the k best (distance, id) pairs seen so far; its top is
    // the current k-th best, the bound the frontier races against.
    std::priority_queue<std::pair<double, Id>> top;
    const auto scan_bucket = [&](const std::vector<Entry>& bucket) {
      for (const Entry& e : bucket) {
        const std::pair<double, Id> cand{e.p.distance_to(center), e.id};
        if (top.size() < k) {
          top.push(cand);
        } else if (cand < top.top()) {
          top.pop();
          top.push(cand);
        }
      }
    };
    // When the walk has visited more cells than the index occupies, the
    // grid is sparse relative to the search (tiny cells, wide empty gulf
    // between the query and the answer) and cell-by-cell flooding loses to
    // just ranking every occupied cell. Hand over to that fallback — same
    // bounds, same predicates, so the same bits either way.
    const std::size_t flood_limit = 2 * cells_.size() + 64;
    bool flooded_out = false;
    frontier.emplace(bound_of(start), start);
    seen.insert(start);
    while (!frontier.empty()) {
      const auto [cell_bound, cell] = frontier.top();
      frontier.pop();
      // Every unpopped cell bounds >= cell_bound (bounds are monotone along
      // any L-inf-monotone path from `start`, and one such path from inside
      // the popped region reaches every unvisited cell through the
      // frontier), so a strict beat by the k-th distance ends the search.
      // Ties resolve by id in the final sort, exactly as a brute scan does.
      if (top.size() == k && cell_bound > top.top().first) break;
      const auto it = cells_.find(cell);
      if (it != cells_.end()) scan_bucket(it->second);
      if (seen.size() > flood_limit) {
        flooded_out = true;
        break;
      }
      for (int ny = -1; ny <= 1; ++ny) {
        for (int nx = -1; nx <= 1; ++nx) {
          if (nx == 0 && ny == 0) continue;
          const Cell n{cell.x + nx, cell.y + ny};
          if (n.x < cell_lo_.x || n.x > cell_hi_.x || n.y < cell_lo_.y ||
              n.y > cell_hi_.y) {
            continue;
          }
          if (seen.insert(n).second) frontier.emplace(bound_of(n), n);
        }
      }
    }
    if (flooded_out) {
      // Rank every occupied cell by lower bound and scan ascending until the
      // k-th distance beats the next bound. The heap restarts empty: it
      // cannot de-duplicate, and re-scanning an already-visited bucket into
      // the partial heap would double-count its ids.
      top = {};
      std::vector<std::pair<double, const std::vector<Entry>*>> ranked;
      ranked.reserve(cells_.size());
      for (const auto& [cell, bucket] : cells_) {
        ranked.emplace_back(bound_of(cell), &bucket);
      }
      std::sort(ranked.begin(), ranked.end());
      for (const auto& [cell_bound, bucket] : ranked) {
        if (top.size() == k && cell_bound > top.top().first) break;
        scan_bucket(*bucket);
      }
    }
    best.reserve(top.size());
    while (!top.empty()) {
      best.push_back(top.top());
      top.pop();
    }
  }

  std::sort(best.begin(), best.end());
  if (best.size() > k) best.resize(k);
  out.reserve(best.size());
  for (const auto& [dist, id] : best) out.push_back(id);
  return out;
}

}  // namespace mm::geo
