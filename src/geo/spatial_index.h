// Atlas: the shared deterministic spatial index (DESIGN.md §11).
//
// A uniform hash grid over geo::Vec2. Every layer of the system asks the
// same question — "which points lie within range of here?" — and before
// Atlas each layer answered it with its own linear scan (sim delivery,
// AP-Rad's neighbour pass, ApDatabase lookups, incremental M-Loc pruning).
// The index buckets points into square cells keyed by the floor of their
// coordinates over the cell size; a disc or rect query visits only the
// overlapping cells.
//
// Cell policy: the index owns its cell size. A default-constructed index
// sizes itself for ~1 point per cell over its own points' bounding box,
// re-deriving the cell at doubling sizes (see SpatialIndex()); build_from
// applies the same formula once to the whole input. A fixed cell
// (SpatialIndex(double)) is for callers whose cell is their query radius.
//
// Determinism contract (what lets indexed hot paths stay bit-identical to
// their scan baselines):
//   * every query's result is sorted by ascending id (nearest_k: by
//     (distance, id)) — the exact order a brute-force scan over ids in
//     ascending order produces, independent of hash-map iteration order,
//     insertion order, or cell size;
//   * membership predicates reuse the project-wide geometry primitives bit
//     for bit: query_disc keeps p iff p.distance_to(center) <= radius —
//     the same std::hypot expression the scan call sites evaluate — so a
//     point on the boundary lands on the same side in both worlds;
//   * const queries are pure reads: any number of threads may query one
//     index concurrently (mutation requires external exclusion).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geo/vec2.h"

namespace mm::geo {

class SpatialIndex {
 public:
  using Id = std::uint64_t;

  /// Self-sizing index. The cell starts at 100 m; whenever the size reaches
  /// 32, 64, 128, ... the cell is re-derived from the points' bounding box as
  /// clamp(sqrt(max(1, area) / n), 1, 1000) m, and the index rebuilds only
  /// when that falls outside 0.5-2x of the current cell.
  SpatialIndex();

  /// Fixed cell: never resized. `cell_size_m` must be positive and finite; a
  /// good choice is near the typical query radius.
  explicit SpatialIndex(double cell_size_m);

  /// Bulk construction over points[0..n): ids are the span indices. The cell
  /// is the self-sizing formula applied once to all points (100 m when
  /// empty); later inserts continue the self-sizing schedule.
  [[nodiscard]] static SpatialIndex build_from(std::span<const Vec2> points);

  /// Inserting an id that is already present throws std::invalid_argument.
  void insert(Id id, Vec2 p);
  /// Returns false when the id was not present.
  bool erase(Id id);

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] bool contains(Id id) const { return points_.count(id) != 0; }
  /// Performance only: no query result depends on it.
  [[nodiscard]] double cell_size_m() const noexcept { return cell_size_; }
  /// Drops every point; the cell is kept, and a self-sizing index restarts
  /// its schedule at 32.
  void clear();

  /// Ids of points with p.distance_to(center) <= radius_m, ascending.
  /// Negative or NaN radius yields an empty result.
  [[nodiscard]] std::vector<Id> query_disc(Vec2 center, double radius_m) const;
  /// Allocation-reusing variant; `out` is cleared first.
  void query_disc(Vec2 center, double radius_m, std::vector<Id>& out) const;

  /// Ids of points inside the closed rect [lo.x,hi.x] x [lo.y,hi.y], ascending.
  [[nodiscard]] std::vector<Id> query_range(Vec2 lo, Vec2 hi) const;
  void query_range(Vec2 lo, Vec2 hi, std::vector<Id>& out) const;

  /// The k closest points ordered by (distance_to(center), id); fewer when
  /// the index holds fewer than k points. Served by a best-first frontier
  /// over cells (exact per-cell lower bounds, popped in ascending order), so
  /// clustered data and query centers far outside the occupied bounding box
  /// cost what the answer costs, not what the empty space between costs.
  [[nodiscard]] std::vector<Id> nearest_k(Vec2 center, std::size_t k) const;

 private:
  struct Cell {
    std::int64_t x = 0;
    std::int64_t y = 0;
    auto operator<=>(const Cell&) const = default;
  };
  struct CellHasher {
    std::size_t operator()(const Cell& c) const noexcept;
  };
  struct Entry {
    Id id;
    Vec2 p;
  };

  [[nodiscard]] Cell cell_of(Vec2 p) const noexcept;
  /// Buckets an already-recorded point and widens the occupied-cell box.
  void place(Id id, Vec2 p);
  /// Re-buckets every point under a new cell size.
  void rebuild(double cell_size_m);

  static constexpr std::size_t kFirstResize = 32;

  double cell_size_;
  bool self_sizing_;
  std::size_t next_resize_ = kFirstResize;  ///< size of the next density check
  std::unordered_map<Cell, std::vector<Entry>, CellHasher> cells_;
  std::unordered_map<Id, Vec2> points_;
  // Bounding box of occupied cells (never shrunk on erase — only used to
  // bound nearest_k's ring expansion, where a loose box is merely slower).
  Cell cell_lo_{0, 0};
  Cell cell_hi_{0, 0};
  bool has_bounds_ = false;
};

}  // namespace mm::geo
