// Incremental M-Loc: per-device streaming localization state.
//
// The batch pipeline localizes a device by collecting its full Gamma, turning
// it into a MAC-sorted disc list, and running M-Loc over it from scratch.
// Riptide's shard workers instead keep this object per device and feed it one
// disc whenever Gamma gains a database-known AP: the cached intersection
// region is extended by clipping the new disc against the cached boundary
// (geo::DiscIntersection::incremental_add) instead of redoing the O(k^2)
// pairwise pass — O(k) per arrival on the common path.
//
// Invariant (the bit-for-bit contract the live/batch equivalence test pins):
// after every add(), locate() returns exactly what
// mloc_locate(db.discs_for(gamma, default_radius), options) would return for
// the same Gamma. The incremental path is taken only when this object can
// prove, using the very predicates DiscIntersection::compute() applies (same
// epsilons, same index tie-breaks), that the new disc changes neither the
// retained-disc set nor the disjointness early-exit; otherwise it falls back
// to a full recompute. Outlier rejection never caches: mloc_locate_prepared
// reruns it per call, identically to the batch path.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geo/circle.h"
#include "geo/disc_intersection.h"
#include "geo/spatial_index.h"
#include "marauder/mloc.h"
#include "net80211/mac_address.h"

namespace mm::pipeline {

/// Counters distinguishing the cheap path from the fallbacks (surfaced per
/// shard in the `mmctl live` stats table).
struct IncrementalStats {
  std::uint64_t incremental_updates = 0;  ///< region extended via cached arcs
  std::uint64_t full_recomputes = 0;      ///< compute() from scratch
};

class IncrementalDeviceLocator {
 public:
  /// Registers the disc of one newly-contacted database-known AP. Returns
  /// true when Gamma actually grew (false: this AP was already known, the
  /// caller should not republish).
  bool add(const net80211::MacAddress& ap, const geo::Circle& disc);

  /// Current M-Loc result over all added discs; cached until the next add().
  /// Bit-identical to the batch mloc_locate over the same (MAC-sorted) discs.
  const marauder::LocalizationResult& locate(const marauder::MLocOptions& options,
                                             IncrementalStats& stats);

  [[nodiscard]] std::size_t disc_count() const noexcept { return discs_.size(); }
  [[nodiscard]] const std::vector<geo::Circle>& discs() const noexcept { return discs_; }

 private:
  void ensure_region(IncrementalStats& stats);
  void rebuild_kept();

  std::vector<net80211::MacAddress> aps_;  ///< ascending (mirrors std::set Gamma order)
  std::vector<geo::Circle> discs_;         ///< aligned with aps_
  std::vector<char> kept_;                 ///< aligned: survived compute()'s pruning
  /// Atlas grid over the disc centers (id = arrival order), used by add()'s
  /// no-op proof: only discs within r_new + r_max of the newcomer can prune,
  /// be pruned by, or fail to intersect it, so the per-arrival check touches
  /// a neighbourhood instead of rescanning all O(k^2) pairs. Self-sizing:
  /// the index adapts its cell to disc-center density.
  geo::SpatialIndex center_grid_;
  std::vector<std::size_t> slot_of_id_;  ///< grid id -> current index in discs_
  double max_radius_ = 0.0;              ///< running max over all added discs
  /// Cached intersection of discs_; nullopt = dirty (recomputed at locate()).
  std::optional<geo::DiscIntersection> region_;
  marauder::LocalizationResult result_;
  bool result_valid_ = false;
};

}  // namespace mm::pipeline
