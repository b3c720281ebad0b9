#include "pipeline/incremental_mloc.h"

#include <algorithm>

namespace mm::pipeline {

namespace {

/// Mirror of DiscIntersection::compute()'s internal epsilon. The pre-checks
/// below must apply the *same* tolerance the pruning and disjointness
/// predicates inside compute() use, or the incremental path would diverge
/// from the batch path exactly at the boundary cases.
constexpr double kEps = 1e-9;

}  // namespace

bool IncrementalDeviceLocator::add(const net80211::MacAddress& ap,
                                   const geo::Circle& disc) {
  const auto it = std::lower_bound(aps_.begin(), aps_.end(), ap);
  if (it != aps_.end() && *it == ap) return false;  // Gamma unchanged
  const std::size_t pos = static_cast<std::size_t>(it - aps_.begin());
  aps_.insert(it, ap);
  discs_.insert(discs_.begin() + static_cast<std::ptrdiff_t>(pos), disc);
  kept_.insert(kept_.begin() + static_cast<std::ptrdiff_t>(pos), 1);
  // Keep the center grid in lockstep (even while region_ is dirty — the next
  // valid region needs it). Grid ids are arrival-ordered; the middle insert
  // shifts every slot at or past pos.
  for (std::size_t& slot : slot_of_id_) slot += slot >= pos ? 1 : 0;
  center_grid_.insert(slot_of_id_.size(), disc.center);
  slot_of_id_.push_back(pos);
  max_radius_ = std::max(max_radius_, disc.radius);
  result_valid_ = false;

  if (discs_.size() < 2) {
    region_.reset();  // single-disc path never builds a region
    return true;
  }
  if (!region_) return true;  // already dirty: recompute lazily

  if (region_->empty()) {
    // Intersections only shrink: a superset of mutually-inconsistent discs
    // stays inconsistent, and mloc_locate_prepared branches on empty() alone.
    return true;
  }

  // Only pairs involving the new disc are new: old pairs keep their relative
  // index order under the middle insert, so every old pruning relation and
  // disjointness verdict is literally unchanged, and old keep flags can only
  // flip 1 -> 0 with the newcomer as pruner. Every disc that can prune, be
  // pruned by, or be disjoint-relevant to the newcomer lies within
  // r_new + r_max of its center (inside_of needs d <= max(r_i, r_j) + kEps;
  // an old disc beyond the query radius satisfies d > r_new + r_i - kEps and
  // is therefore disjoint). The grid hands back exactly that neighbourhood;
  // the original predicates — same epsilons, same index tie-breaks — then run
  // verbatim on the candidates.
  const std::vector<geo::SpatialIndex::Id> candidates =
      center_grid_.query_disc(disc.center, disc.radius + max_radius_ + 1.0);
  if (candidates.size() < discs_.size()) {
    region_.reset();  // some old disc is provably disjoint: batch early-exit
    return true;
  }
  bool new_pruned = false;
  for (const geo::SpatialIndex::Id id : candidates) {
    const std::size_t j = slot_of_id_[id];
    if (j == pos) continue;
    if (disc.disjoint_from(discs_[j], -kEps)) {
      region_.reset();  // batch path returns the empty early-exit
      return true;
    }
    if (kept_[j] != 0 && disc.inside_of(discs_[j], kEps) &&
        (!discs_[j].inside_of(disc, kEps) || pos < j)) {
      region_.reset();  // newcomer prunes a retained disc: cached arcs stale
      return true;
    }
    if (!new_pruned && discs_[j].inside_of(disc, kEps) &&
        (!disc.inside_of(discs_[j], kEps) || j < pos)) {
      new_pruned = true;
    }
  }
  if (new_pruned) {
    // The new disc is pruned as redundant: the retained set — and therefore
    // the region, arc for arc — is exactly what we already have.
    kept_[pos] = 0;
    return true;
  }

  // Position of the new disc within the retained list.
  std::size_t retained_pos = 0;
  for (std::size_t i = 0; i < pos; ++i) retained_pos += kept_[i] != 0;

  auto extended = geo::DiscIntersection::incremental_add(*region_, disc, retained_pos);
  if (!extended) {
    region_.reset();  // full-disc/nested base: cached state insufficient
    return true;
  }
  region_ = std::move(extended);
  return true;
}

void IncrementalDeviceLocator::rebuild_kept() {
  // Match the region's retained discs back to the full list. The retained
  // list is a value-exact subsequence of discs_ (compute() copies, never
  // perturbs), so a greedy in-order scan recovers the flags.
  std::fill(kept_.begin(), kept_.end(), 0);
  std::size_t cursor = 0;
  for (const geo::Circle& r : region_->discs()) {
    while (cursor < discs_.size() &&
           !(discs_[cursor].center.x == r.center.x &&
             discs_[cursor].center.y == r.center.y && discs_[cursor].radius == r.radius)) {
      ++cursor;
    }
    if (cursor == discs_.size()) break;  // empty-region result: discs() is the full input
    kept_[cursor++] = 1;
  }
}

void IncrementalDeviceLocator::ensure_region(IncrementalStats& stats) {
  if (region_) {
    ++stats.incremental_updates;
    return;
  }
  region_ = geo::DiscIntersection::compute(discs_);
  rebuild_kept();
  ++stats.full_recomputes;
}

const marauder::LocalizationResult& IncrementalDeviceLocator::locate(
    const marauder::MLocOptions& options, IncrementalStats& stats) {
  if (result_valid_) return result_;
  if (discs_.size() < 2) {
    result_ = marauder::mloc_locate(discs_, options);
  } else {
    ensure_region(stats);
    result_ = marauder::mloc_locate_prepared(discs_, *region_, options);
  }
  result_valid_ = true;
  return result_;
}

}  // namespace mm::pipeline
