// Brute-force oracles for the attack layer. Production has one path per job
// (locate_all's grouped batch, AP-Rad's grid neighbour scan); these are the
// slow, obvious versions those paths must reproduce bit for bit. Tests
// compare against them, and bench_offline_throughput / bench_spatial time
// them as their baseline columns.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "capture/observation_store.h"
#include "marauder/ap_database.h"
#include "marauder/aprad.h"
#include "marauder/mloc.h"
#include "marauder/tracker.h"

namespace mm::oracle {

using ResultMap = std::map<net80211::MacAddress, marauder::LocalizationResult>;

/// The hand-written per-device locate loop: each device located on its own.
/// M-Loc and AP-Rad recompute every disc set straight from the tracker's
/// database (Gamma -> discs_for -> mloc_locate), with no planner, grouping
/// or memo; the baselines call Tracker::locate. Tracker::locate_all must
/// return exactly this map.
inline ResultMap locate_each(const marauder::Tracker& tracker,
                             const capture::ObservationStore& store,
                             const capture::ObservationWindow& window = {}) {
  const marauder::TrackerOptions& o = tracker.options();
  const bool aprad = o.algorithm == marauder::Algorithm::kApRad;
  const bool discs = aprad || o.algorithm == marauder::Algorithm::kMLoc;
  ResultMap out;
  for (const net80211::MacAddress& mac : store.devices()) {
    marauder::LocalizationResult r;
    if (discs) {
      r = marauder::mloc_locate(
          tracker.database().discs_for(store.gamma(mac, window),
                                       aprad ? o.aprad.max_radius_m : o.default_radius_m),
          aprad ? o.aprad.mloc : o.mloc);
      r.method = aprad ? "AP-Rad" : "M-Loc";
      if (aprad && !tracker.prepared()) r.used_fallback = true;
    } else {
      r = tracker.locate(store, mac, window);
    }
    if (r.ok) out.emplace(mac, std::move(r));
  }
  return out;
}

/// AP-Rad constraint generation written the obvious way: serial, a std::set
/// co-observation matrix, and every AP's "<" candidates from an O(n^2)
/// all-pairs scan. aprad_prepare_constraints must return exactly this.
inline marauder::ApRadConstraints aprad_constraints_all_pairs(
    const marauder::ApDatabase& db, const std::vector<std::set<net80211::MacAddress>>& gammas,
    const marauder::ApRadOptions& options = {}) {
  marauder::ApRadConstraints out;
  std::map<net80211::MacAddress, std::size_t> index;
  for (const auto& gamma : gammas) {
    for (const net80211::MacAddress& mac : gamma) {
      const marauder::KnownAp* ap = db.find(mac);
      if (ap == nullptr || !index.emplace(mac, out.observed.size()).second) continue;
      out.observed.push_back(mac);
      out.position.push_back(ap->position);
    }
  }

  std::set<std::pair<std::size_t, std::size_t>> co_observed;
  for (const auto& gamma : gammas) {
    std::vector<std::size_t> members;
    for (const net80211::MacAddress& mac : gamma) {
      const auto it = index.find(mac);
      if (it != index.end()) members.push_back(it->second);
    }
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        co_observed.emplace(std::min(members[a], members[b]), std::max(members[a], members[b]));
      }
    }
  }

  const double interest_radius = 2.0 * options.max_radius_m;
  const std::size_t n = out.observed.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, std::size_t>> candidates;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double d = out.position[i].distance_to(out.position[j]);
      if (d < interest_radius && co_observed.count({std::min(i, j), std::max(i, j)}) == 0) {
        candidates.emplace_back(d, j);
      }
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.resize(std::min(options.max_less_neighbors, candidates.size()));
    for (const auto& [d, j] : candidates) {
      out.less_rows.emplace(std::pair{std::min(i, j), std::max(i, j)}, d);
    }
  }

  out.co_pairs.assign(co_observed.begin(), co_observed.end());
  for (const auto& [i, j] : out.co_pairs) {
    out.co_dist.push_back(out.position[i].distance_to(out.position[j]));
  }
  return out;
}

}  // namespace mm::oracle
