#include "marauder/tracker.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mm::marauder {

namespace {

/// locate_all() consults the cross-call memo only when at least this share
/// of a batch's devices duplicated an earlier device's disc set. Below it the
/// memo is a locked insert per unique Gamma with nothing to amortize it;
/// grouping inside the batch has already caught whatever duplication exists.
constexpr double kMemoMinDuplicateRatio = 0.05;

bool same_discs(const std::vector<geo::Circle>& a, const std::vector<geo::Circle>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i].center.x) !=
            std::bit_cast<std::uint64_t>(b[i].center.x) ||
        std::bit_cast<std::uint64_t>(a[i].center.y) !=
            std::bit_cast<std::uint64_t>(b[i].center.y) ||
        std::bit_cast<std::uint64_t>(a[i].radius) !=
            std::bit_cast<std::uint64_t>(b[i].radius)) {
      return false;
    }
  }
  return true;
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

/// Thread-safe memo of mloc_locate by disc set, sharded by key so concurrent
/// locate_all workers contend on 1/16th of a mutex instead of one (the
/// Afterburner single-mutex cache serialized the whole parallel batch at
/// high hit rates). Entries keep their full disc vector: the 64-bit key is
/// only a bucket address, equality is exact, so a hit returns precisely what
/// recomputing would have. Shard choice depends only on the key, never on
/// scheduling, so contents and counters are deterministic.
struct Tracker::GammaCache {
  static constexpr std::size_t kShards = 16;

  struct Shard {
    std::mutex mutex;
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::vector<geo::Circle>, LocalizationResult>>>
        entries;
    std::size_t hits = 0;
    std::size_t misses = 0;
  };
  std::array<Shard, kShards> shards;

  Shard& shard_for(std::uint64_t key) { return shards[util::shard_of(key, kShards)]; }

  /// Copies the memoized result into `out` and credits `hit_count` hits
  /// (the number of devices this lookup answered for). False on absence —
  /// counters untouched; the later put() records the miss.
  bool try_get(std::uint64_t key, const std::vector<geo::Circle>& discs,
               std::size_t hit_count, LocalizationResult& out) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.entries.find(key);
    if (it == s.entries.end()) return false;
    for (const auto& [cached_discs, cached_result] : it->second) {
      if (same_discs(cached_discs, discs)) {
        s.hits += hit_count;
        out = cached_result;
        return true;
      }
    }
    return false;
  }

  /// Records one computed disc set: `miss_count` misses (the compute) plus
  /// `hit_count` hits (duplicate devices the one compute covered). A racing
  /// thread may have inserted the same Gamma meanwhile; the localization is
  /// deterministic, so either copy is the same answer.
  void put(std::uint64_t key, const std::vector<geo::Circle>& discs,
           const LocalizationResult& result, std::size_t miss_count,
           std::size_t hit_count) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    s.misses += miss_count;
    s.hits += hit_count;
    auto& bucket = s.entries[key];
    for (const auto& [cached_discs, cached_result] : bucket) {
      if (same_discs(cached_discs, discs)) return;
    }
    bucket.emplace_back(discs, result);
  }

  [[nodiscard]] GammaCacheStats stats() {
    GammaCacheStats out;
    for (Shard& s : shards) {
      std::lock_guard<std::mutex> lock(s.mutex);
      out.hits += s.hits;
      out.misses += s.misses;
    }
    return out;
  }

  void clear() {
    for (Shard& s : shards) {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.entries.clear();
      s.hits = 0;
      s.misses = 0;
    }
  }
};

/// M-Loc's and AP-Rad's one per-device plan, run by both locate() and
/// locate_all(): Gamma -> slab ranks of its known APs -> the exact key of
/// their disc set. Ranks ascend (Gamma is sorted, the slab BSSID-ordered),
/// the discs are built from the ranks, and every disc coordinate enters the
/// key through its exact bit pattern, so a device has one key and one disc
/// set whichever call planned it. Construction forces the database's lazy
/// views once; planning only reads them, so workers share one planner.
class Tracker::DiscPlanner {
 public:
  explicit DiscPlanner(const Tracker& tracker)
      : slab_(tracker.db_.disc_slab()),
        rank_(tracker.db_.rank_index()),
        aprad_(tracker.options_.algorithm == Algorithm::kApRad),
        // AP-Rad's unknown radii fall back to the Theorem-1 cap
        // (overestimates preferred, Theorem 3).
        unknown_radius_m_(aprad_ ? tracker.options_.aprad.max_radius_m
                                 : tracker.options_.default_radius_m),
        mloc_(aprad_ ? tracker.options_.aprad.mloc : tracker.options_.mloc),
        // Faultline convention: degrade, don't throw. Without the LP radii
        // the defensible disc set is the cap for every heard AP — coarse but
        // covering — and the result is flagged so the display can grey it.
        fallback_(aprad_ && !tracker.prepared_) {}

  /// Replaces `ranks` with the device's plan and returns its key; `gamma`
  /// is scratch.
  std::uint64_t plan(const capture::ObservationStore& store,
                     const net80211::MacAddress& device,
                     const capture::ObservationWindow& window,
                     std::vector<net80211::MacAddress>& gamma,
                     std::vector<std::uint32_t>& ranks) const {
    gamma.clear();
    store.gamma_append(device, window, gamma);
    ranks.clear();
    ranks.reserve(gamma.size());
    for (const net80211::MacAddress& mac : gamma) {
      const auto it = rank_.find(mac);
      if (it != rank_.end()) ranks.push_back(it->second);
    }
    std::uint64_t key = util::hash_combine(0, ranks.size());
    for (const std::uint32_t r : ranks) {
      key = util::hash_combine(key, std::bit_cast<std::uint64_t>(slab_.x[r]));
      key = util::hash_combine(key, std::bit_cast<std::uint64_t>(slab_.y[r]));
      key = util::hash_combine(key, std::bit_cast<std::uint64_t>(radius(r)));
    }
    return key;
  }

  /// Replaces `discs` with the disc set a plan stands for.
  void discs(const std::vector<std::uint32_t>& ranks, std::vector<geo::Circle>& discs) const {
    discs.clear();
    discs.reserve(ranks.size());
    for (const std::uint32_t r : ranks) discs.push_back({{slab_.x[r], slab_.y[r]}, radius(r)});
  }

  [[nodiscard]] const MLocOptions& mloc() const noexcept { return mloc_; }

  /// Stamps the method (and unprepared AP-Rad's fallback flag) on a result.
  void stamp(LocalizationResult& result) const {
    result.method = aprad_ ? "AP-Rad" : "M-Loc";
    if (fallback_) result.used_fallback = true;
  }

 private:
  [[nodiscard]] double radius(std::uint32_t r) const {
    return std::isnan(slab_.radius[r]) ? unknown_radius_m_ : slab_.radius[r];
  }

  ApDatabase::DiscSlabView slab_;
  const ApDatabase::RankMap& rank_;
  bool aprad_;
  double unknown_radius_m_;
  const MLocOptions& mloc_;
  bool fallback_;
};

const char* to_string(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kMLoc:
      return "M-Loc";
    case Algorithm::kApRad:
      return "AP-Rad";
    case Algorithm::kApLoc:
      return "AP-Loc";
    case Algorithm::kCentroid:
      return "Centroid";
    case Algorithm::kNearestAp:
      return "NearestAP";
    case Algorithm::kWeightedCentroid:
      return "WeightedCentroid";
  }
  return "?";
}

Tracker::Tracker(ApDatabase db, TrackerOptions options)
    : db_(std::move(db)),
      options_(std::move(options)),
      cache_(std::make_unique<GammaCache>()) {
  if (options_.algorithm == Algorithm::kApLoc) {
    throw std::invalid_argument("Tracker: AP-Loc requires from_training()");
  }
  if (options_.algorithm == Algorithm::kApRad) {
    // Location-only knowledge: radii must come from the LP, not the input.
    db_.strip_radii();
  }
}

Tracker::Tracker(Tracker&&) noexcept = default;
Tracker& Tracker::operator=(Tracker&&) noexcept = default;
Tracker::~Tracker() = default;

Tracker Tracker::from_training(const std::vector<capture::TrainingTuple>& tuples,
                               TrackerOptions options) {
  ApDatabase db = aploc_build_database(tuples, options.aploc);
  // AP-Loc proceeds exactly like AP-Rad on the trained database.
  TrackerOptions adjusted = options;
  adjusted.algorithm = Algorithm::kApRad;
  adjusted.aprad = options.aploc.aprad;
  Tracker tracker(std::move(db), std::move(adjusted));
  for (const capture::TrainingTuple& tuple : tuples) {
    if (tuple.heard_aps.size() >= 2) tracker.training_evidence_.push_back(tuple.heard_aps);
  }
  return tracker;
}

void Tracker::prepare(const capture::ObservationStore& store,
                      const capture::ObservationWindow& window) {
  if (options_.algorithm != Algorithm::kApRad) {
    prepared_ = true;
    return;
  }
  std::vector<std::set<net80211::MacAddress>> gammas =
      store.session_gammas(options_.session_gap_s, window);
  gammas.insert(gammas.end(), training_evidence_.begin(), training_evidence_.end());
  // One parallelism knob for the whole tracker: the constraint-generation
  // scans inherit locate_all's thread budget.
  ApRadOptions aprad = options_.aprad;
  aprad.threads = options_.threads;
  const auto radii = aprad_estimate_radii(db_, gammas, aprad);
  for (const auto& [mac, radius] : radii) {
    if (radius > 0.0) db_.set_radius(mac, radius);
  }
  prepared_ = true;
  // The LP just rewrote the radii, so every memoized disc set is stale.
  cache_->clear();
}

LocalizationResult Tracker::locate(const capture::ObservationStore& store,
                                   const net80211::MacAddress& device,
                                   const capture::ObservationWindow& window) const {
  switch (options_.algorithm) {
    case Algorithm::kMLoc:
    case Algorithm::kApRad: {
      const DiscPlanner planner(*this);
      std::vector<net80211::MacAddress> gamma;
      std::vector<std::uint32_t> ranks;
      std::vector<geo::Circle> discs;
      const std::uint64_t key = planner.plan(store, device, window, gamma, ranks);
      planner.discs(ranks, discs);
      LocalizationResult result;
      if (!cache_->try_get(key, discs, /*hit_count=*/1, result)) {
        result = mloc_locate(discs, planner.mloc());
        cache_->put(key, discs, result, /*miss_count=*/1, /*hit_count=*/0);
      }
      planner.stamp(result);
      return result;
    }
    case Algorithm::kApLoc:
      throw std::logic_error("Tracker: AP-Loc trackers run as AP-Rad after training");
    case Algorithm::kCentroid:
      return centroid_locate(db_.positions_for(store.gamma_sorted(device, window)));
    case Algorithm::kNearestAp:
    case Algorithm::kWeightedCentroid: {
      const std::vector<net80211::MacAddress> gamma = store.gamma_sorted(device, window);
      std::vector<std::pair<geo::Vec2, double>> with_rssi;
      const capture::DeviceRecord* rec = store.device(device);
      if (rec != nullptr) {
        for (const auto& [mac, contact] : rec->contacts) {
          if (!std::binary_search(gamma.begin(), gamma.end(), mac)) continue;
          const KnownAp* ap = db_.find(mac);
          if (ap != nullptr) with_rssi.emplace_back(ap->position, contact.last_rssi_dbm);
        }
      }
      return options_.algorithm == Algorithm::kNearestAp
                 ? nearest_ap_locate(with_rssi)
                 : weighted_centroid_locate(with_rssi);
    }
  }
  return {};
}

std::map<net80211::MacAddress, LocalizationResult> Tracker::locate_all(
    const capture::ObservationStore& store, const capture::ObservationWindow& window,
    LocateAllProfile* profile) const {
  if (options_.algorithm == Algorithm::kMLoc || options_.algorithm == Algorithm::kApRad) {
    return locate_all_grouped(store, window, profile);
  }

  // The baselines: one locate() per device, fanned out over the sorted
  // list of devices with contacts in the window, slotted by index, then
  // folded into the map in MAC order — the exact sequence the serial loop
  // produces. A device outside the window has an empty Gamma, so it would
  // fail and never enter the map. Chunks are coarse (balanced_chunk): each
  // dispatch must amortize over a batch of devices.
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<net80211::MacAddress> devices = store.contact_devices(window);
  std::vector<LocalizationResult> per_device(devices.size());
  util::parallel_map_into(
      util::ThreadPool::shared(), options_.threads, per_device,
      [&](std::size_t i) { return locate(store, devices[i], window); },
      util::ThreadPool::balanced_chunk(devices.size(), options_.threads));
  const auto t1 = std::chrono::steady_clock::now();
  std::map<net80211::MacAddress, LocalizationResult> results;
  std::size_t outliers = 0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (!per_device[i].ok) continue;
    if (per_device[i].discs_rejected > 0) ++outliers;
    results.emplace(devices[i], std::move(per_device[i]));
  }
  const auto t2 = std::chrono::steady_clock::now();
  if (profile != nullptr) {
    *profile = {};
    profile->locate_s = seconds_between(t0, t1);
    profile->merge_s = seconds_between(t1, t2);
    profile->devices = devices.size();
    profile->unique_gammas = devices.size();
    profile->outlier_devices = outliers;
  }
  return results;
}

std::map<net80211::MacAddress, LocalizationResult> Tracker::locate_all_grouped(
    const capture::ObservationStore& store, const capture::ObservationWindow& window,
    LocateAllProfile* profile) const {
  const auto t0 = std::chrono::steady_clock::now();
  // Only devices with contacts in the window are planned: any other device
  // has an empty Gamma, so its result would fail and never enter the map.
  const std::vector<net80211::MacAddress> devices = store.contact_devices(window);
  const std::size_t n = devices.size();
  const DiscPlanner planner(*this);
  util::ThreadPool& pool = util::ThreadPool::shared();

  // Plan every device, slotted by device index, so the plan is identical at
  // any parallelism.
  std::vector<std::vector<std::uint32_t>> device_ranks(n);
  std::vector<std::uint64_t> keys(n);
  pool.run_chunks(
      n, util::ThreadPool::balanced_chunk(n, options_.threads), options_.threads,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<net80211::MacAddress> gamma;  // reused across the chunk
        for (std::size_t i = begin; i < end; ++i) {
          keys[i] = planner.plan(store, devices[i], window, gamma, device_ranks[i]);
        }
      });

  // Group identical disc sets, walking devices in index (= ascending MAC)
  // order so group numbering is deterministic. Equality is rank-sequence
  // equality: within one call the slab is fixed, so equal ranks mean equal
  // discs; a cross-sequence hash collision merely splits a group (correct,
  // just one extra compute).
  constexpr std::uint32_t kNoGroup = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> group_of(n, 0);
  std::vector<std::uint32_t> rep;         // group -> representative device
  std::vector<std::uint32_t> group_size;  // group -> member count
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
  index.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t>& candidates = index[keys[i]];
    std::uint32_t g = kNoGroup;
    for (const std::uint32_t cand : candidates) {
      if (device_ranks[rep[cand]] == device_ranks[i]) {
        g = cand;
        break;
      }
    }
    if (g == kNoGroup) {
      g = static_cast<std::uint32_t>(rep.size());
      rep.push_back(static_cast<std::uint32_t>(i));
      group_size.push_back(0);
      candidates.push_back(g);
    }
    group_of[i] = g;
    ++group_size[g];
  }

  const double duplicate_ratio =
      n == 0 ? 0.0 : static_cast<double>(n - rep.size()) / static_cast<double>(n);
  const bool engaged = n > 0 && duplicate_ratio >= kMemoMinDuplicateRatio;

  const auto t1 = std::chrono::steady_clock::now();

  // Localize each unique disc set once, slotted by group index. Per-chunk
  // scratch (disc vector + M-Loc workspace) is reused across the chunk's
  // groups, so the loop body allocates nothing once the buffers have grown.
  const std::size_t groups = rep.size();
  std::vector<LocalizationResult> group_results(groups);
  pool.run_chunks(
      groups, util::ThreadPool::balanced_chunk(groups, options_.threads, /*min_chunk=*/4),
      options_.threads, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::vector<geo::Circle> discs;
        MLocScratch scratch;
        for (std::size_t g = begin; g < end; ++g) {
          const std::uint32_t d = rep[g];
          planner.discs(device_ranks[d], discs);
          if (engaged && cache_->try_get(keys[d], discs, group_size[g], group_results[g])) {
            continue;
          }
          group_results[g] = mloc_locate(discs, planner.mloc(), scratch);
          if (engaged) {
            cache_->put(keys[d], discs, group_results[g], 1, group_size[g] - 1);
          }
        }
      });

  const auto t2 = std::chrono::steady_clock::now();

  // Fan the group results back out to their devices and fold into the map in
  // ascending-MAC order — the exact sequence the serial per-device loop
  // produces.
  std::map<net80211::MacAddress, LocalizationResult> results;
  std::size_t outliers = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const LocalizationResult& group_result = group_results[group_of[i]];
    if (!group_result.ok) continue;
    LocalizationResult r = group_result;
    planner.stamp(r);
    if (r.discs_rejected > 0) ++outliers;
    results.emplace(devices[i], std::move(r));
  }
  const auto t3 = std::chrono::steady_clock::now();

  if (profile != nullptr) {
    *profile = {};
    profile->plan_s = seconds_between(t0, t1);
    profile->locate_s = seconds_between(t1, t2);
    profile->merge_s = seconds_between(t2, t3);
    profile->devices = n;
    profile->unique_gammas = groups;
    profile->outlier_devices = outliers;
    profile->duplicate_ratio = duplicate_ratio;
    profile->cache_engaged = engaged;
  }
  return results;
}

GammaCacheStats Tracker::gamma_cache_stats() const { return cache_->stats(); }

}  // namespace mm::marauder
