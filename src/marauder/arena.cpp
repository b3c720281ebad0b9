#include "marauder/arena.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>

#include "capture/sniffer.h"
#include "marauder/ap_database.h"
#include "marauder/tracker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "sim/world.h"
#include "util/rng.h"

namespace mm::marauder {

namespace {

using net80211::MacAddress;

/// Deterministic factory MAC of arena device `d` (globally-administered, so
/// it can never collide with rotate_mac's locally-administered pseudonyms).
MacAddress arena_mac(std::size_t d) {
  return MacAddress({0x00, 0x16, 0xAE, 0x00, static_cast<std::uint8_t>(d >> 8),
                     static_cast<std::uint8_t>(d & 0xFF)});
}

/// One adoption level's simulated capture plus its ground truth.
struct ArenaCapture {
  capture::ObservationStore store;
  /// Pseudonym -> true device index, from the mobiles' MAC histories.
  std::unordered_map<MacAddress, std::size_t, net80211::MacHasher> owner;
  /// Per-device mobility, for position ground truth at any time.
  std::vector<std::shared_ptr<const sim::MobilityModel>> mobility;
  std::size_t adopters = 0;
};

ArenaCapture simulate_adoption(const ArenaConfig& cfg,
                               const std::vector<sim::ApTruth>& truth,
                               double adoption) {
  ArenaCapture cap;
  sim::World world({.seed = cfg.seed ^ 0xA12E4Au, .propagation = nullptr});
  sim::populate_world(world, truth, /*beacons_enabled=*/false);

  const std::vector<bool> adopters =
      sim::assign_defense_adoption(cfg.devices, adoption, cfg.seed);

  std::vector<sim::MobileDevice*> mobiles;
  mobiles.reserve(cfg.devices);
  for (std::size_t d = 0; d < cfg.devices; ++d) {
    auto walk = std::make_shared<sim::RandomWaypoint>(
        geo::Vec2{-cfg.half_extent_m, -cfg.half_extent_m},
        geo::Vec2{cfg.half_extent_m, cfg.half_extent_m},
        /*speed_min_mps=*/0.8, /*speed_max_mps=*/1.8, cfg.duration_s + 60.0,
        util::hash_combine(cfg.seed, 0xD0000u + d));
    sim::MobileConfig mc;
    mc.mac = arena_mac(d);
    mc.mobility = walk;
    mc.profile.probes = true;
    mc.profile.scan_interval_s = 35.0;
    // The shared SSID first (crowd bait for the popularity cutoff), then the
    // identifying remembered network.
    mc.profile.directed_ssids = {"campus-net", "home-" + std::to_string(d)};
    mc.profile.keepalive_interval_s = 15.0;
    // Associate with the AP nearest the walk's start: keepalive data frames
    // then carry the sequence counter between scan sweeps, which is the
    // traffic the continuity linker feeds on.
    const geo::Vec2 start = walk->position(0.0);
    double best = 1e300;
    for (const sim::ApTruth& ap : truth) {
      const double dist = ap.position.distance_to(start);
      if (dist < best) {
        best = dist;
        mc.profile.home_ssid = ap.ssid;
      }
    }
    if (adopters[d]) {
      sim::apply_defense_profile(cfg.defense, mc.profile);
      ++cap.adopters;
    }
    mobiles.push_back(world.add_mobile(std::make_unique<sim::MobileDevice>(mc)));
    cap.mobility.push_back(walk);
  }

  capture::SnifferConfig sc;
  sc.position = {0.0, 0.0};
  sc.antenna_height_m = 20.0;
  capture::Sniffer sniffer(sc, &cap.store);
  sniffer.attach(world);
  world.run_until(cfg.duration_s);

  for (std::size_t d = 0; d < mobiles.size(); ++d) {
    for (const MacAddress& mac : mobiles[d]->mac_history()) {
      cap.owner.emplace(mac, d);
    }
  }
  return cap;
}

struct DeviceSpan {
  sim::SimTime first = 0.0;
  sim::SimTime last = 0.0;
  bool seen = false;
};

ArenaCell evaluate_attacker(const ArenaConfig& cfg, const ArenaAttacker& attacker,
                            double adoption, const ArenaCapture& cap,
                            const Tracker& tracker,
                            const std::vector<DeviceSpan>& observed) {
  ArenaCell cell;
  cell.attacker = attacker.name;
  cell.adoption = adoption;
  cell.pseudonyms_seen = cap.store.device_count();
  for (const DeviceSpan& span : observed) {
    if (span.seen) ++cell.devices_observed;
  }

  ResolverOptions options = cfg.resolver;
  options.signals = attacker.signals;
  IdentityResolver resolver(options);
  resolver.ingest_store(cap.store);
  const IdentityMap map = resolver.resolve();
  cell.identities = map.size();
  cell.linked_pairs = resolver.last_stats().linked_pairs;

  // Attribute each identity to the true device owning most of its member
  // pseudonyms, and credit each device with the longest span one identity
  // covers using that device's own pseudonyms (false merges earn nothing).
  std::vector<std::size_t> attributed(map.size(), cfg.devices);
  std::vector<DeviceSpan> best_span(cfg.devices);
  for (const ResolvedIdentity& identity : map.identities) {
    std::map<std::size_t, std::size_t> votes;
    std::unordered_map<std::size_t, DeviceSpan> spans;
    for (const MacAddress& mac : identity.macs) {
      const auto own = cap.owner.find(mac);
      if (own == cap.owner.end()) continue;
      ++votes[own->second];
      const capture::DeviceRecord* rec = cap.store.device(mac);
      if (rec == nullptr) continue;
      DeviceSpan& span = spans[own->second];
      if (!span.seen) {
        span = {rec->first_seen, rec->last_seen, true};
      } else {
        span.first = std::min(span.first, rec->first_seen);
        span.last = std::max(span.last, rec->last_seen);
      }
    }
    std::size_t winner = cfg.devices;
    std::size_t winner_votes = 0;
    for (const auto& [device, count] : votes) {
      if (count > winner_votes) {
        winner = device;
        winner_votes = count;
      }
    }
    attributed[identity.id] = winner;
    for (const auto& [device, span] : spans) {
      DeviceSpan& best = best_span[device];
      if (!best.seen || span.last - span.first > best.last - best.first) {
        best = span;
      }
    }
  }

  for (std::size_t d = 0; d < cfg.devices; ++d) {
    if (!observed[d].seen || !best_span[d].seen) continue;
    const double observed_span = observed[d].last - observed[d].first;
    const double linked_span = best_span[d].last - best_span[d].first;
    cell.longest_track_s = std::max(cell.longest_track_s, linked_span);
    if (linked_span + 1e-9 >= cfg.tracked_span_fraction * observed_span) {
      ++cell.devices_tracked;
    }
  }
  cell.pct_tracked = cell.devices_observed == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(cell.devices_tracked) /
                               static_cast<double>(cell.devices_observed);

  // Localization quality over the resolved tracks: pure points (burst MAC
  // truly owned by the identity's attributed device) judged against the
  // mobility ground truth.
  std::vector<double> errors;
  const std::vector<IdentityTrack> tracks =
      build_identity_trajectories(tracker, cap.store, map, cfg.trajectory);
  for (const IdentityTrack& track : tracks) {
    const std::size_t device = attributed[track.identity];
    for (const TrackPoint& point : track.points) {
      const auto own = cap.owner.find(point.mac);
      if (own == cap.owner.end() || device >= cfg.devices || own->second != device) {
        ++cell.impure_points;
        continue;
      }
      ++cell.pure_points;
      errors.push_back(
          point.position.distance_to(cap.mobility[device]->position(point.time)));
    }
  }
  if (!errors.empty()) {
    auto mid = errors.begin() + static_cast<std::ptrdiff_t>(errors.size() / 2);
    std::nth_element(errors.begin(), mid, errors.end());
    cell.median_error_m = *mid;
  }
  return cell;
}

}  // namespace

std::vector<ArenaAttacker> default_arena_attackers() {
  return {
      {"none", ResolverSignals::none()},
      {"ssid", {true, false, false}},
      {"ssid+seq", {true, true, false}},
      {"full", ResolverSignals::all()},
  };
}

ArenaConfig::ArenaConfig() {
  // The adopted posture: keep transmitting through periodic rotations (the
  // regime where sequence/Gamma evidence outperforms SSID fingerprints),
  // throttle scans, anonymize directed probes entirely, jitter TX power.
  defense.name = "rotate+throttle+anon";
  defense.mac_rotation_interval_s = 75.0;
  defense.scan_interval_scale = 1.5;
  defense.tx_power_jitter_db = 3.0;
  defense.directed_probe_suppression = 1.0;

  // Rotation multiplies one device into duration/interval pseudonyms, and
  // every one of them probes the device's home SSID — so the popularity
  // cutoff must sit *above* the per-device pseudonym count (else the
  // fingerprint filters itself out) and *below* the count of devices
  // probing the shared campus SSID (else it links strangers). Both counts
  // scale with the population, which is exactly what the fraction-based
  // cutoff is for: ~12% of the store clears one device's rotation ladder
  // (600 s / 75 s ≈ 9 pseudonyms) and still rejects any campus-wide SSID.
  resolver.max_ssid_popularity_fraction = 0.12;

  // Resolver thresholds tuned to the arena's traffic cadence: keepalives
  // every 15 s bound the rotation seam, scan sweeps every ~35-55 s populate
  // the Gamma windows.
  resolver.seq_max_gap_s = 40.0;
  resolver.seq_max_delta = 64;
  resolver.gamma_max_gap_s = 40.0;
  resolver.gamma_window_s = 60.0;
  resolver.gamma_min_jaccard = 0.4;
  resolver.gamma_min_common = 3;
}

std::vector<const ArenaCell*> ArenaResult::column(const std::string& attacker) const {
  std::vector<const ArenaCell*> out;
  for (const ArenaCell& cell : cells) {
    if (cell.attacker == attacker) out.push_back(&cell);
  }
  return out;
}

ArenaResult run_arena(const ArenaConfig& config) {
  sim::CampusConfig campus;
  campus.seed = config.seed;
  campus.num_aps = config.num_aps;
  campus.half_extent_m = config.half_extent_m;
  const std::vector<sim::ApTruth> truth = sim::generate_campus_aps(campus);
  const Tracker tracker(ApDatabase::from_truth(truth, true),
                        {.algorithm = Algorithm::kMLoc});

  ArenaResult result;
  result.seed = config.seed;
  result.devices = config.devices;
  result.defense = config.defense.name;
  for (const double adoption : config.adoption_levels) {
    // Simulate once per adoption level; every attacker shares the capture.
    const ArenaCapture cap = simulate_adoption(config, truth, adoption);
    std::vector<DeviceSpan> observed(config.devices);
    for (const MacAddress& mac : cap.store.devices()) {
      const auto own = cap.owner.find(mac);
      if (own == cap.owner.end()) continue;
      const capture::DeviceRecord* rec = cap.store.device(mac);
      DeviceSpan& span = observed[own->second];
      if (!span.seen) {
        span = {rec->first_seen, rec->last_seen, true};
      } else {
        span.first = std::min(span.first, rec->first_seen);
        span.last = std::max(span.last, rec->last_seen);
      }
    }
    for (const ArenaAttacker& attacker : config.attackers) {
      result.cells.push_back(
          evaluate_attacker(config, attacker, adoption, cap, tracker, observed));
    }
  }
  return result;
}

void write_arena_json(const ArenaResult& result, util::JsonWriter& json) {
  json.begin_object()
      .field("benchmark", "arena")
      .field("seed", result.seed)
      .field("devices", result.devices)
      .field("defense", result.defense)
      .begin_array("cells");
  for (const ArenaCell& c : result.cells) {
    json.begin_object()
        .field("attacker", c.attacker)
        .field("adoption", c.adoption)
        .field("devices_observed", c.devices_observed)
        .field("pseudonyms_seen", c.pseudonyms_seen)
        .field("identities", c.identities)
        .field("linked_pairs", c.linked_pairs)
        .field("devices_tracked", c.devices_tracked)
        .field("pct_tracked", c.pct_tracked)
        .field("median_error_m", c.median_error_m)
        .field("longest_track_s", c.longest_track_s)
        .field("pure_points", c.pure_points)
        .field("impure_points", c.impure_points)
        .end_object();
  }
  json.end_array().end_object();
}

}  // namespace mm::marauder
