// Privacy defenses vs the Marauder's Map (Section V / conclusion).
//
// The paper notes that static MAC addresses make tracking trivial, that MAC
// pseudonyms (randomized, locally-administered addresses) are the natural
// defense, and that Pang et al. showed implicit identifiers — like the
// remembered-network SSIDs in directed probes — can break those pseudonyms.
// This example demonstrates all three regimes against the same tracker:
//
//   1. static MAC            -> one identity, full trajectory recovered;
//   2. per-scan random MAC   -> many short-lived identities, trajectory gone;
//   3. random MAC + directed -> identities re-linked via the SSID fingerprint,
//      probes                   trajectory mostly recovered again.
//
//   ./examples/privacy_defense [--seed N]
#include <iostream>
#include <map>
#include <memory>

#include "capture/sniffer.h"
#include "marauder/identity.h"
#include "marauder/tracker.h"
#include "marauder/trajectory.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace mm;

struct RunResult {
  std::size_t identities = 0;       // distinct MACs the sniffer saw
  std::size_t located_samples = 0;  // samples where *some* identity was located
  double avg_error_m = 0.0;         // over located samples (linked identities)
};

/// Runs one walk; `rotate` re-randomizes the MAC before every scan;
/// `directed_ssids` leak implicit identifiers; `link_by_ssid` re-links
/// pseudonyms whose directed-SSID sets match (the Pang et al. attack).
RunResult run_walk(std::uint64_t seed, bool rotate, bool leak_ssids, bool link_by_ssid) {
  sim::CampusConfig campus;
  campus.seed = seed;
  campus.num_aps = 120;
  campus.half_extent_m = 300.0;
  const auto truth = sim::generate_campus_aps(campus);

  sim::World world({.seed = seed ^ 0xd3f, .propagation = nullptr});
  sim::populate_world(world, truth, false);

  auto walk = std::make_shared<sim::RouteWalk>(sim::lawnmower_route(220.0, 2), 1.5);
  sim::MobileConfig mc;
  mc.mac = *net80211::MacAddress::parse("00:16:6f:ca:fe:04");
  mc.profile.probes = false;
  if (leak_ssids) mc.profile.directed_ssids = {"home-wifi-2819", "CoffeeHouse"};
  mc.mobility = walk;
  sim::MobileDevice* victim = world.add_mobile(std::make_unique<sim::MobileDevice>(mc));

  capture::ObservationStore store;
  capture::SnifferConfig sc;
  sc.position = {0.0, 0.0};
  sc.antenna_height_m = 20.0;
  capture::Sniffer sniffer(sc, &store);
  sniffer.attach(world);

  util::Rng mac_rng(seed ^ 0x9999);
  std::vector<std::pair<double, geo::Vec2>> samples;
  for (double t = 1.0; t < walk->arrival_time(); t += 45.0) {
    world.queue().schedule(t, [victim, rotate, &mac_rng] {
      if (rotate) victim->rotate_mac(net80211::MacAddress::random_local(mac_rng));
      victim->trigger_scan();
    });
    samples.emplace_back(t, walk->position(t));
  }
  world.run_until(walk->arrival_time() + 5.0);

  marauder::Tracker tracker(marauder::ApDatabase::from_truth(truth, true),
                            {.algorithm = marauder::Algorithm::kMLoc});

  // Identity view: cluster the observed MACs by their implicit identifier
  // (SSID fingerprints), then build a movement track per identity.
  marauder::ResolverOptions resolver_options;
  resolver_options.signals =
      link_by_ssid ? marauder::ResolverSignals{} : marauder::ResolverSignals::none();
  // A rotating victim probes the same SSIDs under many MACs; do not let the
  // popularity guard discard its own fingerprint in this small scene.
  resolver_options.max_ssid_popularity = 100;
  const auto identities = marauder::resolve_identities(store, resolver_options).identities;

  RunResult out;
  out.identities = store.device_count();
  // The attacker's best case: the identity whose trajectory has the most
  // points — with pseudonyms unlinked every identity holds one sample.
  std::size_t best = 0;
  double best_error_sum = 0.0;
  std::size_t best_points = 0;
  for (const auto& identity : identities) {
    const auto track = marauder::build_trajectory(tracker, store, identity.macs);
    if (track.size() > best) {
      best = track.size();
      best_error_sum = 0.0;
      best_points = track.size();
      for (const auto& point : track) {
        best_error_sum += point.position.distance_to(walk->position(point.time));
      }
    }
  }
  out.located_samples = best;
  out.avg_error_m = best_points ? best_error_sum / static_cast<double>(best_points) : 0.0;
  return out;
}


}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::uint64_t seed = flags.get_seed(31337);

  const RunResult static_mac = run_walk(seed, false, false, false);
  const RunResult random_mac = run_walk(seed, true, false, false);
  const RunResult relinked = run_walk(seed, true, true, true);

  util::Table table(
      {"defense", "identities seen", "trajectory samples linked to one user"});
  table.add_row({"static MAC (no defense)", std::to_string(static_mac.identities),
                 std::to_string(static_mac.located_samples)});
  table.add_row({"random MAC per scan", std::to_string(random_mac.identities),
                 std::to_string(random_mac.located_samples)});
  table.add_row({"random MAC + directed probes (SSID fingerprint re-linking)",
                 std::to_string(relinked.identities),
                 std::to_string(relinked.located_samples)});
  table.print(std::cout);

  std::cout << "\nTakeaway: MAC randomization shreds the trajectory into single-sample\n"
               "pseudonyms, but directed-probe SSID fingerprints let the Marauder's Map\n"
               "re-link them (Pang et al.) — matching the paper's discussion.\n";
  return 0;
}
