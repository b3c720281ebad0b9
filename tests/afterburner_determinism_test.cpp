// Afterburner's core promise: the parallel offline stack is bit-for-bit
// identical to its serial twin at any thread count — locate_all (clean and
// under an active fault plan), AP-Rad's constraint generation, the
// Monte-Carlo theorem kernels, and the Gamma-memo cache — and locate_all
// equals the hand-written per-device loop (attack_oracles.h) for every
// algorithm. Run under TSan in CI alongside the pool contract tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/theorems.h"
#include "attack_oracles.h"
#include "capture/sniffer.h"
#include "marauder/aprad.h"
#include "marauder/tracker.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace mm {
namespace {

using ResultMap = std::map<net80211::MacAddress, marauder::LocalizationResult>;

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_results(const ResultMap& a, const ResultMap& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    const marauder::LocalizationResult& ra = ita->second;
    const marauder::LocalizationResult& rb = itb->second;
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.used_fallback, rb.used_fallback);
    EXPECT_EQ(ra.discs_rejected, rb.discs_rejected);
    EXPECT_EQ(ra.num_aps, rb.num_aps);
    EXPECT_TRUE(bit_equal(ra.estimate.x, rb.estimate.x)) << ita->first.to_string();
    EXPECT_TRUE(bit_equal(ra.estimate.y, rb.estimate.y)) << ita->first.to_string();
    ASSERT_EQ(ra.discs.size(), rb.discs.size());
    for (std::size_t i = 0; i < ra.discs.size(); ++i) {
      EXPECT_TRUE(bit_equal(ra.discs[i].center.x, rb.discs[i].center.x));
      EXPECT_TRUE(bit_equal(ra.discs[i].center.y, rb.discs[i].center.y));
      EXPECT_TRUE(bit_equal(ra.discs[i].radius, rb.discs[i].radius));
    }
  }
}

struct Capture {
  std::vector<sim::ApTruth> truth;
  capture::ObservationStore store;
};

/// Static devices scattered over a campus, one scan each, optionally through
/// a fault plan (corrupted evidence exercises the outlier-rejection path).
Capture make_capture(const fault::FaultPlan& plan = {}) {
  Capture c;
  sim::CampusConfig campus;
  campus.seed = 1717;
  campus.num_aps = 120;
  campus.half_extent_m = 280.0;
  c.truth = sim::generate_campus_aps(campus);

  sim::World world({.seed = 29, .propagation = nullptr});
  sim::populate_world(world, c.truth, /*beacons_enabled=*/false);

  std::vector<sim::MobileDevice*> devices;
  for (std::size_t i = 0; i < 12; ++i) {
    sim::MobileConfig mc;
    std::array<std::uint8_t, 6> bytes{0x00, 0x16, 0x6f, 0x00, 0x02,
                                      static_cast<std::uint8_t>(i + 1)};
    mc.mac = net80211::MacAddress(bytes);
    mc.profile.probes = false;
    const double x = -150.0 + 75.0 * static_cast<double>(i % 5);
    const double y = -100.0 + 100.0 * static_cast<double>(i / 5);
    mc.mobility = std::make_shared<sim::StaticPosition>(geo::Vec2{x, y});
    devices.push_back(world.add_mobile(std::make_unique<sim::MobileDevice>(mc)));
  }

  capture::SnifferConfig cfg;
  cfg.position = {0.0, 0.0};
  cfg.antenna_height_m = 20.0;
  cfg.fault_plan = plan;
  capture::Sniffer sniffer(cfg, &c.store);
  sniffer.attach(world);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    sim::MobileDevice* dev = devices[i];
    world.queue().schedule(1.0 + 0.25 * static_cast<double>(i),
                           [dev] { dev->trigger_scan(); });
  }
  world.run_until(6.0);
  return c;
}

marauder::Tracker mloc_tracker(const Capture& c, std::size_t threads, bool reject_outliers) {
  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kMLoc;
  options.threads = threads;
  options.mloc.reject_outliers = reject_outliers;
  return marauder::Tracker(marauder::ApDatabase::from_truth(c.truth, true), options);
}

ResultMap locate_all_with(const Capture& c, std::size_t threads, bool reject_outliers) {
  return mloc_tracker(c, threads, reject_outliers).locate_all(c.store);
}

fault::FaultPlan corrupt_duplicate_plan() {
  fault::FaultPlan plan;
  plan.corrupt_rate = 0.08;
  plan.duplicate_rate = 0.05;
  return plan;
}

TEST(AfterburnerDeterminism, LocateAllBitIdenticalAcrossThreadCounts) {
  const Capture c = make_capture();
  ASSERT_GE(c.store.device_count(), 10u);
  const ResultMap serial = locate_all_with(c, 1, false);
  ASSERT_FALSE(serial.empty());
  expect_same_results(serial, locate_all_with(c, 2, false));
  expect_same_results(serial, locate_all_with(c, 8, false));
}

TEST(AfterburnerDeterminism, GammaCacheDoesNotChangeResults) {
  // The memoized, grouped, threaded batch against the per-device oracle,
  // which never touches the memo.
  const Capture c = make_capture();
  const marauder::Tracker tracker = mloc_tracker(c, 8, false);
  const ResultMap first = tracker.locate_all(c.store);
  expect_same_results(oracle::locate_each(tracker, c.store), first);
  expect_same_results(first, tracker.locate_all(c.store));  // answered by the memo
}

TEST(AfterburnerDeterminism, LocateAllIdenticalUnderFaultPlan) {
  // Corrupted frames make inconsistent disc sets likely, so this run drives
  // the greedy rejection path (distance-matrix code) across thread counts.
  const Capture c = make_capture(corrupt_duplicate_plan());
  ASSERT_GE(c.store.device_count(), 8u);
  const ResultMap serial = locate_all_with(c, 1, true);
  ASSERT_FALSE(serial.empty());
  expect_same_results(serial, locate_all_with(c, 2, true));
  expect_same_results(serial, locate_all_with(c, 8, true));
}

TEST(AfterburnerDeterminism, ApRadRadiiIdenticalAcrossThreadCounts) {
  const Capture c = make_capture();
  const auto gammas = c.store.all_gammas();
  ASSERT_FALSE(gammas.empty());
  const auto db = marauder::ApDatabase::from_truth(c.truth, false);

  auto radii_at = [&](std::size_t threads) {
    marauder::ApRadOptions options;
    options.threads = threads;
    return marauder::aprad_estimate_radii(db, gammas, options);
  };
  const auto serial = radii_at(1);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = radii_at(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    auto its = serial.begin();
    auto itp = parallel.begin();
    for (; its != serial.end(); ++its, ++itp) {
      EXPECT_EQ(its->first, itp->first);
      EXPECT_TRUE(bit_equal(its->second, itp->second)) << its->first.to_string();
    }
  }
}

TEST(AfterburnerDeterminism, MonteCarloKernelsBitIdenticalAcrossThreadCounts) {
  const double serial2 = analysis::thm2_monte_carlo_area(6, 1.0, 500, 77, 1);
  EXPECT_TRUE(bit_equal(serial2, analysis::thm2_monte_carlo_area(6, 1.0, 500, 77, 2)));
  EXPECT_TRUE(bit_equal(serial2, analysis::thm2_monte_carlo_area(6, 1.0, 500, 77, 8)));

  const auto serial3 = analysis::thm3_monte_carlo(6, 1.0, 0.9, 500, 77, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = analysis::thm3_monte_carlo(6, 1.0, 0.9, 500, 77, threads);
    EXPECT_TRUE(bit_equal(serial3.mean_area, parallel.mean_area));
    EXPECT_TRUE(bit_equal(serial3.coverage_probability, parallel.coverage_probability));
  }
}

TEST(SlipstreamDeterminism, FullMatrixBitIdenticalUnderFaultPlan) {
  // The Slipstream contract, exhaustively: every thread count, on a cold
  // memo and on the warm memo of a second batch, produces the bit-identical
  // result map, under a fault plan so the outlier-rejection scratch path is
  // exercised too. The reference is the hand-written per-device loop.
  const Capture c = make_capture(corrupt_duplicate_plan());
  ASSERT_GE(c.store.device_count(), 8u);
  const ResultMap reference = oracle::locate_each(mloc_tracker(c, 1, true), c.store);
  ASSERT_FALSE(reference.empty());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const marauder::Tracker tracker = mloc_tracker(c, threads, true);
    for (const char* memo : {"cold", "warm"}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " memo=" + memo);
      expect_same_results(reference, tracker.locate_all(c.store));
    }
  }
}

TEST(SlipstreamDeterminism, LocateAllEqualsPerDeviceLocateForEveryAlgorithm) {
  // locate_all == {mac -> locate(mac)} == the per-device oracle, for every
  // algorithm a Tracker runs (AP-Rad both before and after prepare()), at
  // several thread counts, clean and under the corrupt/duplicate plan.
  struct Case {
    const char* name;
    marauder::Algorithm algorithm;
    bool prepare;
  };
  const Case cases[] = {
      {"M-Loc", marauder::Algorithm::kMLoc, false},
      {"AP-Rad prepared", marauder::Algorithm::kApRad, true},
      {"AP-Rad unprepared", marauder::Algorithm::kApRad, false},
      {"Centroid", marauder::Algorithm::kCentroid, false},
      {"NearestAp", marauder::Algorithm::kNearestAp, false},
      {"WeightedCentroid", marauder::Algorithm::kWeightedCentroid, false},
  };
  for (const bool faulty : {false, true}) {
    const Capture c = make_capture(faulty ? corrupt_duplicate_plan() : fault::FaultPlan{});
    ASSERT_GE(c.store.device_count(), 8u);
    for (const Case& k : cases) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        SCOPED_TRACE(std::string(k.name) + " threads=" + std::to_string(threads) +
                     (faulty ? " faulty" : " clean"));
        marauder::TrackerOptions options;
        options.algorithm = k.algorithm;
        options.threads = threads;
        options.mloc.reject_outliers = faulty;
        options.aprad.mloc.reject_outliers = faulty;
        marauder::Tracker tracker(marauder::ApDatabase::from_truth(c.truth, true), options);
        if (k.prepare) tracker.prepare(c.store);
        const ResultMap batch = tracker.locate_all(c.store);
        ASSERT_FALSE(batch.empty());
        expect_same_results(oracle::locate_each(tracker, c.store), batch);
        ResultMap per_device;
        for (const auto& mac : c.store.devices()) {
          marauder::LocalizationResult r = tracker.locate(c.store, mac);
          if (r.ok) per_device.emplace(mac, std::move(r));
        }
        expect_same_results(per_device, batch);
        const bool fallback = k.algorithm == marauder::Algorithm::kApRad && !k.prepare;
        for (const auto& [mac, r] : batch) {
          if (fallback) {
            EXPECT_TRUE(r.used_fallback) << mac.to_string();
          }
          EXPECT_EQ(r.method, marauder::to_string(k.algorithm)) << mac.to_string();
        }
      }
    }
  }
}

/// A store spread over six 100 s windows: 8 crowds of 5 devices that share
/// a Gamma inside one window, 30 walkers that hear a different AP
/// neighbourhood in each of two windows (a quarter of them in the first and
/// last, so their contact spans straddle every window between), and 5
/// devices that only probe. Any one window holds a minority of the devices.
capture::ObservationStore make_windowed_store(const std::vector<sim::ApTruth>& truth) {
  util::Rng rng(4242);
  // An AP and its three nearest neighbours: discs that usually intersect.
  auto neighbourhood = [&](std::size_t anchor) {
    std::vector<std::pair<double, std::size_t>> by_distance;
    for (std::size_t i = 0; i < truth.size(); ++i) {
      by_distance.emplace_back(truth[anchor].position.distance_to(truth[i].position), i);
    }
    std::sort(by_distance.begin(), by_distance.end());
    std::vector<net80211::MacAddress> aps;
    for (std::size_t k = 0; k < 4; ++k) aps.push_back(truth[by_distance[k].second].bssid);
    return aps;
  };
  capture::ObservationStore store;
  auto hear = [&](const net80211::MacAddress& device,
                  const std::vector<net80211::MacAddress>& aps, std::size_t window) {
    for (const auto& ap : aps) {
      const double t = 100.0 * static_cast<double>(window) + 99.0 * rng.uniform();
      store.record_contact(ap, device, t, -50.0 - 30.0 * rng.uniform());
    }
  };
  std::uint64_t next_mac = 0x0016f0003000ULL;
  for (std::size_t crowd = 0; crowd < 8; ++crowd) {
    const auto aps = neighbourhood(rng.next_u64() % truth.size());
    for (std::size_t m = 0; m < 5; ++m) {
      hear(net80211::MacAddress::from_u64(next_mac++), aps, crowd % 6);
    }
  }
  for (std::size_t walker = 0; walker < 30; ++walker) {
    const auto mac = net80211::MacAddress::from_u64(next_mac++);
    const std::size_t first = walker % 4 == 0 ? 0 : rng.next_u64() % 6;
    const std::size_t second = walker % 4 == 0 ? 5 : rng.next_u64() % 6;
    hear(mac, neighbourhood(rng.next_u64() % truth.size()), first);
    hear(mac, neighbourhood(rng.next_u64() % truth.size()), second);
  }
  for (std::size_t p = 0; p < 5; ++p) {
    store.record_probe_request(net80211::MacAddress::from_u64(next_mac++),
                               100.0 * static_cast<double>(p), std::nullopt);
  }
  return store;
}

TEST(SlipstreamDeterminism, WindowedLocateAllEqualsOracle) {
  // locate_all plans only the devices with contacts in the window; the
  // oracle walks every device the store holds. Both must give the same map
  // for every algorithm, window and thread count.
  struct Case {
    const char* name;
    marauder::Algorithm algorithm;
    bool prepare;
  };
  const Case cases[] = {
      {"M-Loc", marauder::Algorithm::kMLoc, false},
      {"AP-Rad prepared", marauder::Algorithm::kApRad, true},
      {"AP-Rad unprepared", marauder::Algorithm::kApRad, false},
      {"Centroid", marauder::Algorithm::kCentroid, false},
      {"NearestAp", marauder::Algorithm::kNearestAp, false},
      {"WeightedCentroid", marauder::Algorithm::kWeightedCentroid, false},
  };
  sim::CampusConfig campus;
  campus.seed = 77;
  campus.num_aps = 60;
  campus.half_extent_m = 250.0;
  const auto truth = sim::generate_campus_aps(campus);
  const capture::ObservationStore store = make_windowed_store(truth);

  std::vector<capture::ObservationWindow> windows;
  for (std::size_t w = 0; w < 6; ++w) {
    const double begin = 100.0 * static_cast<double>(w);
    windows.push_back({begin, begin + 99.0});
    ASSERT_LT(2 * store.contact_devices(windows.back()).size(), store.device_count());
  }
  for (const Case& k : cases) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      marauder::TrackerOptions options;
      options.algorithm = k.algorithm;
      options.threads = threads;
      marauder::Tracker tracker(marauder::ApDatabase::from_truth(truth, true), options);
      if (k.prepare) tracker.prepare(store);
      for (std::size_t w = 0; w < windows.size(); ++w) {
        SCOPED_TRACE(std::string(k.name) + " threads=" + std::to_string(threads) +
                     " window=" + std::to_string(w));
        const ResultMap batch = tracker.locate_all(store, windows[w]);
        ASSERT_FALSE(batch.empty());
        expect_same_results(oracle::locate_each(tracker, store, windows[w]), batch);
      }
    }
  }
}

TEST(SlipstreamDeterminism, WindowedProfileCountsPlannedDevicesOnly) {
  // Two windows. Window 1: a crowd of 4 sharing Gamma G1 plus two devices
  // with their own Gammas. Window 2: 3 devices sharing G4 and one hearing
  // G1. Two devices only probe. Devices outside a window are not planned,
  // so they count neither as devices nor as duplicates nor as memo hits.
  sim::CampusConfig campus;
  campus.seed = 55;
  campus.num_aps = 40;
  const auto truth = sim::generate_campus_aps(campus);
  auto gamma_of = [&](std::size_t base) {
    return std::vector<net80211::MacAddress>{truth[base].bssid, truth[base + 1].bssid,
                                             truth[base + 2].bssid};
  };
  capture::ObservationStore store;
  std::uint64_t next_mac = 0x0016f0004000ULL;
  auto add = [&](std::size_t base, double t) {
    const auto mac = net80211::MacAddress::from_u64(next_mac++);
    for (const auto& ap : gamma_of(base)) store.record_contact(ap, mac, t, -55.0);
  };
  for (int i = 0; i < 4; ++i) add(0, 5.0);
  add(3, 6.0);
  add(6, 7.0);
  for (int i = 0; i < 3; ++i) add(9, 105.0);
  add(0, 106.0);
  store.record_probe_request(net80211::MacAddress::from_u64(next_mac++), 5.0, std::nullopt);
  store.record_probe_request(net80211::MacAddress::from_u64(next_mac++), 105.0, std::nullopt);

  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kMLoc;
  marauder::Tracker tracker(marauder::ApDatabase::from_truth(truth, true), options);
  const capture::ObservationWindow first{0.0, 10.0};
  const capture::ObservationWindow second{100.0, 110.0};

  marauder::LocateAllProfile profile;
  const ResultMap a = tracker.locate_all(store, first, &profile);
  EXPECT_EQ(profile.devices, 6u);
  EXPECT_EQ(profile.unique_gammas, 3u);
  EXPECT_EQ(profile.duplicate_ratio, 0.5);
  EXPECT_TRUE(profile.cache_engaged);
  EXPECT_EQ(tracker.gamma_cache_stats().misses, 3u);  // G1, G2, G3
  EXPECT_EQ(tracker.gamma_cache_stats().hits, 3u);    // the crowd's other three
  expect_same_results(oracle::locate_each(tracker, store, first), a);

  const ResultMap b = tracker.locate_all(store, second, &profile);
  EXPECT_EQ(profile.devices, 4u);
  EXPECT_EQ(profile.unique_gammas, 2u);
  EXPECT_EQ(profile.duplicate_ratio, 0.5);
  EXPECT_TRUE(profile.cache_engaged);
  EXPECT_EQ(tracker.gamma_cache_stats().misses, 4u);  // + G4
  EXPECT_EQ(tracker.gamma_cache_stats().hits, 6u);    // + G4's two, + G1 from the memo
  expect_same_results(oracle::locate_each(tracker, store, second), b);
}

TEST(SlipstreamCacheGate, MemoDisengagesOnLowDuplication) {
  // Every device hears its own disjoint AP triple: zero duplicate Gammas, so
  // the batch must stay below the 5% memo gate and never
  // touch the shared memo (the counters stay zero), while still grouping —
  // trivially — and producing per-device results.
  sim::CampusConfig campus;
  campus.seed = 55;
  campus.num_aps = 40;
  const auto truth = sim::generate_campus_aps(campus);

  capture::ObservationStore store;
  for (std::size_t d = 0; d < 10; ++d) {
    const auto mac = net80211::MacAddress::from_u64(0x0016f0002000ULL + d);
    for (std::size_t k = 0; k < 3; ++k) {
      store.record_contact(truth[d * 3 + k].bssid, mac, 1.0, -55.0);
    }
  }

  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kMLoc;
  marauder::Tracker tracker(marauder::ApDatabase::from_truth(truth, true), options);
  marauder::LocateAllProfile profile;
  const ResultMap results = tracker.locate_all(store, {}, &profile);
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(profile.devices, 10u);
  EXPECT_EQ(profile.unique_gammas, 10u);
  EXPECT_EQ(profile.duplicate_ratio, 0.0);
  EXPECT_FALSE(profile.cache_engaged);

  const auto stats = tracker.gamma_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(AfterburnerDeterminism, GammaCacheHitsOnSharedGammasAndStaysExact) {
  // Two co-located device groups: every device in a group hears the same
  // APs, so each group costs one M-Loc solve and the rest are cache hits.
  sim::CampusConfig campus;
  campus.seed = 55;
  campus.num_aps = 40;
  const auto truth = sim::generate_campus_aps(campus);

  capture::ObservationStore store;
  for (std::size_t d = 0; d < 10; ++d) {
    const auto mac = net80211::MacAddress::from_u64(0x0016f0001000ULL + d);
    const std::size_t base = (d % 2) * 7;
    for (std::size_t k = 0; k < 4; ++k) {
      store.record_contact(truth[base + k].bssid, mac, 1.0, -55.0);
    }
  }

  marauder::TrackerOptions options;
  options.algorithm = marauder::Algorithm::kMLoc;
  marauder::Tracker cached(marauder::ApDatabase::from_truth(truth, true), options);
  marauder::LocateAllProfile profile;
  const ResultMap with_cache = cached.locate_all(store, {}, &profile);
  const auto stats = cached.gamma_cache_stats();
  EXPECT_EQ(stats.misses, 2u);  // one per distinct Gamma
  EXPECT_EQ(stats.hits, 8u);
  EXPECT_EQ(profile.duplicate_ratio, 0.8);
  EXPECT_TRUE(profile.cache_engaged);  // 8/10 duplicates clears the 5% gate easily
  EXPECT_EQ(profile.unique_gammas, 2u);

  // A second batch answers every device from the cross-call memo.
  const ResultMap second = cached.locate_all(store);
  expect_same_results(with_cache, second);
  const auto stats2 = cached.gamma_cache_stats();
  EXPECT_EQ(stats2.misses, 2u);
  EXPECT_EQ(stats2.hits, 18u);

  expect_same_results(oracle::locate_each(cached, store), with_cache);
}

}  // namespace
}  // namespace mm
