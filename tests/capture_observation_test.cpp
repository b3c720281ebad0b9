#include "capture/observation_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "capture/persistence.h"
#include "util/rng.h"

namespace mm::capture {
namespace {

const net80211::MacAddress kDevA = *net80211::MacAddress::parse("00:16:6f:00:00:0a");
const net80211::MacAddress kDevB = *net80211::MacAddress::parse("00:16:6f:00:00:0b");
const net80211::MacAddress kAp1 = *net80211::MacAddress::parse("00:1a:2b:00:00:01");
const net80211::MacAddress kAp2 = *net80211::MacAddress::parse("00:1a:2b:00:00:02");
const net80211::MacAddress kAp3 = *net80211::MacAddress::parse("00:1a:2b:00:00:03");

TEST(ObservationStore, EmptyByDefault) {
  const ObservationStore store;
  EXPECT_EQ(store.device_count(), 0u);
  EXPECT_TRUE(store.devices().empty());
  EXPECT_EQ(store.device(kDevA), nullptr);
  EXPECT_TRUE(store.gamma(kDevA).empty());
  EXPECT_EQ(store.probing_device_count(), 0u);
}

TEST(ObservationStore, ProbeRequestCreatesDevice) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::nullopt);
  EXPECT_EQ(store.device_count(), 1u);
  const DeviceRecord* rec = store.device(kDevA);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->probe_requests, 1u);
  EXPECT_DOUBLE_EQ(rec->first_seen, 1.0);
  EXPECT_DOUBLE_EQ(rec->last_seen, 1.0);
}

TEST(ObservationStore, DirectedSsidsDeduplicated) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::string("HomeNet"));
  store.record_probe_request(kDevA, 2.0, std::string("HomeNet"));
  store.record_probe_request(kDevA, 3.0, std::string("WorkNet"));
  store.record_probe_request(kDevA, 4.0, std::string(""));  // wildcard ignored
  const DeviceRecord* rec = store.device(kDevA);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->directed_ssids, (std::vector<std::string>{"HomeNet", "WorkNet"}));
}

TEST(ObservationStore, GammaCollectsContacts) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevA, 1.1, -75.0);
  store.record_contact(kAp1, kDevB, 2.0, -60.0);
  EXPECT_EQ(store.gamma(kDevA), (std::set<net80211::MacAddress>{kAp1, kAp2}));
  EXPECT_EQ(store.gamma(kDevB), (std::set<net80211::MacAddress>{kAp1}));
}

TEST(ObservationStore, GammaWindowFilters) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevA, 5.0, -70.0);
  store.record_contact(kAp3, kDevA, 9.0, -70.0);
  EXPECT_EQ(store.gamma(kDevA, {4.0, 6.0}), (std::set<net80211::MacAddress>{kAp2}));
  EXPECT_EQ(store.gamma(kDevA, {0.0, 10.0}),
            (std::set<net80211::MacAddress>{kAp1, kAp2, kAp3}));
  EXPECT_TRUE(store.gamma(kDevA, {20.0, 30.0}).empty());
}

TEST(ObservationStore, ContactAccumulatesCounts) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp1, kDevA, 2.0, -65.0);
  const DeviceRecord* rec = store.device(kDevA);
  ASSERT_NE(rec, nullptr);
  const ApContact& contact = rec->contacts.at(kAp1);
  EXPECT_EQ(contact.count, 2u);
  EXPECT_DOUBLE_EQ(contact.first_seen, 1.0);
  EXPECT_DOUBLE_EQ(contact.last_seen, 2.0);
  EXPECT_DOUBLE_EQ(contact.last_rssi_dbm, -65.0);
  EXPECT_EQ(contact.times.size(), 2u);
}

TEST(ObservationStore, AllGammasSkipsDevicesWithoutContacts) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::nullopt);  // probing, no contacts
  store.record_contact(kAp1, kDevB, 1.0, -70.0);
  const auto gammas = store.all_gammas();
  ASSERT_EQ(gammas.size(), 1u);
  EXPECT_EQ(gammas[0], (std::set<net80211::MacAddress>{kAp1}));
}

TEST(ObservationStore, SessionGammasSplitByGap) {
  ObservationStore store;
  // One scan at t~1 (AP1, AP2), another at t~100 (AP2, AP3).
  store.record_contact(kAp1, kDevA, 1.00, -70.0);
  store.record_contact(kAp2, kDevA, 1.05, -70.0);
  store.record_contact(kAp2, kDevA, 100.00, -70.0);
  store.record_contact(kAp3, kDevA, 100.10, -70.0);
  const auto sessions = store.session_gammas(5.0);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0], (std::set<net80211::MacAddress>{kAp1, kAp2}));
  EXPECT_EQ(sessions[1], (std::set<net80211::MacAddress>{kAp2, kAp3}));
}

TEST(ObservationStore, SessionGammasSingleSessionWhenDense) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevA, 3.0, -70.0);
  store.record_contact(kAp3, kDevA, 5.0, -70.0);
  const auto sessions = store.session_gammas(5.0);
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].size(), 3u);
}

TEST(ObservationStore, SessionGammasRespectWindow) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevA, 50.0, -70.0);
  const auto sessions = store.session_gammas(5.0, {40.0, 60.0});
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0], (std::set<net80211::MacAddress>{kAp2}));
}

TEST(ObservationStore, SessionGammasPerDevice) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 1.0, -70.0);
  store.record_contact(kAp2, kDevB, 1.0, -70.0);
  const auto sessions = store.session_gammas(5.0);
  EXPECT_EQ(sessions.size(), 2u);  // one per device, never merged
}

TEST(ObservationStore, ProbingDeviceCount) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::nullopt);
  store.record_contact(kAp1, kDevB, 1.0, -70.0);  // seen, never probed
  EXPECT_EQ(store.device_count(), 2u);
  EXPECT_EQ(store.probing_device_count(), 1u);
}

TEST(ObservationStore, BeaconSightings) {
  ObservationStore store;
  store.record_beacon(kAp1, "NetOne", 6, 1.0, -55.0);
  store.record_beacon(kAp1, "NetOne", 6, 1.1, -54.0);
  store.record_beacon(kAp2, "NetTwo", 11, 1.2, -60.0);
  ASSERT_EQ(store.ap_sightings().size(), 2u);
  const ApSighting& s1 = store.ap_sightings().at(kAp1);
  EXPECT_EQ(s1.ssid, "NetOne");
  EXPECT_EQ(s1.channel, 6);
  EXPECT_EQ(s1.beacons, 2u);
  EXPECT_DOUBLE_EQ(s1.last_rssi_dbm, -54.0);
}

TEST(ObservationStore, ClearResets) {
  ObservationStore store;
  store.record_probe_request(kDevA, 1.0, std::nullopt);
  store.record_beacon(kAp1, "x", 1, 1.0, -50.0);
  store.clear();
  EXPECT_EQ(store.device_count(), 0u);
  EXPECT_TRUE(store.ap_sightings().empty());
}

TEST(ObservationStore, ContactHistoryCapCompactsOldestInstants) {
  ObservationStoreOptions options;
  options.contact_history_cap = 16;
  ObservationStore store(options);
  for (int i = 0; i < 100; ++i) {
    store.record_contact(kAp1, kDevA, static_cast<sim::SimTime>(i), -70.0);
  }
  const ApContact& contact = store.device(kDevA)->contacts.at(kAp1);
  // Aggregates stay exact even though instants were compacted.
  EXPECT_EQ(contact.count, 100u);
  EXPECT_EQ(contact.first_seen, 0.0);
  EXPECT_EQ(contact.last_seen, 99.0);
  // History is bounded by the cap and holds the newest suffix, time-ordered.
  EXPECT_LE(contact.times.size(), 16u);
  EXPECT_EQ(contact.times.back(), 99.0);
  for (std::size_t i = 1; i < contact.times.size(); ++i) {
    EXPECT_LT(contact.times[i - 1], contact.times[i]);
  }
  // Recent-window queries over the retained suffix remain exact.
  EXPECT_EQ(store.gamma(kDevA, ObservationWindow{95.0, 99.0}).count(kAp1), 1u);
}

TEST(ObservationStore, ContactHistoryCapAppliesPerContact) {
  ObservationStoreOptions options;
  options.contact_history_cap = 8;
  ObservationStore store(options);
  for (int i = 0; i < 50; ++i) {
    store.record_contact(kAp1, kDevA, static_cast<sim::SimTime>(i), -70.0);
  }
  store.record_contact(kAp2, kDevA, 1.0, -60.0);
  const DeviceRecord* record = store.device(kDevA);
  EXPECT_LE(record->contacts.at(kAp1).times.size(), 8u);
  // A sparse contact on the same device is untouched by the busy one's cap.
  EXPECT_EQ(record->contacts.at(kAp2).times.size(), 1u);
}

TEST(ObservationStore, UnboundedHistoryOptOutKeepsEveryInstant) {
  ObservationStoreOptions options;
  options.contact_history_cap = 16;
  options.unbounded_contact_history = true;
  ObservationStore store(options);
  for (int i = 0; i < 100; ++i) {
    store.record_contact(kAp1, kDevA, static_cast<sim::SimTime>(i), -70.0);
  }
  const ApContact& contact = store.device(kDevA)->contacts.at(kAp1);
  EXPECT_EQ(contact.times.size(), 100u);
  EXPECT_EQ(contact.count, 100u);
}

// --- contact_devices: the per-device contact-span index -------------------

/// A store of `devices` devices whose contact instants are drawn in [0, 1000]
/// and recorded out of time order; every fifth device only ever probes.
ObservationStore random_store(std::uint64_t seed, std::size_t devices,
                              ObservationStoreOptions options = {}) {
  util::Rng rng(seed);
  ObservationStore store(options);
  for (std::size_t d = 0; d < devices; ++d) {
    const auto mac = net80211::MacAddress::from_u64(0x0016f0000000ULL + seed * 1000 + d);
    if (d % 5 == 4) {
      store.record_probe_request(mac, 1000.0 * rng.uniform(), std::nullopt);
      continue;
    }
    const std::size_t contacts = 1 + rng.next_u64() % 30;
    for (std::size_t k = 0; k < contacts; ++k) {
      const auto ap = net80211::MacAddress::from_u64(0x001a2b000000ULL + rng.next_u64() % 6);
      store.record_contact(ap, mac, 1000.0 * rng.uniform(), -60.0);
    }
  }
  return store;
}

/// The contract of contact_devices(window) on random windows (and the default
/// one): ascending, drawn from devices(), never a device without contacts,
/// and a superset of the devices whose Gamma in the window is non-empty.
/// Returns how many (window, device) pairs the query excluded, so callers
/// can require that the windows actually cut.
std::size_t expect_contact_index_covers_gammas(const ObservationStore& store,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<net80211::MacAddress> all = store.devices();
  std::vector<ObservationWindow> windows{ObservationWindow{}};
  for (int i = 0; i < 60; ++i) {
    const double begin = -50.0 + 1100.0 * rng.uniform();
    windows.push_back({begin, begin + 300.0 * rng.uniform()});
  }
  // Point windows on exact recorded instants: both bounds are inclusive.
  for (const auto& mac : all) {
    for (const auto& [ap, contact] : store.device(mac)->contacts) {
      if (!contact.times.empty()) {
        windows.push_back({contact.times.front(), contact.times.front()});
        windows.push_back({contact.times.back(), contact.times.back()});
      }
    }
  }

  std::size_t excluded = 0;
  for (const ObservationWindow& window : windows) {
    const std::vector<net80211::MacAddress> got = store.contact_devices(window);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
    EXPECT_TRUE(std::includes(all.begin(), all.end(), got.begin(), got.end()));
    std::vector<net80211::MacAddress> nonempty;
    for (const auto& mac : all) {
      if (!store.gamma_sorted(mac, window).empty()) nonempty.push_back(mac);
    }
    EXPECT_TRUE(std::includes(got.begin(), got.end(), nonempty.begin(), nonempty.end()))
        << "window [" << window.begin << ", " << window.end << "]";
    for (const auto& mac : got) EXPECT_FALSE(store.device(mac)->contacts.empty());
    excluded += all.size() - got.size();
  }
  return excluded;
}

TEST(ObservationStoreContactIndex, OutOfOrderContactsCoverEveryWindowGamma) {
  const ObservationStore store = random_store(11, 80);
  EXPECT_GT(expect_contact_index_covers_gammas(store, 1), 0u);
  // The default window lists exactly the devices that ever had a contact.
  std::vector<net80211::MacAddress> with_contacts;
  for (const auto& mac : store.devices()) {
    if (!store.device(mac)->contacts.empty()) with_contacts.push_back(mac);
  }
  EXPECT_EQ(store.contact_devices(), with_contacts);
}

TEST(ObservationStoreContactIndex, ProbeOnlyDevicesAreNeverListed) {
  ObservationStore store;
  store.record_probe_request(kDevA, 5.0, std::string("HomeNet"));
  store.record_presence(kDevB, 6.0);
  EXPECT_EQ(store.device_count(), 2u);
  EXPECT_TRUE(store.contact_devices().empty());
  EXPECT_TRUE(store.contact_devices({5.0, 6.0}).empty());
  store.record_contact(kAp1, kDevB, 7.0, -50.0);
  EXPECT_EQ(store.contact_devices(), std::vector<net80211::MacAddress>{kDevB});
  EXPECT_TRUE(store.contact_devices({0.0, 6.5}).empty());
}

TEST(ObservationStoreContactIndex, CompactedHistoryStaysCovered) {
  ObservationStoreOptions options;
  options.contact_history_cap = 8;
  const ObservationStore store = random_store(12, 80, options);
  EXPECT_GT(expect_contact_index_covers_gammas(store, 2), 0u);
}

TEST(ObservationStoreContactIndex, PersistenceRoundTripRebuildsSpans) {
  ObservationStoreOptions options;
  options.contact_history_cap = 8;
  const ObservationStore original = random_store(13, 60, options);
  const auto path = std::filesystem::temp_directory_path() / "mm_obs_contact_index.csv";
  SaveOptions save;
  save.fsync = false;
  ASSERT_TRUE(save_observations(original, path, save).ok());
  auto loaded = load_observations(path, options);
  std::filesystem::remove(path);
  ASSERT_TRUE(loaded.ok());
  const ObservationStore& restored = loaded.value().store;
  ASSERT_EQ(restored.device_count(), original.device_count());
  EXPECT_GT(expect_contact_index_covers_gammas(restored, 3), 0u);
}

TEST(ObservationStoreContactIndex, RestoreReplacesASpan) {
  ObservationStore store;
  store.record_contact(kAp1, kDevA, 100.0, -50.0);
  DeviceRecord record = *store.device(kDevA);
  record.contacts.at(kAp1).times = {500.0};
  store.restore_device(record);
  EXPECT_TRUE(store.contact_devices({0.0, 200.0}).empty());
  EXPECT_EQ(store.contact_devices({400.0, 600.0}), std::vector<net80211::MacAddress>{kDevA});
}

TEST(ObservationStoreContactIndex, ClearThenRefillForgetsOldSpans) {
  ObservationStore store = random_store(14, 40);
  const std::vector<net80211::MacAddress> before = store.contact_devices();
  ASSERT_FALSE(before.empty());
  store.clear();
  EXPECT_TRUE(store.contact_devices().empty());
  store.record_contact(kAp1, kDevA, 3.0, -50.0);
  store.record_probe_request(kDevB, 4.0, std::nullopt);
  EXPECT_EQ(store.contact_devices(), std::vector<net80211::MacAddress>{kDevA});
  const ObservationStore refill = random_store(15, 40);
  store = refill;
  EXPECT_GT(expect_contact_index_covers_gammas(store, 4), 0u);
}

TEST(ObservationStoreContactIndex, CopiesAndMovesCarryTheIndex) {
  const ObservationStore original = random_store(16, 50);
  ObservationStore copy = original;
  EXPECT_EQ(copy.contact_devices({100.0, 200.0}), original.contact_devices({100.0, 200.0}));
  // A copy's later contacts widen only its own spans.
  const auto fresh = net80211::MacAddress::from_u64(0x0016f00fffffULL);
  copy.record_contact(kAp1, fresh, 5000.0, -50.0);
  EXPECT_EQ(copy.contact_devices({4000.0, 6000.0}), std::vector<net80211::MacAddress>{fresh});
  EXPECT_TRUE(original.contact_devices({4000.0, 6000.0}).empty());
  EXPECT_GT(expect_contact_index_covers_gammas(copy, 5), 0u);

  ObservationStore moved = std::move(copy);
  EXPECT_EQ(moved.contact_devices({4000.0, 6000.0}), std::vector<net80211::MacAddress>{fresh});
  EXPECT_GT(expect_contact_index_covers_gammas(moved, 6), 0u);
  ObservationStore assigned;
  assigned = std::move(moved);
  EXPECT_GT(expect_contact_index_covers_gammas(assigned, 7), 0u);
}

}  // namespace
}  // namespace mm::capture
