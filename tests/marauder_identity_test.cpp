// Chimera IdentityResolver: the two-level pseudonym -> identity model.
//
// Covers the refactor's acceptance contract: the null point (no signals =
// one singleton per MAC, the pre-Chimera behaviour), the legacy SSID
// linker's cases under default options, thread-count independence of
// resolution, the sequence/Gamma signals re-linking rotations the SSID
// fingerprint misses, and the adversarial cases — coincident fingerprints, rotation inside a
// silent gap, counter wraparound at 4096, ambiguous seams.
#include "marauder/identity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace mm::marauder {
namespace {

net80211::MacAddress mac(int i) {
  std::array<std::uint8_t, 6> bytes{0x02, 0x00, 0x00, 0x00,
                                    static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xFF)};
  return net80211::MacAddress(bytes);
}

void probe(capture::ObservationStore& store, int device, double t,
           std::initializer_list<const char*> ssids) {
  store.record_probe_request(mac(device), t, std::nullopt);
  for (const char* ssid : ssids) {
    store.record_probe_request(mac(device), t, std::string(ssid));
  }
}

/// One sequence-bearing frame: presence + counter sample at `t`.
void seq_frame(capture::ObservationStore& store, int device, double t,
               std::uint16_t seq) {
  store.record_probe_request(mac(device), t, std::nullopt);
  store.record_device_seq(mac(device), t, seq);
}

ResolverOptions seq_only() {
  ResolverOptions options;
  options.signals = {false, true, false};
  return options;
}

// --- null point -------------------------------------------------------

TEST(IdentityResolver, NoSignalsYieldsOneSingletonPerMac) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"shared-net"});
  probe(store, 1, 2.0, {"shared-net"});
  seq_frame(store, 2, 3.0, 100);
  seq_frame(store, 3, 3.5, 101);

  ResolverOptions options;
  options.signals = ResolverSignals::none();
  const IdentityMap map = resolve_identities(store, options);
  EXPECT_EQ(map.size(), store.device_count());
  for (const ResolvedIdentity& identity : map.identities) {
    EXPECT_EQ(identity.macs.size(), 1u);
    EXPECT_FALSE(identity.pseudonymous());
  }
  for (const auto& m : store.devices()) {
    ASSERT_NE(map.identity_of(m), nullptr);
    EXPECT_EQ(map.identity_of(m)->macs[0], m);
  }
}

// --- SSID-fingerprint linking (default options) -----------------------

TEST(IdentityResolver, SsidOnlyMatchesLegacyLinkerExactly) {
  // The groups the legacy SSID linker produced on this capture, pinned:
  // transitive linking through a shared SSID, a crowd SSID (6 devices > the
  // popularity floor of 3) dropped from every fingerprint, loners kept.
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"net-a"});
  probe(store, 1, 2.0, {"net-a", "net-b"});
  probe(store, 2, 3.0, {"net-b"});
  probe(store, 3, 4.0, {"solo-net"});
  probe(store, 4, 5.0, {});
  for (int i = 10; i < 16; ++i) probe(store, i, 6.0, {"crowded-net"});

  ResolverOptions options;  // defaults == legacy linker defaults
  const IdentityMap map = resolve_identities(store, options);

  ASSERT_EQ(map.size(), 9u);
  EXPECT_EQ(map.identities[0].macs, (std::vector{mac(0), mac(1), mac(2)}));
  EXPECT_EQ(map.identities[0].fingerprint, (std::set<std::string>{"net-a", "net-b"}));
  EXPECT_EQ(map.identities[1].macs, std::vector{mac(3)});
  EXPECT_EQ(map.identities[1].fingerprint, std::set<std::string>{"solo-net"});
  EXPECT_EQ(map.identities[2].macs, std::vector{mac(4)});
  for (std::size_t i = 2; i < map.size(); ++i) {
    if (i > 2) {
      EXPECT_EQ(map.identities[i].macs, std::vector{mac(static_cast<int>(i) + 7)});
    }
    EXPECT_TRUE(map.identities[i].fingerprint.empty()) << "group " << i;
  }
}

TEST(Linker, EmptyStoreNoIdentities) {
  const capture::ObservationStore store;
  EXPECT_TRUE(resolve_identities(store).identities.empty());
}

TEST(Linker, SingletonWithoutFingerprint) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {});
  const auto identities = resolve_identities(store).identities;
  ASSERT_EQ(identities.size(), 1u);
  EXPECT_EQ(identities[0].macs.size(), 1u);
  EXPECT_FALSE(identities[0].pseudonymous());
  EXPECT_TRUE(identities[0].fingerprint.empty());
}

TEST(Linker, SharedSsidLinksTwoMacs) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"home-wifi-2819"});
  probe(store, 1, 60.0, {"home-wifi-2819"});
  const auto identities = resolve_identities(store).identities;
  ASSERT_EQ(identities.size(), 1u);
  EXPECT_TRUE(identities[0].pseudonymous());
  ASSERT_EQ(identities[0].macs.size(), 2u);
  // First-seen order: mac(0) before mac(1).
  EXPECT_EQ(identities[0].macs[0], mac(0));
  EXPECT_EQ(identities[0].macs[1], mac(1));
  EXPECT_EQ(identities[0].fingerprint.count("home-wifi-2819"), 1u);
}

TEST(Linker, DistinctFingerprintsStaySeparate) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"alices-net"});
  probe(store, 1, 2.0, {"bobs-net"});
  EXPECT_EQ(resolve_identities(store).size(), 2u);
}

TEST(Linker, TransitiveLinking) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"net-a"});
  probe(store, 1, 2.0, {"net-a", "net-b"});
  probe(store, 2, 3.0, {"net-b"});
  const auto identities = resolve_identities(store).identities;
  ASSERT_EQ(identities.size(), 1u);
  EXPECT_EQ(identities[0].macs.size(), 3u);
  EXPECT_EQ(identities[0].fingerprint.size(), 2u);
}

TEST(Linker, PopularSsidDoesNotLink) {
  capture::ObservationStore store;
  // Five unrelated devices probing for the same campus network.
  for (int i = 0; i < 5; ++i) probe(store, i, static_cast<double>(i), {"eduroam"});
  ResolverOptions options;
  options.max_ssid_popularity = 3;
  const auto identities = resolve_identities(store, options).identities;
  EXPECT_EQ(identities.size(), 5u);  // nobody merged
}

TEST(Linker, MinOverlapTwoRequiresTwoSharedSsids) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"net-a", "net-b"});
  probe(store, 1, 2.0, {"net-a"});              // only one shared
  probe(store, 2, 3.0, {"net-a", "net-b"});     // both shared
  ResolverOptions options;
  options.min_overlap = 2;
  const auto identities = resolve_identities(store, options).identities;
  EXPECT_EQ(identities.size(), 2u);
  const auto linked = std::find_if(identities.begin(), identities.end(),
                                   [](const ResolvedIdentity& id) { return id.macs.size() == 2; });
  ASSERT_NE(linked, identities.end());
  EXPECT_EQ(linked->macs[0], mac(0));
  EXPECT_EQ(linked->macs[1], mac(2));
}

TEST(Linker, DevicesSeenOnlyViaContactsAreSingletons) {
  capture::ObservationStore store;
  store.record_contact(mac(10), mac(0), 1.0, -70.0);  // device 0 never probed
  const auto identities = resolve_identities(store).identities;
  ASSERT_EQ(identities.size(), 1u);
  EXPECT_EQ(identities[0].macs[0], mac(0));
}

TEST(Linker, EveryMacAppearsExactlyOnce) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"x"});
  probe(store, 1, 2.0, {"x"});
  probe(store, 2, 3.0, {"y"});
  probe(store, 3, 4.0, {});
  const auto identities = resolve_identities(store).identities;
  std::size_t total = 0;
  std::set<net80211::MacAddress> seen;
  for (const auto& identity : identities) {
    for (const auto& m : identity.macs) {
      ++total;
      seen.insert(m);
    }
  }
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(seen.size(), 4u);
}

// --- thread-count independence ----------------------------------------

TEST(IdentityResolver, ResolutionIsBitIdenticalAcrossThreadCounts) {
  // A population large enough to split into several chunks: rotation chains
  // (shared rare SSIDs + continuing counters), a popular SSID, loners.
  capture::ObservationStore store;
  for (int d = 0; d < 40; ++d) {
    const double base = 10.0 * d;
    const std::string home = "home-" + std::to_string(d);
    probe(store, 3 * d, base, {home.c_str(), "campus-net"});
    seq_frame(store, 3 * d, base + 1.0, static_cast<std::uint16_t>((37 * d) & 0x0FFF));
    probe(store, 3 * d + 1, base + 5.0, {home.c_str()});
    seq_frame(store, 3 * d + 1, base + 5.5,
              static_cast<std::uint16_t>((37 * d + 3) & 0x0FFF));
    probe(store, 3 * d + 2, base + 9.0, {});
  }

  ResolverOptions options;
  options.signals = ResolverSignals::all();
  IdentityMap reference;
  bool have_reference = false;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    options.threads = threads;
    const IdentityMap map = resolve_identities(store, options);
    if (!have_reference) {
      reference = map;
      have_reference = true;
      continue;
    }
    SCOPED_TRACE("threads " + std::to_string(threads));
    ASSERT_EQ(map.size(), reference.size());
    for (std::size_t i = 0; i < map.size(); ++i) {
      EXPECT_EQ(map.identities[i].id, reference.identities[i].id);
      EXPECT_EQ(map.identities[i].macs, reference.identities[i].macs);
      EXPECT_EQ(map.identities[i].fingerprint, reference.identities[i].fingerprint);
      EXPECT_EQ(map.identities[i].first_seen, reference.identities[i].first_seen);
      EXPECT_EQ(map.identities[i].last_seen, reference.identities[i].last_seen);
    }
    EXPECT_EQ(map.by_mac, reference.by_mac);
  }
}

// --- sequence continuity ----------------------------------------------

TEST(IdentityResolver, SequenceContinuityRelinksWhatSsidMisses) {
  // A rotation with fully anonymized probing: no directed SSIDs at all, so
  // the legacy signal has nothing — but the counter keeps counting.
  capture::ObservationStore store;
  seq_frame(store, 0, 10.0, 500);
  seq_frame(store, 0, 40.0, 520);
  seq_frame(store, 1, 55.0, 523);  // fresh MAC, 15 s later, counter +3

  ResolverOptions ssid_options;  // defaults: SSID only
  EXPECT_EQ(resolve_identities(store, ssid_options).size(), 2u);

  const IdentityMap map = resolve_identities(store, seq_only());
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.identities[0].macs,
            std::vector<net80211::MacAddress>({mac(0), mac(1)}));
}

TEST(IdentityResolver, RotationInsideSilentGapIsNotLinkable) {
  // Same seam, but the device went silent past seq_max_gap_s before
  // resurfacing: the signal must (correctly) fail to claim it.
  capture::ObservationStore store;
  seq_frame(store, 0, 10.0, 500);
  seq_frame(store, 0, 40.0, 520);
  ResolverOptions options = seq_only();
  options.seq_max_gap_s = 30.0;
  seq_frame(store, 1, 40.0 + options.seq_max_gap_s + 5.0, 523);
  EXPECT_EQ(resolve_identities(store, options).size(), 2u);
}

TEST(IdentityResolver, SequenceWraparoundAt4096Links) {
  // last_seq 4090 -> first_seq 5 is a forward hop of 11 mod 4096.
  capture::ObservationStore store;
  seq_frame(store, 0, 10.0, 4090);
  seq_frame(store, 1, 20.0, 5);
  const IdentityMap map = resolve_identities(store, seq_only());
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.identities[0].macs.size(), 2u);
}

TEST(IdentityResolver, CoexistingPseudonymsNeverSeamLink) {
  // Perfect counter continuation, but the "fresh" MAC was already alive
  // before the old one vanished — two radios, not a rotation.
  capture::ObservationStore store;
  seq_frame(store, 0, 10.0, 100);
  seq_frame(store, 0, 50.0, 140);
  store.record_presence(mac(1), 30.0);  // alive before mac(0) vanished
  seq_frame(store, 1, 55.0, 141);       // counter-adjacent, inside the window
  EXPECT_EQ(resolve_identities(store, seq_only()).size(), 2u);
}

TEST(IdentityResolver, SeamsAreMutualBestNotEveryCandidate) {
  // Two coexisting pseudonyms die, one is born: both deltas are admissible,
  // but only the closer counter (mac(1), delta 1) may claim the newborn.
  // Without mutual-best matching all three would chain into one identity.
  capture::ObservationStore store;
  seq_frame(store, 0, 5.0, 80);
  seq_frame(store, 0, 10.0, 90);   // delta to newborn: 12
  seq_frame(store, 1, 6.0, 95);    // coexists with mac(0): no seam between them
  seq_frame(store, 1, 12.0, 101);  // delta to newborn: 1
  seq_frame(store, 2, 20.0, 102);  // the newborn
  const IdentityMap map = resolve_identities(store, seq_only());
  ASSERT_EQ(map.size(), 2u);
  const ResolvedIdentity* winner = map.identity_of(mac(2));
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->macs, std::vector<net80211::MacAddress>({mac(1), mac(2)}));
  EXPECT_EQ(map.identity_of(mac(0))->macs.size(), 1u);
}

// --- Gamma similarity + temporal adjacency ----------------------------

TEST(IdentityResolver, GammaAdjacencyRelinksAnonymousRotation) {
  // No SSIDs, no usable counters — but the fresh MAC appears seconds later
  // hearing the same three APs the vanished one heard at death.
  capture::ObservationStore store;
  for (int ap = 100; ap < 103; ++ap) {
    store.record_contact(mac(ap), mac(0), 95.0, -60.0);
    store.record_contact(mac(ap), mac(1), 110.0, -61.0);
  }
  store.record_presence(mac(0), 100.0);
  store.record_presence(mac(1), 105.0);

  ResolverOptions options;
  options.signals = {false, false, true};
  const IdentityMap map = resolve_identities(store, options);
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.identities[0].macs,
            std::vector<net80211::MacAddress>({mac(0), mac(1)}));
}

TEST(IdentityResolver, GammaRequiresEnoughCommonAps) {
  // One shared AP with a perfect Jaccard is coincidence, not evidence.
  capture::ObservationStore store;
  store.record_contact(mac(100), mac(0), 95.0, -60.0);
  store.record_contact(mac(100), mac(1), 110.0, -61.0);
  ResolverOptions options;
  options.signals = {false, false, true};
  options.gamma_min_common = 2;
  EXPECT_EQ(resolve_identities(store, options).size(), 2u);
}

// --- coincident fingerprints / popularity ------------------------------

TEST(IdentityResolver, CoincidentPopularFingerprintsStayUnmerged) {
  // Five strangers probing the same campus SSID at the same instant, with
  // every signal armed: nothing real links them.
  capture::ObservationStore store;
  for (int i = 0; i < 5; ++i) probe(store, i, 10.0, {"eduroam"});
  ResolverOptions options;
  options.signals = ResolverSignals::all();
  EXPECT_EQ(resolve_identities(store, options).size(), 5u);
}

TEST(IdentityResolver, FractionPopularityCutoffScalesToTenThousandDevices) {
  // The regression the fraction fix exists for: at 10k devices, a
  // campus-wide "eduroam" (popularity 10 000) must not link strangers even
  // though the legacy absolute cutoff alone would need hand-tuning; a rare
  // home SSID shared by one rotation pair must still link.
  capture::ObservationStore store;
  const int population = 10000;
  for (int i = 0; i < population; ++i) {
    probe(store, i, static_cast<double>(i) * 0.01, {"eduroam"});
  }
  probe(store, population, 200.0, {"eduroam", "home-rare-77"});
  probe(store, population + 1, 260.0, {"eduroam", "home-rare-77"});

  ResolverOptions options;  // fraction default 0.01 -> cutoff ~101 of 10 002
  const IdentityMap map = resolve_identities(store, options);
  EXPECT_EQ(map.size(), static_cast<std::size_t>(population) + 1u);
  const ResolvedIdentity* pair = map.identity_of(mac(population));
  ASSERT_NE(pair, nullptr);
  ASSERT_EQ(pair->macs.size(), 2u);
  EXPECT_EQ(pair->fingerprint.count("home-rare-77"), 1u);
  EXPECT_EQ(pair->fingerprint.count("eduroam"), 0u);
}

TEST(IdentityResolver, AbsoluteCutoffRemainsTheFloorOnSmallCaptures) {
  // ceil(0.01 * 6) = 1 would kill a two-device home SSID; the absolute
  // floor (3) must win on captures this small, exactly as the legacy
  // linker behaved.
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"home-net"});
  probe(store, 1, 2.0, {"home-net"});
  for (int i = 2; i < 6; ++i) probe(store, i, 3.0, {});
  const IdentityMap map = resolve_identities(store, ResolverOptions{});
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(map.identity_of(mac(0)), map.identity_of(mac(1)));
}

// --- incremental ingestion ---------------------------------------------

TEST(IdentityResolver, ResolutionIsIndependentOfUpsertOrder) {
  capture::ObservationStore store;
  probe(store, 0, 1.0, {"net-a"});
  probe(store, 1, 2.0, {"net-a"});
  seq_frame(store, 2, 10.0, 700);
  seq_frame(store, 3, 20.0, 703);

  ResolverOptions options;
  options.signals = ResolverSignals::all();

  IdentityResolver forward(options);
  forward.ingest_store(store);

  IdentityResolver reversed(options);
  const auto macs = store.devices();
  for (auto it = macs.rbegin(); it != macs.rend(); ++it) {
    reversed.upsert(summarize_device(*store.device(*it)));
  }

  const IdentityMap a = forward.resolve();
  const IdentityMap b = reversed.resolve();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.identities[i].macs, b.identities[i].macs);
    EXPECT_EQ(a.identities[i].fingerprint, b.identities[i].fingerprint);
  }
  EXPECT_EQ(a.by_mac, b.by_mac);
}

TEST(IdentityResolver, UpsertReplacesExistingSummary) {
  IdentityResolver resolver(ResolverOptions{});
  DeviceSummary s;
  s.mac = mac(0);
  s.first_seen = 1.0;
  s.last_seen = 2.0;
  s.directed_ssids = {"old-net"};
  resolver.upsert(s);
  s.directed_ssids = {"new-net"};
  s.last_seen = 9.0;
  resolver.upsert(s);
  EXPECT_EQ(resolver.device_count(), 1u);
  const IdentityMap map = resolver.resolve();
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.identities[0].fingerprint.count("new-net"), 1u);
  EXPECT_EQ(map.identities[0].fingerprint.count("old-net"), 0u);
  EXPECT_EQ(map.identities[0].last_seen, 9.0);
}

}  // namespace
}  // namespace mm::marauder
