// The sniffer's knowledge base: per-device probing evidence and the set of
// APs observed communicating with each device (the Gamma sets consumed by
// M-Loc / AP-Rad / AP-Loc), plus AP beacon sightings (channel distribution,
// SSID inventory).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net80211/mac_address.h"
#include "sim/event_queue.h"

namespace mm::capture {

struct ObservationWindow {
  sim::SimTime begin = 0.0;
  sim::SimTime end = 1e300;

  [[nodiscard]] bool contains(sim::SimTime t) const noexcept {
    return t >= begin && t <= end;
  }
};

/// Evidence that one AP communicated with one device.
struct ApContact {
  sim::SimTime first_seen = 0.0;
  sim::SimTime last_seen = 0.0;
  std::uint64_t count = 0;
  double last_rssi_dbm = -200.0;
  /// Observation instants. Bounded by the store's contact_history_cap unless
  /// unbounded_contact_history is set: once the cap is reached the oldest
  /// instants are compacted away (first_seen/last_seen/count always remain
  /// exact), so a long-running stream holds bounded memory per device while
  /// recent-window queries stay exact.
  std::vector<sim::SimTime> times;
};

struct DeviceRecord {
  net80211::MacAddress mac;
  sim::SimTime first_seen = 0.0;
  sim::SimTime last_seen = 0.0;
  std::uint64_t probe_requests = 0;
  std::vector<std::string> directed_ssids;  ///< implicit identifiers leaked
  std::map<net80211::MacAddress, ApContact> contacts;
  /// 802.11 sequence-number trace from device-transmitted frames. The 12-bit
  /// counter is an implicit identifier in its own right: it keeps counting
  /// across a MAC rotation, so the first sequence a fresh pseudonym shows
  /// (relative to the last sequence a vanished one showed) is linking
  /// evidence for Chimera's IdentityResolver. seq_frames == 0 means the
  /// device was never caught transmitting a sequence-bearing frame.
  std::uint64_t seq_frames = 0;
  std::uint16_t first_seq = 0;          ///< 0..4095
  std::uint16_t last_seq = 0;           ///< 0..4095
  sim::SimTime first_seq_time = 0.0;
  sim::SimTime last_seq_time = 0.0;

  [[nodiscard]] bool has_seq() const noexcept { return seq_frames > 0; }
};

struct ApSighting {
  net80211::MacAddress bssid;
  std::string ssid;
  int channel = 0;
  std::uint64_t beacons = 0;
  double last_rssi_dbm = -200.0;
};

struct ObservationStoreOptions {
  /// Per-contact cap on retained observation instants. When exceeded, the
  /// oldest quarter of the instants is dropped (amortized O(1) per frame).
  /// ObservationWindow queries remain exact over the retained suffix; the
  /// aggregate fields (first_seen/last_seen/count) are always exact.
  std::size_t contact_history_cap = 4096;
  /// Opt-in: retain every observation instant (the pre-streaming behaviour;
  /// memory grows without bound on a long capture).
  bool unbounded_contact_history = false;
};

class ObservationStore {
 public:
  ObservationStore() = default;
  explicit ObservationStore(ObservationStoreOptions options) : options_(options) {}

  void record_probe_request(const net80211::MacAddress& device, sim::SimTime time,
                            const std::optional<std::string>& directed_ssid);
  /// Marks a device as seen (association/data traffic) without counting a
  /// probe — the "found but not probing" class of Fig 10/11.
  void record_presence(const net80211::MacAddress& device, sim::SimTime time);
  void record_contact(const net80211::MacAddress& ap, const net80211::MacAddress& device,
                      sim::SimTime time, double rssi_dbm);
  void record_beacon(const net80211::MacAddress& bssid, const std::string& ssid,
                     int channel, sim::SimTime time, double rssi_dbm);
  /// Notes the 12-bit 802.11 sequence number of one device-transmitted frame
  /// (see DeviceRecord's seq trace). Called by apply_event alongside the
  /// per-kind record above, so batch and live ingestion stay identical.
  void record_device_seq(const net80211::MacAddress& device, sim::SimTime time,
                         std::uint16_t seq);

  [[nodiscard]] const ObservationStoreOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t device_count() const noexcept { return devices_.size(); }
  /// Device MACs in ascending order (the index is unordered internally; the
  /// sorted view keeps exports, tables, and locate_all deterministic).
  [[nodiscard]] std::vector<net80211::MacAddress> devices() const;
  [[nodiscard]] const DeviceRecord* device(const net80211::MacAddress& mac) const;

  /// Ascending MACs of the devices whose recorded contact instants span an
  /// interval that meets the window: every device whose Gamma in the window
  /// is non-empty, plus possibly a few whose contacts straddle it. One
  /// sequential scan of a dense per-device span array, then a sort of the
  /// hits only, so a windowed query over a long capture costs the window's
  /// crowd, not every pseudonym the store has ever seen. Devices that never
  /// had a contact are never listed.
  [[nodiscard]] std::vector<net80211::MacAddress> contact_devices(
      const ObservationWindow& window = {}) const;

  /// Gamma: APs observed communicating with the device inside the window.
  [[nodiscard]] std::set<net80211::MacAddress> gamma(
      const net80211::MacAddress& device, const ObservationWindow& window = {}) const;

  /// Gamma as a sorted vector — the same members in the same ascending order
  /// as gamma(), without the per-member red-black-tree node allocations (the
  /// contact map is already ordered, so this is one linear pass). The locate
  /// hot paths consume this; gamma() remains for set-algebra callers.
  [[nodiscard]] std::vector<net80211::MacAddress> gamma_sorted(
      const net80211::MacAddress& device, const ObservationWindow& window = {}) const;

  /// Appends the device's Gamma (same members and order as gamma_sorted) to
  /// `out` without clearing it. Slipstream's locate arena builds every
  /// device's Gamma through one reused buffer, so the per-device vector
  /// allocation of gamma_sorted disappears from the hot path.
  void gamma_append(const net80211::MacAddress& device, const ObservationWindow& window,
                    std::vector<net80211::MacAddress>& out) const;

  /// Gamma sets of all devices with contacts in the window (input to
  /// AP-Rad's co-observation constraints).
  [[nodiscard]] std::vector<std::set<net80211::MacAddress>> all_gammas(
      const ObservationWindow& window = {}) const;

  /// Session-split Gamma sets: each device's contact timeline is partitioned
  /// wherever consecutive observations are more than `session_gap_s` apart,
  /// and each session yields its own Gamma. This is the right co-observation
  /// evidence for AP-Rad — the paper's r_i + r_j >= d_ij constraint assumes
  /// the two APs were seen by the mobile "within a short period of time";
  /// treating a whole walk as one Gamma would co-observe APs hundreds of
  /// meters apart and poison (or render infeasible) the LP.
  [[nodiscard]] std::vector<std::set<net80211::MacAddress>> session_gammas(
      double session_gap_s, const ObservationWindow& window = {}) const;

  /// Devices that sent at least one probe request (the Fig 10/11 statistic).
  [[nodiscard]] std::size_t probing_device_count() const;

  [[nodiscard]] const std::map<net80211::MacAddress, ApSighting>& ap_sightings() const {
    return sightings_;
  }

  void clear();

  /// Wholesale state restoration (used by the persistence layer; see
  /// capture/persistence.h). Replaces any existing record with the same key.
  void restore_device(DeviceRecord record);
  void restore_sighting(ApSighting sighting);

 private:
  /// A device's record and the index of its slot in spans_. The slot sits
  /// first, on the cache line the key lookup has already loaded.
  struct Entry {
    std::uint32_t slot = 0;
    DeviceRecord record;
  };
  /// Min and max of every contact instant recorded for one device (empty,
  /// lo > hi, until its first contact). Slots are appended when a device is
  /// first seen and never move: devices are never erased, and clear()
  /// empties the whole index.
  struct ContactSpan {
    net80211::MacAddress mac;
    sim::SimTime lo = std::numeric_limits<sim::SimTime>::infinity();
    sim::SimTime hi = -std::numeric_limits<sim::SimTime>::infinity();

    void widen(sim::SimTime t) noexcept {
      if (t < lo) lo = t;
      if (t > hi) hi = t;
    }
  };

  Entry& touch_device(const net80211::MacAddress& mac, sim::SimTime time);
  void cap_contact_history(ApContact& contact) const;

  ObservationStoreOptions options_;
  std::unordered_map<net80211::MacAddress, Entry, net80211::MacHasher> devices_;
  std::vector<ContactSpan> spans_;
  std::map<net80211::MacAddress, ApSighting> sightings_;
};

}  // namespace mm::capture
