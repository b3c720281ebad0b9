// Basilisk: the tile-sharded, mmap-backed WPS query backend (DESIGN.md §13).
//
// wps::Service is the production face of ApDatabase — the same asset Rye &
// Levin's "Surveilling the Masses" paper shows powering real Wi-Fi
// positioning systems: a BSSID -> location service over a city-scale AP
// snapshot, answering lookup / nearest / range traffic from many threads.
//
// The snapshot (wps/format.h) is mapped read-only; open() costs O(tiles):
// it parses the footer index (or forward-scans section headers when the
// tail is torn) and never touches record payloads. Per-tile work is lazy
// and concurrent-read-safe:
//   * first *lookup* touching a tile CRC-verifies its payload (call_once);
//   * first *geometric query* touching a tile additionally builds that
//     tile's geo::SpatialIndex over the mmapped records;
//   * a tile whose CRC disagrees is quarantined — counted, skipped by every
//     later query, never thrown (the Phoenix fallback contract).
//
// Determinism contract: for an undamaged snapshot built from an ApDatabase,
// every query returns bit-identical results to the in-memory database —
//   lookup(b)        == db.find(b)                 (position/radius bits)
//   range(c, r)      == db.aps_in_range(c, r)      (ascending BSSID)
//   nearest_k(c, k)  == db.nearest_aps(c, k)       ((distance, BSSID) order)
// — because positions are the same doubles, membership predicates are the
// same Vec2::distance_to expressions, and cross-tile merges canonicalize
// order by (distance,) BSSID exactly as the Atlas-backed database does.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "geo/geodetic.h"
#include "geo/vec2.h"
#include "marauder/ap_database.h"
#include "net80211/mac_address.h"
#include "util/result.h"
#include "wps/format.h"

namespace mm::wps {

/// One AP as served to a client (SSIDs are not stored in snapshots).
struct WpsAp {
  net80211::MacAddress bssid;
  geo::Vec2 position;
  std::optional<double> radius_m;
};

/// Admission policy for reload() (Aegis hot-swap, DESIGN.md §14). The
/// candidate snapshot is opened *beside* the serving one and must pass every
/// check before the swap; any failure rolls back to the incumbent.
struct ReloadOptions {
  /// Tiles whose payload CRCs are verified up front (deterministically
  /// sampled; all of them when the snapshot has fewer). The sampled tiles
  /// come up pre-verified in the new epoch.
  std::size_t sample_tiles = 16;
  /// Salts the tile sample (combined with the snapshot's tile count).
  std::uint64_t seed = 0xae6e5;
};

/// Open-time + runtime health counters. Everything quarantine-shaped is
/// monotone; the runtime fields are sampled from atomics.
struct ServiceStats {
  std::uint64_t records_total = 0;   ///< records in accepted tile sections
  std::uint64_t tiles_total = 0;     ///< accepted tile sections
  std::uint64_t sections_rejected = 0;  ///< index entries / scanned headers refused at open
  std::uint64_t tail_bytes_quarantined = 0;  ///< unparseable recovery-scan residue
  bool footer_recovered = false;     ///< trailer was damaged; index rebuilt by scan
  bool mac_index_present = false;
  bool mac_index_damaged = false;    ///< CRC failed on first lookup; using tile fallback
  std::uint64_t tiles_quarantined = 0;    ///< payload CRC failures on first touch
  std::uint64_t records_quarantined = 0;  ///< records inside quarantined tiles
  std::uint64_t epoch = 1;             ///< bumps on every successful reload
  std::uint64_t reloads = 0;           ///< successful hot-swaps
  std::uint64_t reloads_rejected = 0;  ///< candidates quarantined at reload
};

class Service {
 public:
  /// Maps the snapshot read-only. Fails only when the file cannot be mapped
  /// or its header is unusable; tail/section damage degrades instead (see
  /// ServiceStats). The Service is movable, not copyable; all queries on a
  /// const Service are safe from any number of threads concurrently.
  [[nodiscard]] static util::Result<Service> open(const std::filesystem::path& path);

  Service(Service&&) noexcept;
  Service& operator=(Service&&) noexcept;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service();

  /// BSSID -> record, O(log n) through the mmapped MAC index (falling back
  /// to per-tile binary search when the index section is absent or
  /// damaged). nullopt when unknown or quarantined.
  [[nodiscard]] std::optional<WpsAp> lookup(const net80211::MacAddress& bssid) const;

  /// APs with position.distance_to(center) <= radius_m, ascending BSSID.
  [[nodiscard]] std::vector<WpsAp> range(geo::Vec2 center, double radius_m) const;

  /// The k nearest APs ordered by (distance, BSSID), expanding tile rings
  /// around the query point exactly as far as the k-th best distance forces.
  [[nodiscard]] std::vector<WpsAp> nearest_k(geo::Vec2 center, std::size_t k) const;

  [[nodiscard]] std::size_t size() const noexcept;  ///< records in accepted tiles
  [[nodiscard]] geo::Geodetic origin() const noexcept;
  [[nodiscard]] double tile_size_m() const noexcept;
  [[nodiscard]] TileKey tile_of(geo::Vec2 p) const noexcept;
  [[nodiscard]] ServiceStats stats() const;

  /// Rebuilds an in-memory ApDatabase from every verifiable tile — the
  /// drop-in Tracker source (bit-identical localization to a Tracker built
  /// on the database the snapshot came from). Quarantined tiles are skipped
  /// and counted in stats().
  [[nodiscard]] marauder::ApDatabase materialize() const;

  // --- Aegis hot-swap (DESIGN.md §14) ---

  /// Atomically replaces the serving snapshot with `path`. The candidate is
  /// opened beside the incumbent and admitted only when it is pristine: no
  /// recovered footer, no rejected sections, no quarantined tail, and every
  /// deterministically sampled tile's payload CRC clean. On success the
  /// epoch bumps and the new snapshot serves every *subsequent* query; on
  /// failure the incumbent keeps serving untouched and reloads_rejected
  /// counts the quarantined candidate. Queries already executing — local or
  /// draining in a RemoteServer batch — hold a shared_ptr pin on their
  /// epoch's mapping, so no query ever observes a torn swap; the old mapping
  /// unmaps when its last pinned query finishes. Concurrent reload() calls
  /// serialize; queries never block.
  [[nodiscard]] util::Result<std::uint64_t> reload(
      const std::filesystem::path& path, const ReloadOptions& options = {});

  /// Eagerly verifies + spatially indexes every tile of the current epoch
  /// (deterministic parallel chunks; parallelism 0 = hardware). Bounds the
  /// lazy first-touch tail: after prewarm, no query pays CRC or index-build
  /// cost. Returns the number of tiles left usable (total - quarantined).
  std::uint64_t prewarm(std::size_t parallelism = 0) const;

  /// Current serving epoch (1 at open, +1 per successful reload).
  [[nodiscard]] std::uint64_t epoch() const noexcept;

 private:
  struct Impl;
  struct State;
  explicit Service(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

}  // namespace mm::wps
