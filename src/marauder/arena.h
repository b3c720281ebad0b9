// Chimera arena: the attack-vs-defense sweep.
//
// One simulated campus population plays both sides of the paper's endgame.
// The defense axis is adoption: what fraction of devices run a
// DefenseProfile (MAC rotation, probe throttling and anonymization,
// TX-power jitter). The attack axis is capability: which evidence signals
// the IdentityResolver is allowed to use (none / SSID fingerprints /
// + sequence continuity / + Gamma adjacency). Every (attacker, adoption)
// cell reports how well the Marauder's Map still works:
//
//   pct_tracked      — fraction of observed devices for which one resolved
//                      identity covers >= tracked_span_fraction of the
//                      device's observed lifetime (using only that device's
//                      own pseudonyms — false merges don't help the score);
//   median_error_m   — median localization error over "pure" track points
//                      (points whose burst MAC truly belongs to the tracked
//                      device, judged against mobility ground truth);
//   longest_track_s  — the single longest correctly-linked device span.
//
// The simulation runs once per adoption level and the capture is reused
// across every attacker column (resolution is a pure function of the
// store). Adopter sets are nested across adoption levels — raising adoption
// only adds adopters — so pct_tracked degrades monotonically by
// construction rather than by sampling luck.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "marauder/identity.h"
#include "marauder/trajectory.h"
#include "sim/population.h"
#include "util/json.h"

namespace mm::marauder {

/// One attacker column: a named capability set.
struct ArenaAttacker {
  std::string name;
  ResolverSignals signals;
};

/// The canonical capability ladder: blind / legacy SSID linker / + sequence
/// continuity / everything.
[[nodiscard]] std::vector<ArenaAttacker> default_arena_attackers();

struct ArenaConfig {
  std::uint64_t seed = 7001;
  std::size_t devices = 48;
  std::size_t num_aps = 120;
  double half_extent_m = 280.0;
  /// Simulated capture length per adoption level.
  double duration_s = 600.0;
  /// The posture adopters run. Defaults to rotation + throttled, fully
  /// anonymized probing + TX jitter — traffic continues across rotations,
  /// which is exactly the regime where the sequence and Gamma signals
  /// out-link the SSID fingerprint.
  sim::DefenseProfile defense;
  std::vector<double> adoption_levels = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<ArenaAttacker> attackers = default_arena_attackers();
  /// Shared resolver thresholds; each attacker only overrides `signals`.
  ResolverOptions resolver;
  TrajectoryOptions trajectory;
  /// A device counts as tracked when one identity covers at least this
  /// fraction of its observed span.
  double tracked_span_fraction = 0.7;

  ArenaConfig();
};

/// One (attacker, adoption) cell of the sweep.
struct ArenaCell {
  std::string attacker;
  double adoption = 0.0;
  std::size_t devices_observed = 0;  ///< true devices with >= 1 pseudonym captured
  std::size_t pseudonyms_seen = 0;   ///< MACs in the store
  std::size_t identities = 0;        ///< resolved identity count
  std::size_t linked_pairs = 0;      ///< evidence-graph pairs that cleared threshold
  std::size_t devices_tracked = 0;
  double pct_tracked = 0.0;
  double median_error_m = 0.0;    ///< over pure track points (0 when none)
  double longest_track_s = 0.0;   ///< best correctly-linked span
  std::size_t pure_points = 0;
  std::size_t impure_points = 0;  ///< points sitting on a false merge
};

struct ArenaResult {
  std::uint64_t seed = 0;
  std::size_t devices = 0;
  std::string defense;
  /// Adoption-major, attacker-minor (the order cells were produced).
  std::vector<ArenaCell> cells;

  /// Cells of one attacker column, in ascending adoption order.
  [[nodiscard]] std::vector<const ArenaCell*> column(const std::string& attacker) const;
};

/// Runs the full sweep. Deterministic in config (one world per adoption
/// level, seeded from config.seed; every attacker shares that capture).
[[nodiscard]] ArenaResult run_arena(const ArenaConfig& config);

/// BENCH_arena.json layout shared by bench_arena and `mmctl arena`.
void write_arena_json(const ArenaResult& result, util::JsonWriter& json);

}  // namespace mm::marauder
