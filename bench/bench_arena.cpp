// Chimera arena sweep: attacker capability × defense adoption.
//
// Usage: bench_arena [--smoke] [--seed S] [--devices N] [--duration S]
//                    [--out BENCH_arena.json]
//
// One simulated campus population per adoption level (0% .. 100% of devices
// running the rotate+throttle+anonymize posture), each capture attacked by
// the full capability ladder (none / ssid / ssid+seq / full). Cells report
// %-tracked, median localization error over ground-truth-pure track points,
// and the longest correctly-linked track. Two shapes are load-bearing and
// fail the bench (exit 1) when violated:
//
//   * monotone defense value: within every attacker column, %-tracked never
//     *increases* with adoption (adopter sets are nested by construction);
//   * capability gradient: at full adoption, each added signal tracks at
//     least as much as the previous (none <= ssid <= ssid+seq <= full), and
//     the sequence/Gamma signals recover strictly more than SSID-only —
//     the paper's implicit-identifier argument, measured.
#include <iostream>
#include <string>
#include <vector>

#include "marauder/arena.h"
#include "util/flags.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace mm;
  const util::Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");

  marauder::ArenaConfig config;
  config.seed = flags.get_seed(7001);
  config.devices = static_cast<std::size_t>(
      flags.get_int("devices", smoke ? 20 : 48));
  config.duration_s = flags.get_double("duration", smoke ? 420.0 : 600.0);
  config.num_aps = static_cast<std::size_t>(flags.get_int("aps", smoke ? 90 : 120));
  if (smoke) config.adoption_levels = {0.0, 0.5, 1.0};
  const std::string out_path = flags.get("out", "BENCH_arena.json");

  std::cout << "Chimera arena (" << (smoke ? "smoke" : "full") << "): "
            << config.devices << " devices, " << config.duration_s
            << " s capture, defense '" << config.defense.name << "'\n\n";

  const marauder::ArenaResult result = marauder::run_arena(config);

  util::Table table({"attacker", "adoption", "pseudonyms", "identities",
                     "%-tracked", "median err (m)", "longest track (s)"});
  for (const marauder::ArenaCell& cell : result.cells) {
    table.add_row({cell.attacker, util::Table::fmt(cell.adoption, 2),
                   std::to_string(cell.pseudonyms_seen),
                   std::to_string(cell.identities),
                   util::Table::fmt(cell.pct_tracked, 1),
                   util::Table::fmt(cell.median_error_m, 1),
                   util::Table::fmt(cell.longest_track_s, 0)});
  }
  table.print(std::cout);

  if (!util::write_json_file(out_path, [&](util::JsonWriter& json) {
        marauder::write_arena_json(result, json);
      })) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";

  // Shape 1: %-tracked never increases with adoption within a column.
  bool monotone = true;
  for (const marauder::ArenaAttacker& attacker : config.attackers) {
    const auto column = result.column(attacker.name);
    for (std::size_t i = 1; i < column.size(); ++i) {
      // Small slack: the capture itself re-randomizes per level.
      if (column[i]->pct_tracked > column[i - 1]->pct_tracked + 5.0) {
        monotone = false;
        std::cerr << "monotonicity violated: " << attacker.name << " tracked "
                  << column[i]->pct_tracked << "% at adoption "
                  << column[i]->adoption << " > " << column[i - 1]->pct_tracked
                  << "% at " << column[i - 1]->adoption << "\n";
      }
    }
  }
  std::cout << "shape: defense monotonicity "
            << (monotone ? "HOLDS" : "VIOLATED") << "\n";

  // Shape 2: capability ladder at full adoption.
  bool ladder = true;
  const double last_adoption = config.adoption_levels.back();
  std::vector<double> tracked_at_full;
  for (const marauder::ArenaAttacker& attacker : config.attackers) {
    for (const marauder::ArenaCell* cell : result.column(attacker.name)) {
      if (cell->adoption == last_adoption) tracked_at_full.push_back(cell->pct_tracked);
    }
  }
  for (std::size_t i = 1; i < tracked_at_full.size(); ++i) {
    if (tracked_at_full[i] + 5.0 < tracked_at_full[i - 1]) ladder = false;
  }
  // The acceptance claim: seq/Gamma re-link what SSID fingerprints miss.
  const bool signals_help = tracked_at_full.size() >= 4 &&
                            tracked_at_full.back() > tracked_at_full[1] + 10.0;
  std::cout << "shape: capability ladder " << (ladder ? "HOLDS" : "VIOLATED")
            << "\n"
            << "shape: seq/Gamma out-link SSID at full adoption "
            << (signals_help ? "HOLDS" : "VIOLATED") << " (";
  for (std::size_t i = 0; i < tracked_at_full.size(); ++i) {
    std::cout << (i == 0 ? "" : " -> ") << tracked_at_full[i] << "%";
  }
  std::cout << ")\n";

  return (monotone && ladder && signals_help) ? 0 : 1;
}
