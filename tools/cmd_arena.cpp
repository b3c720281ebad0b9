// mmctl arena — the Chimera attack-vs-defense sweep from the command line.
#include <iostream>
#include <sstream>
#include <string>

#include "commands.h"
#include "marauder/arena.h"
#include "pipeline_report.h"
#include "util/table.h"

namespace mm::tools {

namespace {

std::vector<double> parse_levels(const std::string& csv) {
  std::vector<double> levels;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) levels.push_back(std::stod(item));
  }
  return levels;
}

}  // namespace

int cmd_arena(const util::Flags& flags) {
  const bool smoke = flags.has("smoke");

  marauder::ArenaConfig config;
  config.seed = flags.get_seed(7001);
  config.devices =
      static_cast<std::size_t>(flags.get_int("devices", smoke ? 20 : 48));
  config.num_aps =
      static_cast<std::size_t>(flags.get_int("aps", smoke ? 90 : 120));
  config.duration_s = flags.get_double("duration", smoke ? 420.0 : 600.0);
  if (smoke) config.adoption_levels = {0.0, 0.5, 1.0};
  const std::string adoption_csv = flags.get("adoption", "");
  if (!adoption_csv.empty()) {
    config.adoption_levels = parse_levels(adoption_csv);
    if (config.adoption_levels.empty()) {
      std::cerr << "mmctl arena: --adoption parsed to an empty list\n";
      return 2;
    }
  }

  std::cout << "Chimera arena: " << config.devices << " devices, "
            << config.duration_s << " s capture, defense '"
            << config.defense.name << "' (rotation "
            << config.defense.mac_rotation_interval_s << " s)\n\n";

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

  const std::string out_path = flags.get("out", "");
  if (!out_path.empty() && !write_report_file(out_path, [&](util::JsonWriter& json) {
        marauder::write_arena_json(result, json);
      })) {
    return 1;
  }
  return 0;
}

}  // namespace mm::tools
