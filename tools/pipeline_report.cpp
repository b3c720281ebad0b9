#include "pipeline_report.h"

#include <algorithm>
#include <iostream>

#include "util/table.h"

namespace mm::tools {

std::optional<marauder::ApDatabase> load_apdb(const util::Flags& flags,
                                              const std::string& who,
                                              const geo::EnuFrame& frame) {
  marauder::CsvImportStats stats;
  auto db = marauder::ApDatabase::from_csv(flags.get("apdb", ""), frame, &stats);
  if (!db.ok()) {
    std::cerr << who << ": --apdb: " << db.error() << "\n";
    return std::nullopt;
  }
  if (stats.quarantined > 0) {
    std::cerr << "apdb: quarantined " << stats.quarantined << "/" << stats.rows_total
              << " malformed rows\n";
  }
  return std::move(db).value();
}

int tracker_config_from_flags(const util::Flags& flags, const std::string& who,
                              pipeline::LiveTrackerConfig& config) {
  config.shards = static_cast<std::size_t>(flags.get_int("shards", 4));
  config.ring_capacity =
      static_cast<std::size_t>(flags.get_int("ring-capacity", 1 << 14));
  config.default_radius_m = flags.get_double("default-radius", 100.0);
  config.mloc.reject_outliers = flags.has("reject-outliers");
  const std::string policy = flags.get("drop-policy", "drop");
  if (policy == "drop") {
    config.drop_policy = pipeline::DropPolicy::kDropNewest;
  } else if (policy == "block") {
    config.drop_policy = pipeline::DropPolicy::kBlock;
  } else {
    std::cerr << who << ": unknown --drop-policy '" << policy << "' (drop|block)\n";
    return 2;
  }

  // Phoenix durability: a WAL directory turns on per-shard logging; the
  // checkpoint cadence is the recovery-window dial; --recover replays
  // whatever a previous (possibly crashed) run left there.
  const std::string wal_dir = flags.get("wal-dir", "");
  if (!wal_dir.empty()) {
    config.durability.dir = wal_dir;
    config.durability.checkpoint_interval_s = flags.get_double("checkpoint-secs", 30.0);
    config.durability.wal.fsync_on_commit = !flags.has("no-fsync");
  }
  if (flags.has("recover") && wal_dir.empty()) {
    std::cerr << who << ": --recover requires --wal-dir\n";
    return 2;
  }
  return 0;
}

bool recover_tracker(pipeline::LiveTracker& tracker, const std::string& who) {
  auto recovered = tracker.recover();
  if (!recovered.ok()) {
    std::cerr << who << ": --recover: " << recovered.error() << "\n";
    return false;
  }
  const pipeline::RecoveryStats& r = recovered.value();
  std::cout << "recovered " << r.checkpoints_loaded << " checkpoints, "
            << r.wal_records_replayed << " WAL records replayed ("
            << r.wal_records_skipped << " skipped, " << r.wal_torn_tails
            << " torn tails), " << r.devices_restored << " devices, "
            << r.positions_republished << " positions republished\n";
  return true;
}

void write_pipeline_json(util::JsonWriter& json, const pipeline::PipelineStats& stats) {
  json.field("elapsed_s", stats.elapsed_s)
      .field("total_frames", stats.total_frames)
      .field("total_dropped", stats.total_dropped)
      .field("frames_per_sec", stats.frames_per_sec)
      .field("directory_size", stats.directory_size)
      .field("directory_overflows", stats.directory_overflows);
  json.begin_object("durability")
      .field("enabled", stats.durability_enabled)
      .field("wal_records", stats.total_wal_records)
      .field("checkpoints", stats.total_checkpoints)
      .end_object();
}

void write_shards_json(util::JsonWriter& json, const pipeline::PipelineStats& stats) {
  json.begin_array("shards");
  for (const pipeline::ShardStats& s : stats.shards) {
    json.begin_object()
        .field("frames", s.frames)
        .field("frames_per_sec", s.frames_per_sec)
        .field("contacts", s.contacts)
        .field("publishes", s.publishes)
        .field("incremental_updates", s.incremental_updates)
        .field("full_recomputes", s.full_recomputes)
        .field("devices", s.devices)
        .field("ring_dropped", s.ring_dropped)
        .field("ring_high_water", s.ring_high_water)
        .field("ring_capacity", s.ring_capacity)
        .field("applied_seq", s.applied_seq)
        .field("wal_records", s.wal_records)
        .field("wal_commits", s.wal_commits)
        .field("wal_segments", s.wal_segments)
        .field("wal_append_failures", s.wal_append_failures)
        .field("checkpoints", s.checkpoints)
        .field("checkpoint_failures", s.checkpoint_failures)
        .field("dedup_skipped", s.dedup_skipped)
        .field("restarts", s.restarts)
        .field("lost_events", s.lost_events)
        .field("degraded", s.degraded)
        .end_object();
  }
  json.end_array();
}

void write_wire_json(util::JsonWriter& json, const net::WireDecoderStats& wire) {
  json.field("bytes_fed", wire.bytes_fed)
      .field("frames_decoded", wire.frames_decoded)
      .field("resync_bytes", wire.resync_bytes)
      .field("crc_failures", wire.crc_failures)
      .field("bad_version", wire.bad_version)
      .field("bad_type", wire.bad_type)
      .field("bad_length", wire.bad_length);
}

void print_shard_table(const pipeline::PipelineStats& stats) {
  util::Table table({"shard", "frames", "frames/s", "contacts", "publishes", "incr",
                     "full", "devices", "ring drop", "ring hwm", "wal", "ckpt",
                     "health"});
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const pipeline::ShardStats& s = stats.shards[i];
    std::string health = s.degraded ? "DEGRADED"
                         : s.restarts > 0
                             ? "restarted x" + std::to_string(s.restarts)
                             : "ok";
    if (s.wal_dead) health += ", wal dead";
    table.add_row(
        {std::to_string(i), std::to_string(s.frames), util::Table::fmt(s.frames_per_sec, 0),
         std::to_string(s.contacts), std::to_string(s.publishes),
         std::to_string(s.incremental_updates), std::to_string(s.full_recomputes),
         std::to_string(s.devices), std::to_string(s.ring_dropped),
         std::to_string(s.ring_high_water) + "/" + std::to_string(s.ring_capacity),
         std::to_string(s.wal_records), std::to_string(s.checkpoints), health});
  }
  table.print(std::cout);
}

void print_device_table(const pipeline::LiveTracker& tracker, const geo::EnuFrame& frame) {
  auto snapshot = tracker.snapshot();
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::Table table(
      {"device", "x (m)", "y (m)", "lat", "lon", "|Gamma|", "updates", "degraded"});
  for (const auto& [mac, pos] : snapshot) {
    const geo::Geodetic g = frame.to_geodetic({pos.x_m, pos.y_m});
    std::string degraded = pos.used_fallback != 0 ? "fallback"
                           : pos.discs_rejected > 0
                               ? std::to_string(pos.discs_rejected) + " discs rejected"
                               : "";
    if (pos.shard_degraded != 0) {
      degraded = degraded.empty() ? "shard down" : degraded + ", shard down";
    }
    table.add_row(
        {mac.to_string(), util::Table::fmt(pos.x_m, 1), util::Table::fmt(pos.y_m, 1),
         util::Table::fmt(g.lat_deg, 6), util::Table::fmt(g.lon_deg, 6),
         std::to_string(pos.gamma_size), std::to_string(pos.updates), degraded});
  }
  table.print(std::cout);
  std::cout << "\ntracking " << snapshot.size() << " devices live\n";
}

bool write_report_file(const std::string& path,
                       const std::function<void(util::JsonWriter&)>& fill) {
  if (!util::write_json_file(path, fill)) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

}  // namespace mm::tools
