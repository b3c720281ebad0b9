#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>

#include "commands.h"
#include "fault/fault_plan.h"
#include "geo/geodetic.h"
#include "marauder/ap_database.h"
#include "pipeline/live_feed.h"
#include "pipeline/live_tracker.h"
#include "pipeline/supervisor.h"
#include "sim/scenario.h"
#include "util/table.h"

namespace mm::tools {

namespace {

/// Set by SIGINT/SIGTERM. The feed polls it between records, so a Ctrl-C
/// lands between two frames: the rings drain, the final checkpoint is
/// written, and the stats still come out — instead of dying mid-write.
std::atomic<bool> g_interrupted{false};

extern "C" void live_signal_handler(int) { g_interrupted.store(true); }

void write_stats_json(const std::string& path, const pipeline::PipelineStats& stats,
                      const pipeline::LiveFeedStats& feed,
                      const pipeline::SupervisorStats* supervisor) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"elapsed_s\": " << stats.elapsed_s << ",\n";
  out << "  \"total_frames\": " << stats.total_frames << ",\n";
  out << "  \"total_dropped\": " << stats.total_dropped << ",\n";
  out << "  \"frames_per_sec\": " << stats.frames_per_sec << ",\n";
  out << "  \"directory_size\": " << stats.directory_size << ",\n";
  out << "  \"directory_overflows\": " << stats.directory_overflows << ",\n";
  out << "  \"records\": " << feed.replay.records << ",\n";
  out << "  \"quarantined\": " << feed.replay.quarantined() << ",\n";
  out << "  \"interrupted\": " << (feed.interrupted ? "true" : "false") << ",\n";
  out << "  \"durability\": {\"enabled\": "
      << (stats.durability_enabled ? "true" : "false")
      << ", \"wal_records\": " << stats.total_wal_records
      << ", \"checkpoints\": " << stats.total_checkpoints << "},\n";
  const pipeline::RecoveryStats& r = stats.recovery;
  out << "  \"recovery\": {\"performed\": " << (r.performed ? "true" : "false")
      << ", \"checkpoints_loaded\": " << r.checkpoints_loaded
      << ", \"checkpoints_damaged\": " << r.checkpoints_damaged
      << ", \"checkpoint_rows_loaded\": " << r.checkpoint_rows_loaded
      << ", \"checkpoint_rows_quarantined\": " << r.checkpoint_rows_quarantined
      << ", \"wal_segments_read\": " << r.wal_segments_read
      << ", \"wal_records_replayed\": " << r.wal_records_replayed
      << ", \"wal_records_skipped\": " << r.wal_records_skipped
      << ", \"wal_torn_tails\": " << r.wal_torn_tails
      << ", \"wal_discarded_records\": " << r.wal_discarded_records
      << ", \"wal_segments_abandoned\": " << r.wal_segments_abandoned
      << ", \"devices_restored\": " << r.devices_restored
      << ", \"positions_republished\": " << r.positions_republished
      << ", \"max_applied_seq\": " << r.max_applied_seq
      << ", \"feed_dropped\": " << feed.dropped
      << ", \"ring_dropped\": " << stats.total_dropped
      << ", \"quarantined\": " << feed.replay.quarantined() << "},\n";
  out << "  \"supervision\": {";
  if (supervisor != nullptr) {
    out << "\"enabled\": true, \"polls\": " << supervisor->polls
        << ", \"stalls_detected\": " << supervisor->stalls_detected
        << ", \"crashes_detected\": " << supervisor->crashes_detected
        << ", \"restarts\": " << supervisor->restarts
        << ", \"circuit_breaks\": " << supervisor->circuit_breaks
        << ", \"degraded_shards\": " << stats.degraded_shards;
  } else {
    out << "\"enabled\": false, \"degraded_shards\": " << stats.degraded_shards;
  }
  out << "},\n";
  out << "  \"shards\": [\n";
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const pipeline::ShardStats& s = stats.shards[i];
    out << "    {\"frames\": " << s.frames << ", \"frames_per_sec\": " << s.frames_per_sec
        << ", \"contacts\": " << s.contacts << ", \"publishes\": " << s.publishes
        << ", \"incremental_updates\": " << s.incremental_updates
        << ", \"full_recomputes\": " << s.full_recomputes << ", \"devices\": " << s.devices
        << ", \"ring_dropped\": " << s.ring_dropped
        << ", \"ring_high_water\": " << s.ring_high_water
        << ", \"ring_capacity\": " << s.ring_capacity
        << ", \"applied_seq\": " << s.applied_seq
        << ", \"wal_records\": " << s.wal_records
        << ", \"wal_commits\": " << s.wal_commits
        << ", \"wal_segments\": " << s.wal_segments
        << ", \"wal_append_failures\": " << s.wal_append_failures
        << ", \"checkpoints\": " << s.checkpoints
        << ", \"checkpoint_failures\": " << s.checkpoint_failures
        << ", \"dedup_skipped\": " << s.dedup_skipped
        << ", \"restarts\": " << s.restarts << ", \"lost_events\": " << s.lost_events
        << ", \"degraded\": " << (s.degraded ? "true" : "false") << "}"
        << (i + 1 < stats.shards.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int cmd_live(const util::Flags& flags) {
  const std::string pcap_path = flags.get("pcap", "");
  const std::string apdb_path = flags.get("apdb", "");
  if (pcap_path.empty() || apdb_path.empty()) {
    std::cerr << "mmctl live: --pcap and --apdb are required\n";
    return 2;
  }

  const geo::EnuFrame frame(sim::uml_north_campus());
  marauder::CsvImportStats apdb_stats;
  auto db_result = marauder::ApDatabase::from_csv(apdb_path, frame, &apdb_stats);
  if (!db_result.ok()) {
    std::cerr << "mmctl live: --apdb: " << db_result.error() << "\n";
    return 1;
  }
  const marauder::ApDatabase db = std::move(db_result.value());
  if (apdb_stats.quarantined > 0) {
    std::cerr << "apdb: quarantined " << apdb_stats.quarantined << "/"
              << apdb_stats.rows_total << " malformed rows\n";
  }

  pipeline::LiveTrackerConfig config;
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
    std::cerr << "mmctl live: unknown --drop-policy '" << policy << "' (drop|block)\n";
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
  const bool do_recover = flags.has("recover");
  if (do_recover && wal_dir.empty()) {
    std::cerr << "mmctl live: --recover requires --wal-dir\n";
    return 2;
  }

  pipeline::LiveFeedOptions feed_options;
  feed_options.speed = flags.get_double("speed", 0.0);
  feed_options.stop = &g_interrupted;
  if (flags.has("fault-plan")) {
    auto parsed = fault::FaultPlan::parse(flags.get("fault-plan", ""));
    if (!parsed.ok()) {
      std::cerr << "mmctl live: --fault-plan: " << parsed.error() << "\n";
      return 2;
    }
    feed_options.fault_plan = parsed.value();
  }

  pipeline::LiveTracker tracker(db, config);
  if (do_recover) {
    auto recovered = tracker.recover();
    if (!recovered.ok()) {
      std::cerr << "mmctl live: --recover: " << recovered.error() << "\n";
      return 1;
    }
    const pipeline::RecoveryStats& r = recovered.value();
    std::cout << "recovered " << r.checkpoints_loaded << " checkpoints, "
              << r.wal_records_replayed << " WAL records replayed ("
              << r.wal_records_skipped << " skipped, " << r.wal_torn_tails
              << " torn tails), " << r.devices_restored << " devices, "
              << r.positions_republished << " positions republished\n";
  }

  std::signal(SIGINT, live_signal_handler);
  std::signal(SIGTERM, live_signal_handler);

  tracker.start();
  pipeline::ShardSupervisor supervisor(tracker, pipeline::SupervisorOptions{});
  const bool supervise = flags.has("supervise");
  if (supervise) supervisor.start();
  auto fed = pipeline::feed_pcap(pcap_path, tracker, feed_options);
  if (supervise) supervisor.stop();
  // stop() drains every ring and writes the final checkpoint — this is the
  // same path whether the feed finished or a signal interrupted it.
  tracker.stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  if (!fed.ok()) {
    std::cerr << "mmctl live: --pcap: " << fed.error() << "\n";
    return 1;
  }
  const pipeline::LiveFeedStats& feed = fed.value();
  const pipeline::PipelineStats stats = tracker.stats();
  const pipeline::SupervisorStats supervisor_stats = supervisor.stats();
  if (feed.interrupted) {
    std::cout << "interrupted: rings drained, final checkpoint "
              << (stats.durability_enabled ? "written" : "skipped (no --wal-dir)")
              << "\n\n";
  }

  util::Table shard_table({"shard", "frames", "frames/s", "contacts", "publishes",
                           "incr", "full", "devices", "ring drop", "ring hwm", "wal",
                           "ckpt", "health"});
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const pipeline::ShardStats& s = stats.shards[i];
    std::string health = s.degraded ? "DEGRADED"
                         : s.restarts > 0
                             ? "restarted x" + std::to_string(s.restarts)
                             : "ok";
    if (s.wal_dead) health += ", wal dead";
    shard_table.add_row(
        {std::to_string(i), std::to_string(s.frames), util::Table::fmt(s.frames_per_sec, 0),
         std::to_string(s.contacts), std::to_string(s.publishes),
         std::to_string(s.incremental_updates), std::to_string(s.full_recomputes),
         std::to_string(s.devices), std::to_string(s.ring_dropped),
         std::to_string(s.ring_high_water) + "/" + std::to_string(s.ring_capacity),
         std::to_string(s.wal_records), std::to_string(s.checkpoints), health});
  }
  shard_table.print(std::cout);
  std::cout << "\n" << feed.replay.records << " records -> " << feed.pushed
            << " events pushed, " << feed.dropped + stats.total_dropped << " dropped, "
            << feed.replay.quarantined() << " quarantined, " << stats.total_frames
            << " processed in " << util::Table::fmt(stats.elapsed_s, 3) << " s ("
            << util::Table::fmt(stats.frames_per_sec, 0) << " frames/s)\n\n";

  auto snapshot = tracker.snapshot();
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::Table device_table(
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
    device_table.add_row(
        {mac.to_string(), util::Table::fmt(pos.x_m, 1), util::Table::fmt(pos.y_m, 1),
         util::Table::fmt(g.lat_deg, 6), util::Table::fmt(g.lon_deg, 6),
         std::to_string(pos.gamma_size), std::to_string(pos.updates), degraded});
  }
  device_table.print(std::cout);
  std::cout << "\ntracking " << snapshot.size() << " devices live\n";

  const std::string json_path = flags.get("stats-json", "");
  if (!json_path.empty()) {
    write_stats_json(json_path, stats, feed, supervise ? &supervisor_stats : nullptr);
    std::cout << "wrote " << json_path << "\n";
  }
  return g_interrupted.load() ? 130 : 0;
}

}  // namespace mm::tools
