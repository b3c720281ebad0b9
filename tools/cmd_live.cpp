#include <atomic>
#include <csignal>
#include <iostream>

#include "commands.h"
#include "fault/fault_plan.h"
#include "geo/geodetic.h"
#include "pipeline/live_feed.h"
#include "pipeline/live_tracker.h"
#include "pipeline/supervisor.h"
#include "pipeline_report.h"
#include "sim/scenario.h"
#include "util/table.h"

namespace mm::tools {

namespace {

/// Set by SIGINT/SIGTERM. The feed polls it between records, so a Ctrl-C
/// lands between two frames: the rings drain, the final checkpoint is
/// written, and the stats still come out — instead of dying mid-write.
std::atomic<bool> g_interrupted{false};

extern "C" void live_signal_handler(int) { g_interrupted.store(true); }

void write_stats_json(util::JsonWriter& json, const pipeline::PipelineStats& stats,
                      const pipeline::LiveFeedStats& feed,
                      const pipeline::SupervisorStats* supervisor) {
  json.begin_object();
  write_pipeline_json(json, stats);
  json.field("records", feed.replay.records)
      .field("quarantined", feed.replay.quarantined())
      .field("interrupted", feed.interrupted);
  const pipeline::RecoveryStats& r = stats.recovery;
  json.begin_object("recovery")
      .field("performed", r.performed)
      .field("checkpoints_loaded", r.checkpoints_loaded)
      .field("checkpoints_damaged", r.checkpoints_damaged)
      .field("checkpoint_rows_loaded", r.checkpoint_rows_loaded)
      .field("checkpoint_rows_quarantined", r.checkpoint_rows_quarantined)
      .field("wal_segments_read", r.wal_segments_read)
      .field("wal_records_replayed", r.wal_records_replayed)
      .field("wal_records_skipped", r.wal_records_skipped)
      .field("wal_torn_tails", r.wal_torn_tails)
      .field("wal_discarded_records", r.wal_discarded_records)
      .field("wal_segments_abandoned", r.wal_segments_abandoned)
      .field("devices_restored", r.devices_restored)
      .field("positions_republished", r.positions_republished)
      .field("max_applied_seq", r.max_applied_seq)
      .field("feed_dropped", feed.dropped)
      .field("ring_dropped", stats.total_dropped)
      .field("quarantined", feed.replay.quarantined())
      .end_object();
  json.begin_object("supervision").field("enabled", supervisor != nullptr);
  if (supervisor != nullptr) {
    json.field("polls", supervisor->polls)
        .field("stalls_detected", supervisor->stalls_detected)
        .field("crashes_detected", supervisor->crashes_detected)
        .field("restarts", supervisor->restarts)
        .field("circuit_breaks", supervisor->circuit_breaks);
  }
  json.field("degraded_shards", stats.degraded_shards).end_object();
  write_shards_json(json, stats);
  json.end_object();
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
  const auto db = load_apdb(flags, "mmctl live", frame);
  if (!db) return 1;
  pipeline::LiveTrackerConfig config;
  if (const int rc = tracker_config_from_flags(flags, "mmctl live", config); rc != 0) {
    return rc;
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

  pipeline::LiveTracker tracker(*db, config);
  if (flags.has("recover") && !recover_tracker(tracker, "mmctl live")) return 1;

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

  print_shard_table(stats);
  std::cout << "\n" << feed.replay.records << " records -> " << feed.pushed
            << " events pushed, " << feed.dropped + stats.total_dropped << " dropped, "
            << feed.replay.quarantined() << " quarantined, " << stats.total_frames
            << " processed in " << util::Table::fmt(stats.elapsed_s, 3) << " s ("
            << util::Table::fmt(stats.frames_per_sec, 0) << " frames/s)\n\n";

  print_device_table(tracker, frame);

  const std::string json_path = flags.get("stats-json", "");
  if (!json_path.empty() && !write_report_file(json_path, [&](util::JsonWriter& json) {
        write_stats_json(json, stats, feed, supervise ? &supervisor_stats : nullptr);
      })) {
    return 1;
  }
  return g_interrupted.load() ? 130 : 0;
}

}  // namespace mm::tools
