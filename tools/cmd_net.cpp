// Lattice sensor-fabric commands (DESIGN.md §12).
//
//   mmctl net-send: a remote capture rig — decode a monitor-mode pcap into
//   FrameEvents, frame them with the wire codec + XOR parity, optionally
//   drag the byte stream through the seeded link simulator, and write the
//   (possibly damaged) stream to a file or pipe.
//
//   mmctl net-recv: the central engine — pump one or more recorded streams
//   through the SnifferFeedMux into Riptide and print the same tables
//   `mmctl live` does, plus the per-feed fabric health.
//
// The two ends meet over any dumb byte transport; a mkfifo between two
// terminals is the README's demo rig, and --udp/--udp-listen runs the same
// codec over a real lossy datagram socket (one datagram per wire frame — the
// resynchronizing decoder owes the wire no alignment, so datagram loss and
// reordering land exactly where the link simulator's do).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "commands.h"
#include "capture/replay.h"
#include "fault/fault_plan.h"
#include "geo/geodetic.h"
#include "marauder/ap_database.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "net/udp.h"
#include "net/wire_codec.h"
#include "net80211/pcap.h"
#include "pipeline/feed_mux.h"
#include "pipeline/live_tracker.h"
#include "sim/scenario.h"
#include "util/table.h"

namespace mm::tools {

namespace {

std::atomic<bool> g_net_interrupted{false};

extern "C" void net_signal_handler(int) { g_net_interrupted.store(true); }

/// Splits a comma-separated flag value ("a.bin,b.bin") into its parts.
std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> parts;
  std::stringstream in(value);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

void send_through_link(net::LinkSimulator& link, std::span<const std::uint8_t> bytes) {
  net::for_each_wire_frame(
      bytes, [&](std::span<const std::uint8_t> frame) { link.send(frame); });
}

void write_net_stats_json(const std::string& path, const pipeline::PipelineStats& stats,
                          const pipeline::FeedMuxStats& net) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"elapsed_s\": " << stats.elapsed_s << ",\n";
  out << "  \"total_frames\": " << stats.total_frames << ",\n";
  out << "  \"total_dropped\": " << stats.total_dropped << ",\n";
  out << "  \"frames_per_sec\": " << stats.frames_per_sec << ",\n";
  out << "  \"directory_size\": " << stats.directory_size << ",\n";
  out << "  \"durability\": {\"enabled\": "
      << (stats.durability_enabled ? "true" : "false")
      << ", \"wal_records\": " << stats.total_wal_records
      << ", \"checkpoints\": " << stats.total_checkpoints << "},\n";
  out << "  \"net\": {\n";
  out << "    \"events_delivered\": " << net.events_delivered << ",\n";
  out << "    \"events_dropped\": " << net.events_dropped << ",\n";
  out << "    \"last_stream_seq\": " << net.last_stream_seq << ",\n";
  out << "    \"feeds\": [\n";
  for (std::size_t i = 0; i < net.feeds.size(); ++i) {
    const pipeline::FeedStats& f = net.feeds[i];
    out << "      {\"stream_id\": " << f.stream_id
        << ", \"bytes_fed\": " << f.wire.bytes_fed
        << ", \"frames_decoded\": " << f.wire.frames_decoded
        << ", \"resync_bytes\": " << f.wire.resync_bytes
        << ", \"crc_failures\": " << f.wire.crc_failures
        << ", \"bad_version\": " << f.wire.bad_version
        << ", \"bad_length\": " << f.wire.bad_length
        << ", \"data_frames\": " << f.fec.data_frames
        << ", \"parity_frames\": " << f.fec.parity_frames
        << ", \"duplicates\": " << f.fec.duplicates
        << ", \"out_of_order\": " << f.fec.out_of_order
        << ", \"recovered\": " << f.fec.recovered
        << ", \"unrecoverable_gaps\": " << f.fec.unrecoverable_gaps
        << ", \"recoveries_late\": " << f.fec.recoveries_late
        << ", \"bad_payloads\": " << f.fec.bad_payloads
        << ", \"stream_mismatches\": " << f.stream_mismatches
        << ", \"events_delivered\": " << f.events_delivered
        << ", \"events_dropped\": " << f.events_dropped
        << ", \"degraded\": " << (f.degraded() ? "true" : "false") << "}"
        << (i + 1 < net.feeds.size() ? "," : "") << "\n";
  }
  out << "    ]\n  },\n";
  out << "  \"shards\": [\n";
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const pipeline::ShardStats& s = stats.shards[i];
    out << "    {\"frames\": " << s.frames << ", \"contacts\": " << s.contacts
        << ", \"publishes\": " << s.publishes << ", \"devices\": " << s.devices
        << ", \"ring_dropped\": " << s.ring_dropped
        << ", \"applied_seq\": " << s.applied_seq
        << ", \"wal_records\": " << s.wal_records
        << ", \"checkpoints\": " << s.checkpoints
        << ", \"dedup_skipped\": " << s.dedup_skipped
        << ", \"degraded\": " << (s.degraded ? "true" : "false") << "}"
        << (i + 1 < stats.shards.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int cmd_net_send(const util::Flags& flags) {
  const std::string pcap_path = flags.get("pcap", "");
  const std::string out_path = flags.get("out", "");
  const std::string udp_spec = flags.get("udp", "");
  if (pcap_path.empty() || (out_path.empty() == udp_spec.empty())) {
    std::cerr << "mmctl net-send: --pcap and exactly one of --out/--udp are required\n";
    return 2;
  }
  const auto stream_id = static_cast<std::uint32_t>(flags.get_int("stream-id", 1));
  const auto fec_k = flags.get_int("fec-k", 8);
  if (fec_k < 0) {
    std::cerr << "mmctl net-send: --fec-k must be >= 0 (0 disables parity)\n";
    return 2;
  }

  std::unique_ptr<net::LinkSimulator> link;
  if (flags.has("link-plan")) {
    auto parsed = fault::FaultPlan::parse(flags.get("link-plan", ""));
    if (!parsed.ok()) {
      std::cerr << "mmctl net-send: --link-plan: " << parsed.error() << "\n";
      return 2;
    }
    link = std::make_unique<net::LinkSimulator>(parsed.value());
  }

  net80211::PcapReader reader(pcap_path);
  if (!reader.ok()) {
    std::cerr << "mmctl net-send: --pcap: " << reader.error() << "\n";
    return 1;
  }
  if (reader.linktype() != net80211::kLinktypeRadiotap) {
    std::cerr << "mmctl net-send: expected radiotap linktype 127, got "
              << reader.linktype() << "\n";
    return 1;
  }

  int udp_fd = -1;
  std::ofstream out;
  if (!udp_spec.empty()) {
    std::string error;
    udp_fd = net::open_udp_sender(udp_spec, error);
    if (udp_fd < 0) {
      std::cerr << "mmctl net-send: --udp: " << error << "\n";
      return 1;
    }
  } else {
    out.open(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "mmctl net-send: cannot open --out " << out_path << "\n";
      return 1;
    }
  }

  net::FecEncoder encoder(stream_id, static_cast<std::size_t>(fec_k));
  std::vector<std::uint8_t> scratch;
  std::uint64_t records = 0;
  std::uint64_t malformed = 0;
  std::uint64_t events = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t datagrams = 0;

  // File sink: append the surviving bytes. UDP sink: one datagram per frame
  // (post-link bytes may carry damaged length fields, so the link's output
  // ships as whole take() chunks — boundary loss is part of the damage).
  const auto deliver = [&](std::span<const std::uint8_t> bytes) {
    if (udp_fd >= 0) {
      if (link) {
        if (!bytes.empty()) {
          ::send(udp_fd, bytes.data(), bytes.size(), 0);
          ++datagrams;
        }
      } else {
        net::for_each_wire_frame(bytes, [&](std::span<const std::uint8_t> frame) {
          ::send(udp_fd, frame.data(), frame.size(), 0);
          ++datagrams;
        });
      }
    } else {
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  };
  const auto ship = [&](std::span<const std::uint8_t> bytes) {
    if (link) {
      send_through_link(*link, bytes);
      const std::vector<std::uint8_t> survived = link->take();
      deliver(survived);
    } else {
      deliver(bytes);
    }
  };

  while (auto record = reader.next()) {
    ++records;
    const auto decoded = capture::decode_record(*record);
    if (!decoded) {
      ++malformed;
      continue;
    }
    if (!decoded->has_event) continue;
    // Same discipline as feed_pcap: one sequence per event, in pcap order.
    ++events;
    scratch.clear();
    encoder.push(++next_seq, decoded->event, scratch);
    ship(scratch);
  }
  scratch.clear();
  encoder.flush(scratch);
  ship(scratch);
  if (link) {
    link->flush();
    const std::vector<std::uint8_t> tail = link->take();
    deliver(tail);
  }
  if (udp_fd >= 0) {
    ::close(udp_fd);
  } else {
    out.flush();
    if (!out) {
      std::cerr << "mmctl net-send: write failed for " << out_path << "\n";
      return 1;
    }
  }

  const net::FecEncoderStats& enc = encoder.stats();
  const double overhead =
      enc.data_bytes > 0
          ? 100.0 * static_cast<double>(enc.parity_bytes) / static_cast<double>(enc.data_bytes)
          : 0.0;
  std::cout << records << " records -> " << events << " events (" << malformed
            << " malformed), stream " << stream_id << ": " << enc.data_frames
            << " data + " << enc.parity_frames << " parity frames, "
            << enc.data_bytes + enc.parity_bytes << " wire bytes ("
            << util::Table::fmt(overhead, 1) << "% parity overhead, k="
            << fec_k << ")\n";
  if (link) {
    const net::LinkStats& l = link->stats();
    std::cout << "link: " << l.frames_sent << " sent, " << l.frames_delivered
              << " delivered, " << l.dropped << " dropped, " << l.burst_dropped
              << " burst-dropped, " << l.corrupted << " corrupted, " << l.truncated
              << " truncated, " << l.duplicated << " duplicated, " << l.reordered
              << " reordered\n";
  }
  if (udp_fd >= 0) {
    std::cout << "sent " << datagrams << " datagrams to " << udp_spec << "\n";
  } else {
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

int cmd_net_recv(const util::Flags& flags) {
  const std::string in_list = flags.get("in", "");
  const std::string apdb_path = flags.get("apdb", "");
  const bool udp_mode = flags.has("udp-listen");
  if (apdb_path.empty() || (in_list.empty() == !udp_mode)) {
    std::cerr << "mmctl net-recv: --apdb and exactly one of --in/--udp-listen are required\n";
    return 2;
  }
  const std::vector<std::string> paths = split_list(in_list);

  std::vector<std::uint32_t> stream_ids;
  if (flags.has("stream-ids")) {
    for (const std::string& id : split_list(flags.get("stream-ids", ""))) {
      stream_ids.push_back(static_cast<std::uint32_t>(std::stoul(id)));
    }
    if (!udp_mode && stream_ids.size() != paths.size()) {
      std::cerr << "mmctl net-recv: --stream-ids must list one id per --in file\n";
      return 2;
    }
    if (udp_mode && stream_ids.size() != 1) {
      std::cerr << "mmctl net-recv: --udp-listen carries a single feed; give one --stream-ids\n";
      return 2;
    }
  } else if (udp_mode) {
    stream_ids.push_back(1);
  } else {
    // net-send defaults to stream 1; multiple rigs are expected to be
    // launched with --stream-id 1,2,3,... matching their --in order here.
    for (std::size_t i = 0; i < paths.size(); ++i) {
      stream_ids.push_back(static_cast<std::uint32_t>(i + 1));
    }
  }

  const geo::EnuFrame frame(sim::uml_north_campus());
  marauder::CsvImportStats apdb_stats;
  auto db_result = marauder::ApDatabase::from_csv(apdb_path, frame, &apdb_stats);
  if (!db_result.ok()) {
    std::cerr << "mmctl net-recv: --apdb: " << db_result.error() << "\n";
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
    std::cerr << "mmctl net-recv: unknown --drop-policy '" << policy << "' (drop|block)\n";
    return 2;
  }
  const std::string wal_dir = flags.get("wal-dir", "");
  if (!wal_dir.empty()) {
    config.durability.dir = wal_dir;
    config.durability.checkpoint_interval_s = flags.get_double("checkpoint-secs", 30.0);
    config.durability.wal.fsync_on_commit = !flags.has("no-fsync");
  }
  const bool do_recover = flags.has("recover");
  if (do_recover && wal_dir.empty()) {
    std::cerr << "mmctl net-recv: --recover requires --wal-dir\n";
    return 2;
  }

  net::FecDecoderOptions fec_options;
  fec_options.reorder_window =
      static_cast<std::size_t>(flags.get_int("fec-window", 256));

  int udp_fd = -1;
  if (udp_mode) {
    const auto port = flags.get_int("udp-listen", 0);
    if (port <= 0 || port > 65535) {
      std::cerr << "mmctl net-recv: --udp-listen needs a port in [1, 65535]\n";
      return 2;
    }
    net::UdpListenerOptions listener;
    listener.rcvbuf_bytes = net::clamp_rcvbuf_bytes(
        flags.get_int("rcvbuf", net::kDefaultRcvbufBytes));
    std::string error;
    udp_fd = net::open_udp_listener(static_cast<std::uint16_t>(port), listener,
                                    error);
    if (udp_fd < 0) {
      std::cerr << "mmctl net-recv: --udp-listen: " << error << "\n";
      return 1;
    }
    std::cout << "listening on udp://127.0.0.1:" << port << "\n";
  }

  std::vector<std::ifstream> inputs;
  inputs.reserve(paths.size());
  for (const std::string& path : paths) {
    inputs.emplace_back(path, std::ios::binary);
    if (!inputs.back()) {
      std::cerr << "mmctl net-recv: cannot open --in " << path << "\n";
      if (udp_fd >= 0) ::close(udp_fd);
      return 1;
    }
  }

  pipeline::LiveTracker tracker(db, config);
  if (do_recover) {
    auto recovered = tracker.recover();
    if (!recovered.ok()) {
      std::cerr << "mmctl net-recv: --recover: " << recovered.error() << "\n";
      return 1;
    }
    const pipeline::RecoveryStats& r = recovered.value();
    std::cout << "recovered " << r.checkpoints_loaded << " checkpoints, "
              << r.wal_records_replayed << " WAL records replayed ("
              << r.wal_records_skipped << " skipped), " << r.devices_restored
              << " devices\n";
  }

  std::signal(SIGINT, net_signal_handler);
  std::signal(SIGTERM, net_signal_handler);
  tracker.start();

  pipeline::SnifferFeedMux mux(tracker, fec_options);
  for (const std::uint32_t id : stream_ids) mux.add_feed(id);

  std::uint64_t datagrams = 0;
  if (udp_mode) {
    // Datagram pump: each recv is one sender frame (or whatever loss and
    // reordering left of it); the stream ends after the idle timeout of
    // silence — a datagram socket has no EOF. --idle-timeout-ms is the
    // canonical flag; --udp-idle-secs predates it and still works.
    const long long idle_ms_raw =
        flags.has("idle-timeout-ms")
            ? static_cast<long long>(flags.get_int("idle-timeout-ms", 5000))
            : static_cast<long long>(flags.get_double("udp-idle-secs", 5.0) * 1000.0);
    const double idle_secs = net::clamp_idle_timeout_ms(idle_ms_raw) / 1000.0;
    std::vector<std::uint8_t> datagram(1 << 16);
    auto last_data = std::chrono::steady_clock::now();
    while (!g_net_interrupted.load()) {
      const ssize_t got = ::recv(udp_fd, datagram.data(), datagram.size(), 0);
      if (got > 0) {
        ++datagrams;
        mux.on_bytes(0, {datagram.data(), static_cast<std::size_t>(got)});
        last_data = std::chrono::steady_clock::now();
        continue;
      }
      if (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) break;
      const std::chrono::duration<double> idle =
          std::chrono::steady_clock::now() - last_data;
      if (idle.count() >= idle_secs) break;
    }
    ::close(udp_fd);
  } else {
    // Round-robin pump: interleave chunks across feeds the way a poll loop
    // over N sockets would, so the mux's global sequencing is exercised under
    // genuine interleaving (and stays deterministic for a given file set).
    constexpr std::size_t kChunkBytes = 4096;
    std::vector<std::uint8_t> chunk(kChunkBytes);
    bool any_open = true;
    bool interrupted = false;
    while (any_open && !interrupted) {
      any_open = false;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (g_net_interrupted.load()) {
          interrupted = true;
          break;
        }
        if (!inputs[i]) continue;
        inputs[i].read(reinterpret_cast<char*>(chunk.data()),
                       static_cast<std::streamsize>(kChunkBytes));
        const auto got = static_cast<std::size_t>(inputs[i].gcount());
        if (got > 0) {
          mux.on_bytes(i, {chunk.data(), got});
          any_open = true;
        }
      }
    }
  }
  mux.finish();
  tracker.stop();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const pipeline::FeedMuxStats net_stats = mux.stats();
  const pipeline::PipelineStats stats = tracker.stats();

  util::Table feed_table({"feed", "stream", "bytes", "frames", "resync", "crc fail",
                          "events", "recovered", "dup", "gaps", "health"});
  for (std::size_t i = 0; i < net_stats.feeds.size(); ++i) {
    const pipeline::FeedStats& f = net_stats.feeds[i];
    feed_table.add_row(
        {std::to_string(i), std::to_string(f.stream_id),
         std::to_string(f.wire.bytes_fed), std::to_string(f.wire.frames_decoded),
         std::to_string(f.wire.resync_bytes), std::to_string(f.wire.crc_failures),
         std::to_string(f.events_delivered), std::to_string(f.fec.recovered),
         std::to_string(f.fec.duplicates), std::to_string(f.fec.unrecoverable_gaps),
         f.degraded() ? "DEGRADED" : "ok"});
  }
  feed_table.print(std::cout);
  if (udp_mode) std::cout << datagrams << " datagrams received\n";
  std::cout << "\n" << net_stats.events_delivered << " events into Riptide ("
            << net_stats.events_dropped << " ring-dropped), " << stats.total_frames
            << " processed in " << util::Table::fmt(stats.elapsed_s, 3) << " s ("
            << util::Table::fmt(stats.frames_per_sec, 0) << " frames/s)\n\n";

  util::Table shard_table(
      {"shard", "frames", "contacts", "publishes", "devices", "ring drop", "wal",
       "ckpt", "health"});
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const pipeline::ShardStats& s = stats.shards[i];
    shard_table.add_row(
        {std::to_string(i), std::to_string(s.frames), std::to_string(s.contacts),
         std::to_string(s.publishes), std::to_string(s.devices),
         std::to_string(s.ring_dropped), std::to_string(s.wal_records),
         std::to_string(s.checkpoints), s.degraded ? "DEGRADED" : "ok"});
  }
  shard_table.print(std::cout);

  auto snapshot = tracker.snapshot();
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::Table device_table({"device", "x (m)", "y (m)", "lat", "lon", "|Gamma|", "updates"});
  for (const auto& [mac, pos] : snapshot) {
    const geo::Geodetic g = frame.to_geodetic({pos.x_m, pos.y_m});
    device_table.add_row(
        {mac.to_string(), util::Table::fmt(pos.x_m, 1), util::Table::fmt(pos.y_m, 1),
         util::Table::fmt(g.lat_deg, 6), util::Table::fmt(g.lon_deg, 6),
         std::to_string(pos.gamma_size), std::to_string(pos.updates)});
  }
  std::cout << "\n";
  device_table.print(std::cout);
  std::cout << "\ntracking " << snapshot.size() << " devices live\n";

  const std::string json_path = flags.get("stats-json", "");
  if (!json_path.empty()) {
    write_net_stats_json(json_path, stats, net_stats);
    std::cout << "wrote " << json_path << "\n";
  }
  return g_net_interrupted.load() ? 130 : 0;
}

}  // namespace mm::tools
