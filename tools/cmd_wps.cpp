// Basilisk WPS commands (DESIGN.md §13).
//
//   mmctl wps-build:   freeze an AP database CSV (or a raw WiGLE export)
//   into the mmap-backed snapshot format — the attacker's city-scale
//   positioning backend, built once and queried forever.
//
//   mmctl wps-serve:   the positioning service — answer lookup / nearest /
//   range requests carried as Lattice wire frames over any dumb byte pipe
//   (a file, a mkfifo between two terminals), or — with --udp — over a real
//   datagram socket through the Aegis fault-tolerant tier: request-id dedup,
//   bounded queue with explicit load shedding, SIGHUP snapshot hot-swap.
//   Batches decode concurrently; responses leave in request order.
//
//   mmctl wps-query:   the client end — encode request frames onto a
//   stream, decode a response stream and print what the service said, or
//   (send) run the retrying Aegis RemoteClient against a live --udp server.
//
//   mmctl wps-surveil: replay the Rye & Levin opportunistic
//   mass-surveillance scenario against the snapshot backend and report how
//   many devices the query interface alone was able to track.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "commands.h"
#include "fault/fault_plan.h"
#include "geo/geodetic.h"
#include "marauder/ap_database.h"
#include "net/link_sim.h"
#include "net/udp.h"
#include "net/wire_codec.h"
#include "net80211/mac_address.h"
#include "pipeline_report.h"
#include "sim/scenario.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "wps/query_codec.h"
#include "wps/remote.h"
#include "wps/reliability.h"
#include "wps/service.h"
#include "wps/snapshot_writer.h"
#include "wps/surveil.h"

namespace mm::tools {

namespace {

namespace fs = std::filesystem;

std::atomic<bool> g_wps_interrupted{false};
std::atomic<bool> g_wps_reload{false};

extern "C" void wps_signal_handler(int) { g_wps_interrupted.store(true); }
extern "C" void wps_hup_handler(int) { g_wps_reload.store(true); }

const char* op_name(wps::QueryOp op) {
  switch (op) {
    case wps::QueryOp::kLookup: return "lookup";
    case wps::QueryOp::kNearest: return "nearest";
    case wps::QueryOp::kRange: return "range";
  }
  return "?";
}

std::string radius_cell(const std::optional<double>& radius_m) {
  return radius_m ? util::Table::fmt(*radius_m, 1) : "-";
}

void print_service_stats(const wps::ServiceStats& stats) {
  std::cout << "snapshot: " << stats.records_total << " records in "
            << stats.tiles_total << " tiles";
  if (stats.footer_recovered) std::cout << ", footer recovered by scan";
  if (stats.sections_rejected > 0) {
    std::cout << ", " << stats.sections_rejected << " sections rejected";
  }
  if (stats.tiles_quarantined > 0) {
    std::cout << ", " << stats.tiles_quarantined << " tiles ("
              << stats.records_quarantined << " records) quarantined";
  }
  if (stats.mac_index_damaged) std::cout << ", MAC index damaged (tile fallback)";
  std::cout << "\n";
}

/// Request counters both serving modes report.
struct ServeCounters {
  std::uint64_t requests = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t records_returned = 0;
  std::uint64_t response_frames = 0;
};

/// The stats-JSON members both serving modes write; the UDP tier adds its
/// "aegis" block after them. `handle_us` holds per-request handling times.
void write_serve_json(util::JsonWriter& json, const ServeCounters& counters,
                      std::optional<double> prewarm_s, const util::SampleSet& handle_us,
                      const net::WireDecoderStats& wire, const wps::ServiceStats& service) {
  json.field("requests", counters.requests)
      .field("bad_requests", counters.bad_requests)
      .field("undecodable_frames", counters.undecodable)
      .field("records_returned", counters.records_returned)
      .field("response_frames", counters.response_frames);
  json.begin_object("prewarm")
      .field("enabled", prewarm_s.has_value())
      .field("prewarm_s", prewarm_s.value_or(0.0))
      .end_object();
  json.begin_object("latency")
      .field("p50_us", handle_us.empty() ? 0.0 : handle_us.percentile(50.0))
      .field("p99_us", handle_us.empty() ? 0.0 : handle_us.percentile(99.0))
      .end_object();
  json.begin_object("wire");
  write_wire_json(json, wire);
  json.end_object();
  json.begin_object("snapshot")
      .field("records", service.records_total)
      .field("tiles", service.tiles_total)
      .field("sections_rejected", service.sections_rejected)
      .field("tiles_quarantined", service.tiles_quarantined)
      .field("records_quarantined", service.records_quarantined)
      .field("footer_recovered", service.footer_recovered)
      .field("mac_index_damaged", service.mac_index_damaged)
      .field("epoch", service.epoch)
      .field("reloads", service.reloads)
      .field("reloads_rejected", service.reloads_rejected)
      .end_object();
}

}  // namespace

int cmd_wps_build(const util::Flags& flags) {
  const std::string apdb_path = flags.get("apdb", "");
  const std::string wigle_path = flags.get("wigle", "");
  const std::string out_path = flags.get("out", "");
  if (out_path.empty() || (apdb_path.empty() == wigle_path.empty())) {
    std::cerr << "mmctl wps-build: --out and exactly one of --apdb/--wigle are required\n";
    return 2;
  }

  const geo::Geodetic origin = sim::uml_north_campus();
  const geo::EnuFrame frame(origin);
  marauder::CsvImportStats import_stats;
  auto db_result = apdb_path.empty()
                       ? marauder::ApDatabase::from_wigle_csv(wigle_path, frame, &import_stats)
                       : marauder::ApDatabase::from_csv(apdb_path, frame, &import_stats);
  if (!db_result.ok()) {
    std::cerr << "mmctl wps-build: " << db_result.error() << "\n";
    return 1;
  }
  const marauder::ApDatabase db = std::move(db_result).value();
  if (import_stats.quarantined > 0) {
    std::cerr << "import: quarantined " << import_stats.quarantined << "/"
              << import_stats.rows_total << " malformed rows\n";
  }

  wps::SnapshotBuildOptions options;
  options.tile_size_m = flags.get_double("tile-size", options.tile_size_m);
  options.mac_index = !flags.has("no-mac-index");
  options.fsync = !flags.has("no-fsync");
  if (!(options.tile_size_m > 0.0)) {
    std::cerr << "mmctl wps-build: --tile-size must be positive\n";
    return 2;
  }

  auto written = wps::write_snapshot(db, origin, out_path, options);
  if (!written.ok()) {
    std::cerr << "mmctl wps-build: " << written.error() << "\n";
    return 1;
  }
  const wps::SnapshotBuildStats& stats = written.value();
  std::cout << import_stats.rows_loaded << " rows -> " << stats.records
            << " records in " << stats.tiles << " tiles ("
            << util::Table::fmt(options.tile_size_m, 0) << " m), "
            << stats.file_bytes << " bytes"
            << (options.mac_index ? " (with MAC index)" : "") << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

namespace {

/// SIGHUP hot-swap: re-open --snapshot beside the live mmap, validate, swap
/// or roll back. Serving never stops either way.
void wps_maybe_reload(wps::Service& service, const std::string& snapshot_path) {
  if (!g_wps_reload.exchange(false)) return;
  auto swapped = service.reload(snapshot_path);
  if (swapped.ok()) {
    std::cout << "reload: snapshot hot-swapped, now epoch " << swapped.value()
              << "\n"
              << std::flush;
  } else {
    std::cout << "reload rejected (still serving epoch " << service.epoch()
              << "): " << swapped.error() << "\n"
              << std::flush;
  }
}

/// The Aegis UDP tier: one datagram in = one upstream chunk, one wire frame
/// out = one datagram back. Single-threaded datagram pump; batch execution
/// inside RemoteServer::drain() is where --threads applies.
int wps_serve_udp_loop(const util::Flags& flags, wps::Service& service,
                       const std::string& snapshot_path, std::size_t threads,
                       std::optional<double> prewarm_s) {
  using clock = std::chrono::steady_clock;
  net::UdpListenerOptions listener;
  listener.rcvbuf_bytes =
      net::clamp_rcvbuf_bytes(flags.get_int("rcvbuf", net::kDefaultRcvbufBytes));
  const int idle_ms =
      net::clamp_idle_timeout_ms(flags.get_int("idle-timeout-ms", 5000));
  std::string error;
  std::uint16_t bound_port = 0;
  const int fd = net::open_udp_listener(
      static_cast<std::uint16_t>(flags.get_int("udp", 0)), listener, error,
      &bound_port);
  if (fd < 0) {
    std::cerr << "mmctl wps-serve: " << error << "\n";
    return 1;
  }

  wps::RemoteServerOptions server_options;
  server_options.max_queue =
      static_cast<std::size_t>(flags.get_int("max-queue", 256));
  server_options.dedup_window =
      static_cast<std::size_t>(flags.get_int("dedup-window", 4096));
  server_options.threads = threads;
  wps::RemoteServer server(service, server_options);

  std::cout << "listening on 127.0.0.1:" << bound_port << " (udp), queue "
            << server_options.max_queue << ", dedup window "
            << server_options.dedup_window << "\n"
            << std::flush;

  std::signal(SIGINT, wps_signal_handler);
  std::signal(SIGTERM, wps_signal_handler);
  std::signal(SIGHUP, wps_hup_handler);

  std::vector<std::uint8_t> datagram(65536);
  std::vector<std::vector<std::uint8_t>> frames_out;
  util::SampleSet handle_us;
  std::uint64_t datagrams_in = 0;
  auto last_traffic = clock::now();

  while (!g_wps_interrupted.load()) {
    wps_maybe_reload(service, snapshot_path);
    sockaddr_in src{};
    socklen_t srclen = sizeof(src);
    const ssize_t got = ::recvfrom(fd, datagram.data(), datagram.size(), 0,
                                   reinterpret_cast<sockaddr*>(&src), &srclen);
    if (got <= 0) {
      if (g_wps_interrupted.load()) break;
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            clock::now() - last_traffic)
                            .count();
      if (idle >= idle_ms) break;
      continue;  // poll quantum elapsed (EAGAIN) or EINTR
    }
    last_traffic = clock::now();
    ++datagrams_in;
    const auto t0 = last_traffic;
    frames_out.clear();
    // One datagram handled at a time, so every frame emitted this round —
    // fresh responses, dedup replays, shed refusals alike — answers the
    // sender that just spoke; replies go straight back to `src`.
    server.on_bytes({datagram.data(), static_cast<std::size_t>(got)},
                    frames_out);
    server.drain(frames_out);
    for (const auto& f : frames_out) {
      (void)::sendto(fd, f.data(), f.size(), 0,
                     reinterpret_cast<const sockaddr*>(&src), srclen);
    }
    handle_us.add(
        std::chrono::duration<double, std::micro>(clock::now() - t0).count());
  }
  ::close(fd);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);

  const wps::RemoteServerStats& st = server.stats();

  util::Table table({"datagrams", "requests", "executed", "shed", "replayed",
                     "absorbed", "bad", "resp frames", "p99 us"});
  table.add_row(
      {std::to_string(datagrams_in), std::to_string(st.requests_decoded),
       std::to_string(st.executed), std::to_string(st.shed),
       std::to_string(st.replayed), std::to_string(st.absorbed_inflight),
       std::to_string(st.bad_requests), std::to_string(st.responses_sent),
       util::Table::fmt(handle_us.empty() ? 0.0 : handle_us.percentile(99.0), 1)});
  table.print(std::cout);

  const std::string json_path = flags.get("stats-json", "");
  const ServeCounters counters{.requests = st.requests_decoded,
                                .bad_requests = st.bad_requests,
                                .response_frames = st.responses_sent};
  const wps::DedupStats& dedup = server.dedup_stats();
  if (!json_path.empty() && !write_report_file(json_path, [&](util::JsonWriter& json) {
        json.begin_object();
        write_serve_json(json, counters, prewarm_s, handle_us, server.decoder_stats(),
                         service.stats());
        json.begin_object("aegis")
            .field("executed", st.executed)
            .field("shed", st.shed)
            .field("replayed", st.replayed)
            .field("absorbed_inflight", st.absorbed_inflight)
            .field("responses_sent", st.responses_sent)
            .field("dedup_hits", dedup.hits)
            .field("dedup_misses", dedup.misses)
            .field("dedup_evictions", dedup.evictions)
            .end_object();
        json.end_object();
      })) {
    return 1;
  }
  return g_wps_interrupted.load() ? 130 : 0;
}

}  // namespace

int cmd_wps_serve(const util::Flags& flags) {
  const std::string snapshot_path = flags.get("snapshot", "");
  const bool udp_mode = flags.has("udp");
  const std::string in_path = flags.get("in", "");
  const std::string out_path = flags.get("out", "");
  if (snapshot_path.empty() ||
      (!udp_mode && (in_path.empty() || out_path.empty()))) {
    std::cerr << "mmctl wps-serve: --snapshot plus either --udp PORT or "
                 "--in/--out are required\n";
    return 2;
  }
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 1));

  auto opened = wps::Service::open(snapshot_path);
  if (!opened.ok()) {
    std::cerr << "mmctl wps-serve: --snapshot: " << opened.error() << "\n";
    return 1;
  }
  wps::Service service = std::move(opened).value();
  print_service_stats(service.stats());

  std::optional<double> prewarm_s;
  if (flags.has("prewarm")) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t usable = service.prewarm(threads);
    prewarm_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::cout << "prewarm: " << usable << " tiles verified+indexed in "
              << util::Table::fmt(*prewarm_s, 3) << " s\n";
  }

  if (udp_mode) {
    return wps_serve_udp_loop(flags, service, snapshot_path, threads, prewarm_s);
  }

  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::cerr << "mmctl wps-serve: cannot open --in " << in_path << "\n";
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << "mmctl wps-serve: cannot open --out " << out_path << "\n";
    return 1;
  }

  std::signal(SIGINT, wps_signal_handler);
  std::signal(SIGTERM, wps_signal_handler);
  std::signal(SIGHUP, wps_hup_handler);

  struct PendingRequest {
    std::uint32_t stream_id = 0;
    std::uint64_t seq = 0;
    wps::QueryRequest request;
  };

  net::WireDecoder decoder;
  ServeCounters counters;
  std::uint64_t op_counts[4] = {0, 0, 0, 0};
  util::SampleSet handle_us;

  constexpr std::size_t kChunkBytes = 4096;
  std::vector<std::uint8_t> chunk(kChunkBytes);
  std::vector<std::uint8_t> wire_out;
  std::vector<PendingRequest> batch;
  std::vector<wps::QueryResponse> responses;
  net::WireFrame frame;

  // Each read's worth of requests executes as one concurrent batch, but the
  // responses are written back in request order — a client replaying the
  // same request stream reads a byte-identical response stream at any
  // --threads.
  while (!g_wps_interrupted.load()) {
    wps_maybe_reload(service, snapshot_path);
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(kChunkBytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    decoder.feed({chunk.data(), got});

    batch.clear();
    while (decoder.next(frame)) {
      if (frame.type != net::WireFrameType::kData) continue;  // parity: not ours
      const auto request = wps::decode_request(frame.payload);
      if (!request) {
        ++counters.undecodable;
        continue;
      }
      batch.push_back({frame.stream_id, frame.seq, *request});
    }
    if (batch.empty()) continue;

    responses.assign(batch.size(), wps::QueryResponse{});
    const auto batch_t0 = std::chrono::steady_clock::now();
    util::parallel_map_into(util::ThreadPool::shared(), threads, responses,
                            [&](std::size_t i) {
                              return wps::execute_query(service, batch[i].request);
                            });
    // Batches execute as a unit; attribute the wall time evenly so the
    // latency percentiles in the stats JSON stay per-request quantities.
    const double batch_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - batch_t0)
                                .count();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      handle_us.add(batch_us / static_cast<double>(batch.size()));
    }

    wire_out.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++counters.requests;
      ++op_counts[static_cast<std::size_t>(batch[i].request.op) & 3];
      if (responses[i].status != wps::QueryStatus::kOk) ++counters.bad_requests;
      counters.records_returned += responses[i].aps.size();
      const auto frames =
          wps::encode_response(responses[i], batch[i].stream_id, batch[i].seq);
      counters.response_frames += frames.size();
      for (const net::WireFrame& f : frames) net::append_wire_frame(f, wire_out);
    }
    out.write(reinterpret_cast<const char*>(wire_out.data()),
              static_cast<std::streamsize>(wire_out.size()));
    out.flush();  // a FIFO client is waiting on these bytes
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGHUP, SIG_DFL);
  if (!out) {
    std::cerr << "mmctl wps-serve: write failed for " << out_path << "\n";
    return 1;
  }

  const net::WireDecoderStats& wire = decoder.stats();
  util::Table table({"requests", "lookup", "nearest", "range", "bad", "undecodable",
                     "records out", "resp frames", "resync B", "crc fail"});
  table.add_row({std::to_string(counters.requests), std::to_string(op_counts[1]),
                 std::to_string(op_counts[2]), std::to_string(op_counts[3]),
                 std::to_string(counters.bad_requests), std::to_string(counters.undecodable),
                 std::to_string(counters.records_returned),
                 std::to_string(counters.response_frames),
                 std::to_string(wire.resync_bytes), std::to_string(wire.crc_failures)});
  table.print(std::cout);
  if (decoder.buffered() > 0) {
    std::cout << decoder.buffered() << " bytes of torn tail left in the request stream\n";
  }

  const std::string json_path = flags.get("stats-json", "");
  if (!json_path.empty() && !write_report_file(json_path, [&](util::JsonWriter& json) {
        json.begin_object();
        write_serve_json(json, counters, prewarm_s, handle_us, wire, service.stats());
        json.end_object();
      })) {
    return 1;
  }
  return g_wps_interrupted.load() ? 130 : 0;
}

namespace {

/// Shared --op/--bssid/--k/--x/--y/--radius surface of `wps-query encode`
/// and `wps-query send`. Returns 0, or 2 after printing a usage error.
int parse_query_request(const util::Flags& flags, const char* who,
                        wps::QueryRequest& request) {
  const std::string op_text = flags.get("op", "");
  if (op_text == "lookup") {
    request.op = wps::QueryOp::kLookup;
    const auto mac = net80211::MacAddress::parse(flags.get("bssid", ""));
    if (!mac) {
      std::cerr << who << ": lookup needs --bssid aa:bb:cc:dd:ee:ff\n";
      return 2;
    }
    request.bssid = mac->to_u64();
  } else if (op_text == "nearest") {
    request.op = wps::QueryOp::kNearest;
    request.k = static_cast<std::uint16_t>(flags.get_int("k", 8));
    request.center = {flags.get_double("x", 0.0), flags.get_double("y", 0.0)};
  } else if (op_text == "range") {
    request.op = wps::QueryOp::kRange;
    request.center = {flags.get_double("x", 0.0), flags.get_double("y", 0.0)};
    request.radius_m = flags.get_double("radius", 0.0);
  } else {
    std::cerr << who << ": --op must be lookup|nearest|range\n";
    return 2;
  }
  return 0;
}

int wps_query_encode(const util::Flags& flags) {
  const std::string out_path = flags.get("out", "");
  if (out_path.empty()) {
    std::cerr << "mmctl wps-query encode: --out is required\n";
    return 2;
  }
  const std::string op_text = flags.get("op", "");
  wps::QueryRequest request;
  if (const int rc = parse_query_request(flags, "mmctl wps-query encode", request);
      rc != 0) {
    return rc;
  }

  net::WireFrame frame;
  frame.stream_id = static_cast<std::uint32_t>(flags.get_int("stream-id", 1));
  frame.seq = static_cast<std::uint64_t>(flags.get_int("seq", 1));
  frame.payload = wps::encode_request(request);
  std::vector<std::uint8_t> bytes;
  net::append_wire_frame(frame, bytes);

  // Append, so successive invocations build one request stream.
  std::ofstream out(out_path, std::ios::binary | std::ios::app);
  if (!out) {
    std::cerr << "mmctl wps-query encode: cannot open --out " << out_path << "\n";
    return 1;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::cerr << "mmctl wps-query encode: write failed for " << out_path << "\n";
    return 1;
  }
  std::cout << "request " << frame.seq << " (" << op_text << ") -> " << out_path
            << "\n";
  return 0;
}

int wps_query_decode(const util::Flags& flags) {
  const std::string in_path = flags.get("in", "");
  if (in_path.empty()) {
    std::cerr << "mmctl wps-query decode: --in is required\n";
    return 2;
  }
  const auto max_rows = static_cast<std::size_t>(flags.get_int("max-rows", 20));

  std::ifstream in(in_path, std::ios::binary);
  if (!in) {
    std::cerr << "mmctl wps-query decode: cannot open --in " << in_path << "\n";
    return 1;
  }

  net::WireDecoder decoder;
  wps::ResponseAssembler assembler;
  std::vector<std::uint64_t> completed;  // arrival order
  constexpr std::size_t kChunkBytes = 4096;
  std::vector<std::uint8_t> chunk(kChunkBytes);
  net::WireFrame frame;
  while (true) {
    in.read(reinterpret_cast<char*>(chunk.data()),
            static_cast<std::streamsize>(kChunkBytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    decoder.feed({chunk.data(), got});
    while (decoder.next(frame)) {
      if (const auto seq = assembler.feed(frame)) completed.push_back(*seq);
    }
  }

  for (const std::uint64_t seq : completed) {
    const auto response = assembler.take(seq);
    if (!response) continue;
    std::cout << "response seq " << seq << ": " << op_name(response->op) << ", "
              << (response->status == wps::QueryStatus::kOk ? "ok" : "bad request")
              << ", " << response->aps.size() << " record"
              << (response->aps.size() == 1 ? "" : "s") << "\n";
    if (response->aps.empty()) continue;
    util::Table table({"bssid", "x (m)", "y (m)", "radius (m)"});
    for (std::size_t i = 0; i < response->aps.size() && i < max_rows; ++i) {
      const wps::WpsAp& ap = response->aps[i];
      table.add_row({ap.bssid.to_string(), util::Table::fmt(ap.position.x, 1),
                     util::Table::fmt(ap.position.y, 1), radius_cell(ap.radius_m)});
    }
    table.print(std::cout);
    if (response->aps.size() > max_rows) {
      std::cout << "... " << response->aps.size() - max_rows << " more\n";
    }
  }

  const net::WireDecoderStats& wire = decoder.stats();
  std::cout << completed.size() << " responses (" << assembler.pending()
            << " incomplete), " << wire.frames_decoded << " frames, "
            << assembler.chunks_rejected() << " chunks rejected, "
            << wire.resync_bytes << " resync bytes\n";

  if (flags.has("expect")) {
    const auto expect = static_cast<std::size_t>(flags.get_int("expect", 0));
    if (completed.size() < expect) {
      std::cerr << "mmctl wps-query decode: expected >= " << expect
                << " responses, got " << completed.size() << "\n";
      return 1;
    }
  }
  return 0;
}

/// `wps-query send`: the Aegis RemoteClient over a live UDP socket. The same
/// event-driven state machine the chaos tests pump on a virtual clock runs
/// here on steady_clock milliseconds; --link-plan optionally damages the
/// outbound direction in-process before the datagrams ever leave.
int wps_query_send(const util::Flags& flags) {
  const std::string spec = flags.get("udp", "");
  if (spec.empty()) {
    std::cerr << "mmctl wps-query send: --udp host:port is required\n";
    return 2;
  }
  wps::QueryRequest request;
  if (const int rc = parse_query_request(flags, "mmctl wps-query send", request);
      rc != 0) {
    return rc;
  }

  wps::RemoteClientOptions options;
  options.stream_id = static_cast<std::uint32_t>(flags.get_int("stream-id", 1));
  options.retry.max_attempts = static_cast<int>(
      flags.get_int("retries", options.retry.max_attempts));
  options.retry.timeout_ms = static_cast<std::uint64_t>(flags.get_int(
      "timeout-ms", static_cast<std::int64_t>(options.retry.timeout_ms)));
  options.retry.seed = flags.get_seed(options.retry.seed);
  if (options.retry.max_attempts < 1 || options.retry.timeout_ms == 0) {
    std::cerr << "mmctl wps-query send: --retries and --timeout-ms must be positive\n";
    return 2;
  }

  std::optional<net::LinkSimulator> link;
  if (flags.has("link-plan")) {
    auto parsed = fault::FaultPlan::parse(flags.get("link-plan", ""));
    if (!parsed.ok()) {
      std::cerr << "mmctl wps-query send: --link-plan: " << parsed.error() << "\n";
      return 2;
    }
    link.emplace(parsed.value());
  }

  std::string error;
  const int fd = net::open_udp_sender(spec, error);
  if (fd < 0) {
    std::cerr << "mmctl wps-query send: " << error << "\n";
    return 1;
  }
  timeval tv{};
  tv.tv_usec = 20 * 1000;  // 20 ms poll quantum keeps the retry clock live
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  wps::RemoteClient client(options);
  const auto t_start = std::chrono::steady_clock::now();
  const auto now_ms = [&t_start] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t_start)
            .count());
  };

  const auto count = static_cast<std::size_t>(flags.get_int("count", 1));
  for (std::size_t i = 0; i < count; ++i) client.issue(request, now_ms());

  std::signal(SIGINT, wps_signal_handler);
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> buf(65536);
  while (!client.idle() && !g_wps_interrupted.load()) {
    frames.clear();
    client.tick(now_ms(), frames);
    for (const auto& f : frames) {
      if (link) {
        // The simulator may drop, duplicate, or re-emit parked frames; its
        // whole output for this send goes out as one datagram — the server's
        // resynchronizing decoder owes the wire no framing alignment.
        link->send({f.data(), f.size()});
        const auto bytes = link->take();
        if (!bytes.empty()) (void)::send(fd, bytes.data(), bytes.size(), 0);
      } else {
        (void)::send(fd, f.data(), f.size(), 0);
      }
    }
    const ssize_t got = ::recv(fd, buf.data(), buf.size(), 0);
    if (got > 0) {
      client.on_bytes({buf.data(), static_cast<std::size_t>(got)}, now_ms());
    }
  }
  ::close(fd);
  std::signal(SIGINT, SIG_DFL);

  const auto outcomes = client.drain();
  std::size_t ok_answers = 0;
  for (const wps::Outcome& o : outcomes) {
    std::cout << "request " << o.request_id << ": ";
    switch (o.kind) {
      case wps::OutcomeKind::kAnswered:
        if (o.response.status == wps::QueryStatus::kOk) {
          ++ok_answers;
          std::cout << "answered, " << o.response.aps.size() << " record"
                    << (o.response.aps.size() == 1 ? "" : "s");
        } else {
          std::cout << "answered (bad request)";
        }
        break;
      case wps::OutcomeKind::kShed: std::cout << "shed by server"; break;
      case wps::OutcomeKind::kTimedOut: std::cout << "timed out"; break;
      case wps::OutcomeKind::kCircuitOpen: std::cout << "circuit open"; break;
    }
    std::cout << " after " << o.attempts << " attempt"
              << (o.attempts == 1 ? "" : "s") << " in "
              << (o.completed_ms - o.issued_ms) << " ms\n";
  }

  const wps::RemoteClientStats& st = client.stats();
  util::Table table({"issued", "answered", "shed", "timed out", "circuit",
                     "tx", "retx", "retry-after", "stale"});
  table.add_row({std::to_string(st.issued), std::to_string(st.answered),
                 std::to_string(st.shed), std::to_string(st.timed_out),
                 std::to_string(st.circuit_open),
                 std::to_string(st.transmissions),
                 std::to_string(st.retransmissions),
                 std::to_string(st.retry_after_seen),
                 std::to_string(st.stale_responses)});
  table.print(std::cout);

  if (flags.has("expect-ok")) {
    const auto expect = static_cast<std::size_t>(flags.get_int("expect-ok", 0));
    if (ok_answers < expect) {
      std::cerr << "mmctl wps-query send: expected >= " << expect
                << " ok answers, got " << ok_answers << "\n";
      return 1;
    }
  }
  return g_wps_interrupted.load() ? 130 : 0;
}

}  // namespace

int cmd_wps_query(const util::Flags& flags) {
  const auto& positional = flags.positional();
  const std::string mode = positional.empty() ? "" : positional.front();
  if (mode == "encode") return wps_query_encode(flags);
  if (mode == "decode") return wps_query_decode(flags);
  if (mode == "send") return wps_query_send(flags);
  std::cerr << "mmctl wps-query: first argument must be 'encode', 'decode', or 'send'\n";
  return 2;
}

int cmd_wps_surveil(const util::Flags& flags) {
  wps::SurveilOptions options;
  options.seed = flags.get_seed(options.seed);
  options.fixed_ap_count =
      static_cast<std::size_t>(flags.get_int("fixed-aps", static_cast<std::int64_t>(options.fixed_ap_count)));
  options.device_count =
      static_cast<std::size_t>(flags.get_int("devices", static_cast<std::int64_t>(options.device_count)));
  options.duration_s = flags.get_double("duration-hours", options.duration_s / 3600.0) * 3600.0;
  options.snapshot_refresh_s =
      flags.get_double("refresh-hours", options.snapshot_refresh_s / 3600.0) * 3600.0;
  options.query_interval_s =
      flags.get_double("sweep-hours", options.query_interval_s / 3600.0) * 3600.0;
  options.speed_mps = flags.get_double("speed", options.speed_mps);
  options.ap_density_per_km2 = flags.get_double("density", options.ap_density_per_km2);
  options.nearest_k = static_cast<std::size_t>(flags.get_int("k", static_cast<std::int64_t>(options.nearest_k)));
  options.tile_size_m = flags.get_double("tile-size", options.tile_size_m);
  const auto top = static_cast<std::size_t>(flags.get_int("top", 10));

  fs::path workdir = flags.get("workdir", "");
  if (workdir.empty()) workdir = fs::temp_directory_path() / "mm_wps_surveil";
  std::error_code ec;
  fs::create_directories(workdir, ec);
  if (ec) {
    std::cerr << "mmctl wps-surveil: cannot create --workdir " << workdir << ": "
              << ec.message() << "\n";
    return 1;
  }

  auto result = wps::run_surveillance(workdir, options);
  if (!result.ok()) {
    std::cerr << "mmctl wps-surveil: " << result.error() << "\n";
    return 1;
  }
  const wps::SurveilReport report = std::move(result).value();

  std::cout << "replayed " << util::Table::fmt(options.duration_s / 3600.0, 1)
            << " h of movement: " << report.epochs << " snapshot epochs, "
            << report.queries_issued << " queries ("
            << report.lookup_hits << " lookup hits), last snapshot "
            << report.snapshot_bytes << " bytes\n";
  std::cout << report.devices_sighted << "/" << report.devices_total
            << " devices sighted, " << report.devices_tracked
            << " tracked across tiles ("
            << util::Table::fmt(report.mean_tiles_per_device, 2)
            << " tiles/device mean), " << report.infrastructure_seen
            << " fixed APs harvested\n\n";

  // The movement map the query interface alone reconstructed: most-tracked
  // devices first.
  std::vector<const wps::DeviceTrack*> ranked;
  ranked.reserve(report.tracks.size());
  for (const wps::DeviceTrack& track : report.tracks) ranked.push_back(&track);
  std::sort(ranked.begin(), ranked.end(),
            [](const wps::DeviceTrack* a, const wps::DeviceTrack* b) {
              if (a->distinct_tiles != b->distinct_tiles)
                return a->distinct_tiles > b->distinct_tiles;
              if (a->sightings != b->sightings) return a->sightings > b->sightings;
              return a->bssid < b->bssid;
            });
  util::Table table({"device", "sightings", "tiles", "path (m)"});
  for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
    table.add_row({net80211::MacAddress::from_u64(ranked[i]->bssid).to_string(),
                   std::to_string(ranked[i]->sightings),
                   std::to_string(ranked[i]->distinct_tiles),
                   util::Table::fmt(ranked[i]->path_length_m, 0)});
  }
  table.print(std::cout);

  const std::string json_path = flags.get("stats-json", "");
  if (!json_path.empty() && !write_report_file(json_path, [&](util::JsonWriter& json) {
        json.begin_object()
            .field("epochs", report.epochs)
            .field("queries_issued", report.queries_issued)
            .field("lookup_hits", report.lookup_hits)
            .field("infrastructure_seen", report.infrastructure_seen)
            .field("devices_total", report.devices_total)
            .field("devices_sighted", report.devices_sighted)
            .field("devices_tracked", report.devices_tracked)
            .field("mean_tiles_per_device", report.mean_tiles_per_device)
            .field("snapshot_bytes", report.snapshot_bytes)
            .end_object();
      })) {
    return 1;
  }
  return 0;
}

}  // namespace mm::tools
