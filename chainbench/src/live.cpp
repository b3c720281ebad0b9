// live_fabric: synthetic city traffic from several remote sniffers, through
// the lossy sensor fabric into the sharded live tracker with the WAL on.
//
// Setup generates the traffic (devices hop between AP neighbourhoods, so
// their Gammas grow; a tenth of them rotate MACs while their 802.11 sequence
// counters keep counting), encodes each sniffer's feed with XOR-parity FEC,
// drags it through a seeded lossy link, and cuts the damaged bytes into
// chunks. A decode-only pass over the same chunks gives net.decode_s, checks
// that every released event is bit-identical to the one sent, and builds the
// oracle store the tracker must end up with.
//
// Each pass, on a fresh tracker and WAL directory:
//   1. saturating phase: the pump thread feeds the first chunks through the
//      SnifferFeedMux as fast as it can; result_s is the time until every
//      released event has been applied, items_per_s the median rate over
//      100k-event segments;
//   2. open-loop phase: the remaining chunks are sent on a fixed schedule
//      (offered_rate events/s) while one reader thread calls locate() and
//      locate_identity() at a fixed rate; each event's latency runs from its
//      chunk's due time until its shard has applied it (the pump spins on the
//      shards' applied counts between sends);
//   3. stop(), then recover() into a fresh tracker from the WAL and
//      checkpoints the run left behind.
// Threads: pump + reader + shards = nproc (two shards on four cores).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "capture/frame_event.h"
#include "common.h"
#include "fault/fault_plan.h"
#include "marauder/ap_database.h"
#include "marauder/identity.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "net/wire_codec.h"
#include "pipeline/feed_mux.h"
#include "pipeline/live_tracker.h"
#include "trace.h"
#include "util/rng.h"

namespace chainbench {
namespace {

using namespace mm;
namespace fs = std::filesystem;

struct LiveSize {
  std::size_t aps;
  std::size_t devices;
  std::size_t saturating_events;
  std::size_t open_loop_events;
  double offered_rate;   ///< events/s in the open-loop phase
  double read_rate;      ///< reader calls/s in the open-loop phase
};

constexpr std::size_t kFeeds = 4;
constexpr std::size_t kFecK = 8;
constexpr std::size_t kChunkBytes = 4096;

/// One chunk of damaged wire bytes, in pump order.
struct Chunk {
  std::uint32_t feed = 0;
  std::size_t offset = 0;
  std::size_t size = 0;
  /// Events the mux releases while consuming this chunk, per shard.
  std::vector<std::uint32_t> released;
  std::uint32_t released_total = 0;
};

class LiveFabric final : public Workload {
 public:
  explicit LiveFabric(const Options& options) : options_(options) {
    size_ = options.smoke ? LiveSize{200, 500, 20'000, 10'000, 20'000.0, 2'000.0}
                          : LiveSize{4000, 20'000, 800'000, 100'000, 100'000.0, 10'000.0};
    shards_ = options.hw_cores > 3 ? options.hw_cores - 2 : 1;
  }

  void setup() override {
    generate_city();
    generate_traffic();
    encode_feeds();
    decode_only_pass();
  }

  void run_pass(std::size_t pass, PassOutput& out, Gates& gates) override;

 private:
  void generate_city();
  void generate_traffic();
  void encode_feeds();
  void decode_only_pass();
  [[nodiscard]] pipeline::LiveTrackerConfig tracker_config(const fs::path& dir) const;
  /// The recovered tracker equals the uninterrupted one: positions, store
  /// slices and resolved identities.
  void check_recovered(const pipeline::LiveTracker& live, const pipeline::LiveTracker& recovered,
                       Gates& gates) const;

  Options options_;
  LiveSize size_;
  std::size_t shards_ = 2;

  marauder::ApDatabase db_;
  std::vector<net80211::MacAddress> ap_macs_;
  std::vector<std::vector<std::uint32_t>> neighbours_;  ///< per anchor AP
  std::vector<std::vector<capture::FrameEvent>> sent_;  ///< per feed, seq-1 indexed
  std::vector<std::vector<std::uint8_t>> wire_;         ///< per feed, after the link
  std::vector<net::FecEncoderStats> encoder_stats_;
  std::vector<net::LinkStats> link_stats_;
  std::vector<Chunk> chunks_;
  std::size_t saturating_chunks_ = 0;
  std::vector<net80211::MacAddress> read_macs_;  ///< devices the reader asks about
  capture::ObservationStore expected_;           ///< oracle: every released event applied
  std::uint64_t released_total_ = 0;
  std::uint64_t released_mismatches_ = 0;
};

void LiveFabric::generate_city() {
  util::Rng rng(util::hash_combine(options_.seed, 0x11fe));
  // ~1 AP per 60x60 m; radii known (a WiGLE-style database).
  const double half = 30.0 * std::sqrt(static_cast<double>(size_.aps));
  db_ = marauder::ApDatabase();
  ap_macs_.clear();
  std::vector<geo::Vec2> pos;
  for (std::size_t i = 0; i < size_.aps; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(0x02a100000000ULL + i);
    ap.position = {rng.uniform(-half, half), rng.uniform(-half, half)};
    ap.radius_m = rng.uniform(60.0, 120.0);
    pos.push_back(ap.position);
    ap_macs_.push_back(ap.bssid);
    db_.add(std::move(ap));
  }
  // Neighbourhood of each anchor AP: the APs within 90 m of it, itself first.
  neighbours_.assign(size_.aps, {});
  const double cell = 90.0;
  std::map<std::pair<long, long>, std::vector<std::uint32_t>> grid;
  const auto key = [&](geo::Vec2 p) {
    return std::pair<long, long>{static_cast<long>(std::floor(p.x / cell)),
                                 static_cast<long>(std::floor(p.y / cell))};
  };
  for (std::uint32_t i = 0; i < pos.size(); ++i) grid[key(pos[i])].push_back(i);
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    neighbours_[i].push_back(i);
    const auto [cx, cy] = key(pos[i]);
    for (long dx = -1; dx <= 1; ++dx) {
      for (long dy = -1; dy <= 1; ++dy) {
        const auto it = grid.find({cx + dx, cy + dy});
        if (it == grid.end()) continue;
        for (const std::uint32_t j : it->second) {
          if (j != i && pos[i].distance_to(pos[j]) <= cell) neighbours_[i].push_back(j);
        }
      }
    }
  }
}

void LiveFabric::generate_traffic() {
  util::Rng rng(util::hash_combine(options_.seed, 0x7aff));
  struct Device {
    std::uint64_t mac;
    std::uint32_t anchor;
    std::uint16_t seq;
    std::uint32_t events;
    bool rotates;
    int ssid;  ///< directed SSID index, -1 = broadcast probes only
  };
  std::vector<Device> devices(size_.devices);
  std::uint64_t next_mac = 0x0016f0000000ULL;
  for (auto& d : devices) {
    d.mac = next_mac++;
    d.anchor = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size_.aps) - 1));
    d.seq = static_cast<std::uint16_t>(rng.uniform_int(0, 4095));
    d.events = 0;
    d.rotates = rng.bernoulli(0.1);
    d.ssid = rng.bernoulli(0.3) ? static_cast<int>(rng.uniform_int(0, 99'999)) : -1;
  }
  // Each sniffer covers one quadrant of the city; an event goes to the feed
  // of the AP (contacts) or anchor (probes) it was heard at.
  const auto feed_of = [&](std::uint32_t ap) {
    const geo::Vec2 p = db_.find(ap_macs_[ap])->position;
    return static_cast<std::size_t>((p.x >= 0.0 ? 1 : 0) + (p.y >= 0.0 ? 2 : 0)) % kFeeds;
  };
  sent_.assign(kFeeds, {});
  const std::size_t total = size_.saturating_events + size_.open_loop_events;
  for (std::size_t i = 0; i < total; ++i) {
    Device& d = devices[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(devices.size()) - 1))];
    if (rng.bernoulli(0.03)) {  // walk on to a neighbouring AP's area
      const auto& nb = neighbours_[d.anchor];
      d.anchor = nb[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nb.size()) - 1))];
    }
    if (d.rotates && ++d.events % 40 == 0) d.mac = next_mac++;  // fresh pseudonym
    capture::FrameEvent ev;
    ev.device = net80211::MacAddress::from_u64(d.mac);
    ev.time_s = static_cast<double>(i) * 1e-3;
    ev.rssi_dbm = rng.uniform(-90.0, -40.0);
    std::uint32_t heard_at = d.anchor;
    if (rng.bernoulli(0.25)) {
      ev.kind = capture::FrameEventKind::kProbeRequest;
      d.seq = static_cast<std::uint16_t>((d.seq + 1) & 0xFFF);
      ev.device_seq = d.seq;
      if (d.ssid >= 0 && rng.bernoulli(0.5)) {
        ev.set_ssid("net-" + std::to_string(d.ssid));
      }
    } else {
      const auto& nb = neighbours_[d.anchor];
      heard_at = nb[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(std::min<std::size_t>(nb.size(), 6)) - 1))];
      ev.kind = capture::FrameEventKind::kContact;
      ev.ap = ap_macs_[heard_at];
    }
    auto& feed = sent_[feed_of(heard_at)];
    ev.stream_seq = feed.size() + 1;  // the decoder re-stamps released events with it
    feed.push_back(ev);
  }
  read_macs_.clear();
  for (std::size_t i = 0; i < devices.size(); i += 7) {
    read_macs_.push_back(net80211::MacAddress::from_u64(devices[i].mac));
  }
}

void LiveFabric::encode_feeds() {
  wire_.assign(kFeeds, {});
  encoder_stats_.clear();
  link_stats_.clear();
  for (std::size_t f = 0; f < kFeeds; ++f) {
    fault::FaultPlan plan;
    plan.drop_rate = 0.01;
    plan.corrupt_rate = 0.005;
    plan.duplicate_rate = 0.005;
    plan.reorder_rate = 0.02;
    plan.seed = util::hash_combine(options_.seed, 0x1170 + f);
    net::LinkSimulator link(plan);
    net::FecEncoder encoder(static_cast<std::uint32_t>(f + 1), kFecK);
    // Frame by frame, as a sender puts them on the link: append_wire_frame
    // reserves exactly the frame it appends, so encoding a whole stream into
    // one growing buffer would reallocate it on every frame.
    std::vector<std::uint8_t> frames;
    const auto send = [&] {
      net::for_each_wire_frame(frames, [&](std::span<const std::uint8_t> fr) { link.send(fr); });
      frames.clear();
    };
    for (const auto& ev : sent_[f]) {
      {
        Span span("net.encode");
        encoder.push(ev.stream_seq, ev, frames);
      }
      send();
    }
    encoder.flush(frames);
    send();
    link.flush();
    wire_[f] = link.take();
    encoder_stats_.push_back(encoder.stats());
    link_stats_.push_back(link.stats());
  }
  // Pump order: feeds round-robin, one chunk each, until all are drained.
  chunks_.clear();
  std::vector<std::size_t> off(kFeeds, 0);
  for (bool more = true; more;) {
    more = false;
    for (std::uint32_t f = 0; f < kFeeds; ++f) {
      if (off[f] >= wire_[f].size()) continue;
      Chunk c;
      c.feed = f;
      c.offset = off[f];
      c.size = std::min(kChunkBytes, wire_[f].size() - off[f]);
      off[f] += c.size;
      chunks_.push_back(std::move(c));
      more = true;
    }
  }
}

void LiveFabric::decode_only_pass() {
  // The same decoders the mux runs, over the same chunks in the same order,
  // so the release order (and the mux's global sequence) is reproduced.
  pipeline::LiveTracker partition(db_, tracker_config({}));  // for shard_for() only
  std::vector<net::WireDecoder> wire(kFeeds);
  std::vector<net::FecDecoder> fec(kFeeds);
  expected_.clear();
  released_total_ = 0;
  released_mismatches_ = 0;
  std::uint64_t global_seq = 0;
  std::vector<capture::FrameEvent> released;
  const auto release = [&](std::size_t f, Chunk* chunk) {
    capture::FrameEvent ev;
    while (fec[f].next(ev)) {
      const std::uint64_t s = ev.stream_seq;
      if (s == 0 || s > sent_[f].size() || !same_event(ev, sent_[f][s - 1])) {
        ++released_mismatches_;
      }
      ev.stream_seq = ++global_seq;
      released.push_back(ev);
      if (chunk != nullptr) {
        ++chunk->released[partition.shard_for(ev.partition_key())];
        ++chunk->released_total;
      }
    }
  };
  {
    Span span("net.decode");
    for (Chunk& c : chunks_) {
      c.released.assign(shards_, 0);
      c.released_total = 0;
      wire[c.feed].feed({wire_[c.feed].data() + c.offset, c.size});
      net::WireFrame frame;
      while (wire[c.feed].next(frame)) {
        if (frame.stream_id != c.feed + 1) continue;
        fec[c.feed].push(frame);
        release(c.feed, &c);
      }
    }
    for (std::size_t f = 0; f < kFeeds; ++f) {
      fec[f].finish();
      release(f, nullptr);  // released by mux.finish()
    }
  }
  // --break-oracle: the oracle's first event carries a later timestamp than
  // the one sent, so its device's record must differ from the tracker's.
  if (options_.break_oracle && !released.empty()) released.front().time_s += 0.5;
  for (const auto& ev : released) capture::apply_event(ev, expected_);
  released_total_ = released.size();
  // The saturating phase covers the first chunks holding saturating_events.
  std::uint64_t acc = 0;
  saturating_chunks_ = chunks_.size();
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    acc += chunks_[i].released_total;
    if (acc >= size_.saturating_events) {
      saturating_chunks_ = i + 1;
      break;
    }
  }
}

pipeline::LiveTrackerConfig LiveFabric::tracker_config(const fs::path& dir) const {
  pipeline::LiveTrackerConfig config;
  config.shards = shards_;
  config.drop_policy = pipeline::DropPolicy::kBlock;
  config.durability.dir = dir;
  config.durability.wal.fsync_on_commit = false;
  config.durability.checkpoint_save.fsync = false;
  config.durability.checkpoint_interval_s = 0.0;
  return config;
}

void LiveFabric::check_recovered(const pipeline::LiveTracker& live,
                                 const pipeline::LiveTracker& recovered, Gates& gates) const {
  auto want = live.snapshot();
  auto got = recovered.snapshot();
  const auto by_mac = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(want.begin(), want.end(), by_mac);
  std::sort(got.begin(), got.end(), by_mac);
  std::size_t pos_mismatch = want.size() == got.size() ? 0 : 1;
  for (std::size_t i = 0; pos_mismatch == 0 && i < want.size(); ++i) {
    if (want[i].first != got[i].first || !same_position(want[i].second, got[i].second)) {
      ++pos_mismatch;
    }
  }
  gates.add_attempted(want.size());
  gates.add_failed(pos_mismatch, "live: recovered positions differ from uninterrupted");
  gates.add_attempted(expected_.device_count());
  gates.add_failed(count_mismatched_devices(recovered, expected_),
                   "live: recovered store differs from uninterrupted");
  marauder::ResolverOptions ro;
  ro.signals = marauder::ResolverSignals::all();
  gates.check(same_identities(live.resolve_identities(ro), recovered.resolve_identities(ro)),
              "live: recovered identities differ from uninterrupted");
}

void LiveFabric::run_pass(std::size_t pass, PassOutput& out, Gates& gates) {
  const fs::path dir = options_.work_dir / ("live-" + std::to_string(pass));
  fs::remove_all(dir);
  fs::create_directories(dir);
  pipeline::LiveTracker tracker(db_, tracker_config(dir));
  tracker.start();
  pipeline::SnifferFeedMux mux(tracker);
  for (std::uint32_t f = 0; f < kFeeds; ++f) mux.add_feed(f + 1);

  const auto applied = [&](std::size_t s) { return tracker.shard_health(s).frames; };
  const auto applied_total = [&] {
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < shards_; ++s) n += applied(s);
    return n;
  };
  const auto pump = [&](const Chunk& c) {
    Span span("pipeline.mux.on_bytes");
    mux.on_bytes(c.feed, {wire_[c.feed].data() + c.offset, c.size});
  };

  // --- 1. saturating phase ---
  // items_per_s is the median rate over segments of kSegmentEvents released
  // events (pump-side, so it is the shards' rate once the rings are full);
  // the median keeps a brief stall of the machine from deciding the figure.
  constexpr std::uint64_t kSegmentEvents = 100'000;
  std::uint64_t sat_events = 0;
  double backlog_max = 0.0;
  std::vector<double> segment_rates;
  const auto t0 = Clock::now();
  auto segment_start = t0;
  std::uint64_t segment_events = 0;
  for (std::size_t i = 0; i < saturating_chunks_; ++i) {
    pump(chunks_[i]);
    sat_events += chunks_[i].released_total;
    segment_events += chunks_[i].released_total;
    if (segment_events >= kSegmentEvents) {
      const auto now = Clock::now();
      segment_rates.push_back(static_cast<double>(segment_events) /
                              seconds_between(segment_start, now));
      segment_start = now;
      segment_events = 0;
    }
    if (i % 64 == 0) {
      backlog_max = std::max(backlog_max, static_cast<double>(sat_events - applied_total()));
    }
  }
  while (applied_total() < sat_events) std::this_thread::yield();
  const double result_s = seconds_since(t0);

  // --- 2. open-loop phase with one reader ---
  marauder::ResolverOptions ro;
  ro.signals = marauder::ResolverSignals::all();
  const marauder::IdentityMap reader_ids = tracker.resolve_identities(ro);
  std::atomic<bool> reading{true};
  std::vector<double> read_us;
  std::thread reader([&] {
    util::Rng rng(util::hash_combine(options_.seed, pass));
    const auto period = std::chrono::duration<double>(1.0 / size_.read_rate);
    auto next = Clock::now();
    std::uint64_t n = 0;
    while (reading.load(std::memory_order_relaxed)) {
      next += std::chrono::duration_cast<Clock::duration>(period);
      std::this_thread::sleep_until(next);
      const auto r0 = Clock::now();
      if (n++ % 10 == 9 && reader_ids.size() > 0) {
        const auto& id = reader_ids.identities[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(reader_ids.size()) - 1))];
        Span span("pipeline.locate_identity", n);
        (void)tracker.locate_identity(id);
      } else {
        const auto& mac = read_macs_[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(read_macs_.size()) - 1))];
        Span span("pipeline.locate", n);
        (void)tracker.locate(mac);
      }
      read_us.push_back(seconds_since(r0) * 1e6);
    }
  });
  ScopeExit stop_reader([&] {
    reading.store(false);
    if (reader.joinable()) reader.join();
  });

  struct Pending {
    std::uint64_t target;  ///< shard's applied count that completes the chunk
    Clock::time_point due;
    std::uint32_t events;
  };
  std::vector<std::deque<Pending>> pending(shards_);
  std::vector<std::uint64_t> pushed(shards_, 0);
  for (std::size_t s = 0; s < shards_; ++s) {
    for (std::size_t i = 0; i < saturating_chunks_; ++i) pushed[s] += chunks_[i].released[s];
  }
  std::vector<double> latency_ms;
  std::vector<double> generator_lag_ms;
  const auto poll = [&] {
    const auto now = Clock::now();
    for (std::size_t s = 0; s < shards_; ++s) {
      const std::uint64_t done = applied(s);
      while (!pending[s].empty() && pending[s].front().target <= done) {
        const double ms = seconds_between(pending[s].front().due, now) * 1e3;
        latency_ms.insert(latency_ms.end(), pending[s].front().events, ms);
        pending[s].pop_front();
      }
    }
  };
  const auto open_start = Clock::now() + std::chrono::milliseconds(1);
  std::uint64_t offered = 0;
  for (std::size_t i = saturating_chunks_; i < chunks_.size(); ++i) {
    const Chunk& c = chunks_[i];
    const auto due = open_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          static_cast<double>(offered) / size_.offered_rate));
    const bool idle_before = Clock::now() < due;
    // Spin on completions until the chunk is due, so each event is timed when
    // its shard applied it, not when the pump next looked (the pump has a
    // core of its own in the thread budget).
    while (Clock::now() < due) poll();
    // Lateness that the pump, idle before the due time, cannot blame on the
    // program: the generator's own scheduling error.
    if (idle_before) generator_lag_ms.push_back(seconds_since(due) * 1e3);
    pump(c);
    offered += c.released_total;
    for (std::size_t s = 0; s < shards_; ++s) {
      if (c.released[s] == 0) continue;
      pushed[s] += c.released[s];
      pending[s].push_back(Pending{pushed[s], due, c.released[s]});
    }
    poll();
  }
  {
    Span span("pipeline.mux.on_bytes");
    mux.finish();
  }
  const std::uint64_t delivered = mux.stats().events_delivered;
  while (applied_total() < delivered) poll();
  poll();
  reading.store(false);
  reader.join();  // read_us is complete from here on

  // --- 3. stop, then recover into a fresh tracker ---
  {
    Span span("pipeline.stop");
    tracker.stop();
  }
  std::uint64_t wal_bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) wal_bytes += e.file_size();
  }
  // Recovery and its equality gates run on the first pass and on traced
  // ones (which report durability.recover_s); the other passes skip them.
  const bool recover = pass == 0 || Tracer::enabled();
  std::optional<pipeline::LiveTracker> recovered;
  pipeline::RecoveryStats rec{};
  if (recover) {
    recovered.emplace(db_, tracker_config(dir));
    Span span("durability.recover");
    const auto r = recovered->recover();
    gates.check(r.ok(), "live: recover() failed");
    if (r.ok()) rec = r.value();
  }

  // --- gates (untimed) ---
  if (pass == 0) {
    gates.add_attempted(released_total_);
    gates.add_failed(released_mismatches_, "live: released event differs from the one sent");
  }
  const auto stats = tracker.stats();
  const auto mux_stats = mux.stats();
  gates.check(mux_stats.events_delivered == released_total_,
              "live: mux released a different event count than the decoders");
  gates.check(stats.total_frames == mux_stats.events_delivered,
              "live: events delivered but never applied");
  gates.add_attempted(expected_.device_count());
  gates.add_failed(count_mismatched_devices(tracker, expected_),
                   "live: tracker store differs from the events sent");

  if (recover) check_recovered(tracker, *recovered, gates);

  out["result_s"] = result_s;
  out["items_per_s"] = segment_rates.empty() ? static_cast<double>(sat_events) / result_s
                                             : percentile(segment_rates, 50.0);
  out.latency_ms = std::move(latency_ms);
  out["pipeline.read_calls"] = static_cast<double>(read_us.size());
  out["pipeline.read_latency_p50_us"] = percentile(read_us, 50.0);
  out["pipeline.read_latency_p99_us"] = percentile(read_us, 99.0);
  out["bench.generator_lag_p99_ms"] = percentile(generator_lag_ms, 99.0);
  out["pipeline.backlog_max"] = backlog_max;
  add_fabric_stats(encoder_stats_, link_stats_, mux_stats, out.metrics);
  add_pipeline_stats(stats, out.metrics);
  out["durability.wal_bytes"] = static_cast<double>(wal_bytes);
  out["durability.wal_records_replayed"] = static_cast<double>(rec.wal_records_replayed);
  out["durability.checkpoint_rows_loaded"] = static_cast<double>(rec.checkpoint_rows_loaded);
  out["durability.positions_republished"] = static_cast<double>(rec.positions_republished);
  fs::remove_all(dir);
}

}  // namespace

std::unique_ptr<Workload> make_live_fabric(const Options& options) {
  return std::make_unique<LiveFabric>(options);
}

}  // namespace chainbench
