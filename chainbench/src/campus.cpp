// campus_aprad: the paper's Section V campus attack, end to end.
//
// Each pass takes the campus (a fixed AP layout at the paper's density, radii
// unknown to the attacker) with one seeded population: a victim on a
// lawnmower route among wandering devices (a third of which rotate MACs),
// captured by one rooftop sniffer. The sniffer's
// events cross the lossy fabric (FEC encode -> seeded link -> feed mux) into
// a LiveTracker, and the sniffer's own store feeds the batch attack: AP-Rad
// prepare (constraints + LP), then one locate per device per sample time
// (the map), then identity resolution. result_s is the pass's wall time.
//
// The campus is scaled to 60 APs at the paper's density (0.35 APs per
// 1000 m^2) with 40 wandering devices: AP-Rad's LP grows steeply with the AP
// count (about 0.2 s here, 5-10 s at the paper's 170) and its time varies
// from campus to campus, so a run needs dozens of campuses for a steady
// median. At this size the LP and the sim each take about half a campus.
#include <map>
#include <memory>

#include "capture/sniffer.h"
#include "common.h"
#include "fault/fault_plan.h"
#include "marauder/aprad.h"
#include "marauder/identity.h"
#include "marauder/tracker.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "net/wire_codec.h"
#include "pipeline/feed_mux.h"
#include "sim/mobile.h"
#include "sim/mobility.h"
#include "sim/scenario.h"
#include "trace.h"
#include "util/rng.h"

namespace chainbench {
namespace {

using namespace mm;

const net80211::MacAddress kVictim = net80211::MacAddress::from_u64(0x00166fcafe99ULL);

struct CampusSize {
  std::size_t campuses;     ///< distinct seeded campuses; passes cycle over them
  std::size_t num_aps;
  double half_extent_m;
  std::size_t background;   ///< wandering devices besides the victim
  int route_passes;
};

/// One population on the campus: its world is built in setup and consumed
/// (run) by one pass.
struct Campus {
  std::uint64_t seed = 0;
  std::unique_ptr<sim::World> world;
  sim::MobileDevice* victim = nullptr;
  std::shared_ptr<sim::RouteWalk> walk;
};

class CampusAprad final : public Workload {
 public:
  explicit CampusAprad(const Options& options) : options_(options) {
    size_ = options.smoke ? CampusSize{2, 40, 170.0, 12, 2}
                          : CampusSize{80, 60, 208.0, 40, 3};
  }

  void setup() override {
    // One campus, as in the paper: the layout is the repository's default
    // campus seed at this size. The run's seed varies who is on it, how they
    // move, the simulator's draws and the link's loss pattern. (AP-Rad's LP
    // time varies about 2x between layouts, which a run's few dozen campuses
    // could not average out.)
    sim::CampusConfig cfg;
    cfg.num_aps = size_.num_aps;
    cfg.half_extent_m = size_.half_extent_m;
    truth_ = sim::generate_campus_aps(cfg);
    db_ = marauder::ApDatabase::from_truth(truth_, /*include_radii=*/false);
    campuses_.clear();
    for (std::size_t k = 0; k < size_.campuses; ++k) campuses_.push_back(build(k));
  }

  void run_pass(std::size_t pass, PassOutput& out, Gates& gates) override;

 private:
  [[nodiscard]] Campus build(std::size_t k) const {
    Campus c;
    c.seed = util::hash_combine(options_.seed, 0xca00 + k);
    c.world = std::make_unique<sim::World>(sim::World::Config{c.seed ^ 0xf00d, nullptr});
    sim::populate_world(*c.world, truth_, /*beacons_enabled=*/false);
    c.walk = std::make_shared<sim::RouteWalk>(
        sim::lawnmower_route(size_.half_extent_m * 0.71, size_.route_passes), 1.5);
    sim::MobileConfig vc;
    vc.mac = kVictim;
    vc.profile.probes = false;
    vc.mobility = c.walk;
    c.victim = c.world->add_mobile(std::make_unique<sim::MobileDevice>(vc));
    util::Rng rng(c.seed ^ 0xb6);
    const double h = size_.half_extent_m;
    for (std::size_t i = 0; i < size_.background; ++i) {
      sim::MobileConfig bg;
      bg.mac = net80211::MacAddress::random(rng, {0x00, 0x21, 0x5c});
      bg.profile.probes = true;
      bg.profile.scan_interval_s = 60.0;
      if (i % 3 == 0) bg.profile.mac_rotation_interval_s = 300.0;
      if (i % 4 == 0) bg.profile.directed_ssids = {"home-" + std::to_string(c.seed % 997 + i)};
      bg.mobility = std::make_shared<sim::RandomWaypoint>(
          geo::Vec2{-h, -h}, geo::Vec2{h, h}, 0.8, 2.0, /*duration=*/4000.0,
          util::hash_combine(c.seed, 0xbb00 + i));
      c.world->add_mobile(std::make_unique<sim::MobileDevice>(bg));
    }
    return c;
  }

  /// Live M-Loc positions equal batch M-Loc over the same (live) store.
  void check_live_equals_batch(pipeline::LiveTracker& live, Gates& gates) const;

  Options options_;
  CampusSize size_;
  std::vector<sim::ApTruth> truth_;
  marauder::ApDatabase db_;  ///< positions only: AP-Rad has to estimate radii
  std::vector<Campus> campuses_;
};

void CampusAprad::run_pass(std::size_t pass, PassOutput& out, Gates& gates) {
  // Passes beyond the prebuilt worlds rebuild one, outside the timed region.
  Campus& c = campuses_[pass % campuses_.size()];
  if (c.world == nullptr) c = build(pass);
  const std::unique_ptr<sim::World> world = std::move(c.world);
  sim::MobileDevice* victim = c.victim;
  const std::shared_ptr<sim::RouteWalk> walk = c.walk;
  const auto t0 = Clock::now();

  // --- sim + capture: the rooftop sniffer ---
  capture::ObservationStore store;
  capture::SnifferConfig sc;
  sc.position = {0.0, 0.0};
  sc.antenna_height_m = 20.0;
  sc.seed = c.seed ^ 0x51;
  capture::Sniffer sniffer(sc, &store);
  sniffer.attach(*world);

  // --- net + pipeline: the sniffer's sink streams into the live tracker ---
  pipeline::LiveTrackerConfig lc;
  lc.shards = 2;
  lc.drop_policy = pipeline::DropPolicy::kBlock;
  pipeline::LiveTracker live(db_, lc);
  live.start();
  pipeline::SnifferFeedMux mux(live);
  const std::size_t feed = mux.add_feed(1);
  net::FecEncoder encoder(1, 8);
  fault::FaultPlan plan;
  plan.drop_rate = 0.01;
  plan.corrupt_rate = 0.005;
  plan.duplicate_rate = 0.005;
  plan.reorder_rate = 0.02;
  plan.seed = c.seed ^ 0x11;
  net::LinkSimulator link(plan);
  std::vector<std::uint8_t> wire;
  std::uint64_t seq = 0;
  const auto forward = [&] {
    net::for_each_wire_frame(wire, [&](std::span<const std::uint8_t> f) { link.send(f); });
    wire.clear();
    const std::vector<std::uint8_t> bytes = link.take();
    if (bytes.empty()) return;
    Span span("pipeline.mux.on_bytes");
    mux.on_bytes(feed, bytes);
  };
  sniffer.set_event_sink([&](const capture::FrameEvent& ev) {
    {
      Span span("net.encode");
      encoder.push(++seq, ev, wire);
    }
    forward();
  });

  std::vector<std::pair<double, geo::Vec2>> samples;
  for (double t = 1.0; t < walk->arrival_time(); t += 45.0) {
    world->queue().schedule(t, [victim] { victim->trigger_scan(); });
    samples.emplace_back(t, walk->position(t));
  }
  {
    Span span("sim.run_until");
    world->run_until(walk->arrival_time() + 5.0);
  }
  encoder.flush(wire);
  link.flush();
  forward();
  {
    Span span("pipeline.mux.on_bytes");
    mux.finish();
  }
  {
    Span span("pipeline.stop");
    live.stop();
  }

  // --- marauder: AP-Rad over the capture, the map, identities ---
  marauder::TrackerOptions to;
  to.algorithm = marauder::Algorithm::kApRad;
  to.threads = options_.hw_cores;
  to.aprad.threads = options_.hw_cores;
  marauder::Tracker tracker(db_, to);
  {
    Span span("marauder.prepare");
    tracker.prepare(store);
  }
  // The map: every device at every sample time (victim: its scan window;
  // others: the sample interval around it). Each locate is one item.
  std::vector<double> locate_ms;
  std::vector<double> victim_error;
  std::uint64_t item_failures = 0;
  const std::vector<net80211::MacAddress> devices = store.devices();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double t = samples[i].first;
    for (const auto& mac : devices) {
      const bool is_victim = mac == kVictim;
      const capture::ObservationWindow window =
          is_victim ? capture::ObservationWindow{t - 1.0, t + 5.0}
                    : capture::ObservationWindow{t - 22.5, t + 22.5};
      if (store.gamma(mac, window).empty()) continue;
      const auto l0 = Clock::now();
      marauder::LocalizationResult r;
      {
        Span span("marauder.locate", i);
        r = tracker.locate(store, mac, window);
      }
      locate_ms.push_back(seconds_since(l0) * 1e3);
      if (!r.ok) ++item_failures;
      if (is_victim && r.ok) victim_error.push_back(r.estimate.distance_to(samples[i].second));
    }
  }
  marauder::ResolverOptions ro;
  ro.signals = marauder::ResolverSignals::all();
  marauder::IdentityResolver resolver(ro);
  marauder::IdentityMap identities;
  {
    Span span("marauder.identity.resolve");
    resolver.ingest_store(store);
    identities = resolver.resolve();
  }
  const double result_s = seconds_since(t0);

  // --- untimed: layer detail and correctness gates ---
  if (Tracer::enabled()) {
    const auto gammas = store.session_gammas(to.session_gap_s);
    marauder::ApRadConstraints cons;
    {
      Span span("marauder.aprad.constraints");
      cons = marauder::aprad_prepare_constraints(db_, gammas, to.aprad);
    }
    out["marauder.aprad.observed_aps"] = static_cast<double>(cons.observed.size());
    out["marauder.aprad.co_pairs"] = static_cast<double>(cons.co_pairs.size());
    out["marauder.aprad.less_rows"] = static_cast<double>(cons.less_rows.size());
  }

  gates.add_attempted(locate_ms.size());
  gates.add_failed(item_failures, "campus: map sample not located");
  check_live_equals_batch(live, gates);
  const auto mux_stats = mux.stats();
  const auto live_stats = live.stats();
  gates.check(live_stats.total_frames == mux_stats.events_delivered,
              "campus: events delivered by the mux but never applied");
  gates.check(identities.size() > 0 && !victim_error.empty(),
              "campus: empty map or no identities");

  out["result_s"] = result_s;
  out["items_per_s"] = static_cast<double>(locate_ms.size()) / result_s;
  out.latency_ms = std::move(locate_ms);
  out["marauder.median_error_m"] = percentile(victim_error, 50.0);

  out["sim.frames_transmitted"] = static_cast<double>(world->frames_transmitted());
  out["sim.deliveries_culled"] = static_cast<double>(world->deliveries_culled());
  const auto& ss = sniffer.stats();
  out["capture.frames_on_air"] = static_cast<double>(ss.frames_on_air);
  out["capture.frames_decoded"] = static_cast<double>(ss.frames_decoded);
  out["capture.decode_ratio"] =
      ss.frames_on_air > 0
          ? static_cast<double>(ss.frames_decoded) / static_cast<double>(ss.frames_on_air)
          : 0.0;
  add_fabric_stats({encoder.stats()}, {link.stats()}, mux_stats, out.metrics);
  add_pipeline_stats(live_stats, out.metrics);
  const auto& rs = resolver.last_stats();
  out["marauder.identity.ssid_edges"] = static_cast<double>(rs.ssid_edges);
  out["marauder.identity.seq_edges"] = static_cast<double>(rs.seq_edges);
  out["marauder.identity.gamma_edges"] = static_cast<double>(rs.gamma_edges);
  out["marauder.identity.identities"] = static_cast<double>(rs.identities);
}

void CampusAprad::check_live_equals_batch(pipeline::LiveTracker& live, Gates& gates) const {
  marauder::TrackerOptions to;
  to.algorithm = marauder::Algorithm::kMLoc;
  marauder::Tracker batch(db_, to);
  std::map<net80211::MacAddress, pipeline::LivePosition> published;
  for (auto& [mac, pos] : live.snapshot()) published[mac] = pos;
  std::size_t compared = 0, mismatched = 0;
  for (std::size_t s = 0; s < live.shard_count(); ++s) {
    const auto results = batch.locate_all(live.shard_store(s));
    for (const auto& [mac, r] : results) {
      if (r.num_aps == 0) continue;  // no known-AP evidence: never published
      ++compared;
      const auto it = published.find(mac);
      pipeline::LivePosition want;
      want.x_m = r.estimate.x;
      want.y_m = r.estimate.y;
      want.ok = r.ok ? 1 : 0;
      want.used_fallback = r.used_fallback ? 1 : 0;
      want.discs_rejected = static_cast<std::uint16_t>(r.discs_rejected);
      if (options_.break_oracle && compared == 1) want.x_m += 1.0;
      if (it == published.end() || !bits_equal(it->second.x_m, want.x_m) ||
          !bits_equal(it->second.y_m, want.y_m) || it->second.ok != want.ok ||
          it->second.used_fallback != want.used_fallback ||
          it->second.discs_rejected != want.discs_rejected) {
        ++mismatched;
      }
    }
  }
  gates.add_attempted(compared);
  gates.add_failed(mismatched, "campus: live position differs from batch M-Loc");
}

}  // namespace

std::unique_ptr<Workload> make_campus_aprad(const Options& options) {
  return std::make_unique<CampusAprad>(options);
}

}  // namespace chainbench
