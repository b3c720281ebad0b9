// wps_sweep: opportunistic mass surveillance against a city-scale WPS
// snapshot (Rye & Levin): a device's request carries the BSSIDs it hears;
// the service looks each one up and answers with the APs nearest to the
// device as well, which is what lets an attacker harvest the map.
//
// Setup builds the city, writes the serving snapshot and a refreshed one
// (some APs moved, some added), and draws the requests. A request (one item)
// is a scan report: 3-6 BSSID lookups plus one nearest_k harvest around the
// reported position. Each pass opens the snapshot afresh and runs:
//   1. a cold open-loop pass over the requests (cold_rate/s): the first
//      touch of every tile pays its CRC verify and index build;
//   2. a warm open-loop pass over the same requests (warm_rate/s): these
//      give latency_p50_ms / latency_p99_ms;
//   3. the warm pass again, with a reload() hot-swap to the refreshed
//      snapshot from a second thread halfway through. Its p99 is dominated
//      by one first-touch stall after the swap and does not repeat within a
//      tenth between runs, so it is a per-layer metric
//      (wps.reload_latency_p99_ms), not the end-to-end p99;
//   4. a closed-loop phase, one client per core, over the requests several
//      times: result_s is its wall time, items_per_s its rate.
// Each request is timed from its due time until its last answer. Sampled
// answers are checked bit-for-bit against the in-memory ApDatabase oracle
// before and after the reload.
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "common.h"
#include "geo/geodetic.h"
#include "marauder/ap_database.h"
#include "trace.h"
#include "util/rng.h"
#include "wps/service.h"
#include "wps/snapshot_writer.h"

namespace chainbench {
namespace {

using namespace mm;
namespace fs = std::filesystem;

struct WpsSize {
  std::size_t aps;
  std::size_t reports;   ///< device scan reports (requests)
  double cold_rate;      ///< requests/s offered in the cold pass
  double warm_rate;      ///< requests/s offered in the warm pass
  std::size_t closed_repeats;
  std::size_t oracle_sample;  ///< requests checked against the oracle per phase
};

constexpr std::size_t kHarvestK = 8;
constexpr std::uint64_t kBssidBase = 0x02b500000000ULL;

/// One device's request: the BSSIDs it hears and where it is.
struct Report {
  std::vector<std::uint64_t> bssids;
  geo::Vec2 where;
};

bool same_ap(const wps::WpsAp& got, const marauder::KnownAp& want) {
  if (got.bssid != want.bssid || !bits_equal(got.position.x, want.position.x) ||
      !bits_equal(got.position.y, want.position.y) ||
      got.radius_m.has_value() != want.radius_m.has_value()) {
    return false;
  }
  return !got.radius_m || bits_equal(*got.radius_m, *want.radius_m);
}

class WpsSweep final : public Workload {
 public:
  explicit WpsSweep(const Options& options) : options_(options) {
    size_ = options.smoke ? WpsSize{20'000, 300, 1'500.0, 2'000.0, 2, 40}
                          : WpsSize{200'000, 2'000, 1'500.0, 2'000.0, 10, 200};
  }

  void setup() override;
  void run_pass(std::size_t pass, PassOutput& out, Gates& gates) override;

 private:
  [[nodiscard]] std::size_t answer(const wps::Service& svc, const Report& r,
                                   std::uint64_t request) const;
  /// The service's answers equal the oracle's. With `nudge` the oracle's
  /// nearest AP of the harvest is moved by 1 m first (--break-oracle: the
  /// comparison must fail).
  [[nodiscard]] bool matches(const wps::Service& svc, const marauder::ApDatabase& db,
                             const Report& r, bool nudge) const;
  /// Open-loop pass: request i is due at start + i / rate.
  void open_loop(const wps::Service& svc, double rate, std::vector<double>& latency_ms,
                 std::vector<double>& lag_ms, const std::function<void(std::size_t)>& at);

  Options options_;
  WpsSize size_;
  marauder::ApDatabase db_;        ///< oracle for the serving snapshot
  marauder::ApDatabase refreshed_;  ///< oracle for the reloaded one
  fs::path snapshot_;
  fs::path refreshed_snapshot_;
  std::vector<Report> reports_;
};

void WpsSweep::setup() {
  util::Rng rng(util::hash_combine(options_.seed, 0x3b5));
  // ~1 AP per 75x75 m at any scale (the bench_wps convention).
  const double half = 37.5 * std::sqrt(static_cast<double>(size_.aps));
  db_ = marauder::ApDatabase();
  refreshed_ = marauder::ApDatabase();
  for (std::size_t i = 0; i < size_.aps; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(kBssidBase + i);
    ap.position = {rng.uniform(-half, half), rng.uniform(-half, half)};
    if (rng.bernoulli(0.6)) ap.radius_m = rng.uniform(20.0, 150.0);
    marauder::KnownAp moved = ap;
    if (rng.bernoulli(0.02)) moved.position = {rng.uniform(-half, half), rng.uniform(-half, half)};
    db_.add(std::move(ap));
    refreshed_.add(std::move(moved));
  }
  for (std::size_t i = 0; i < size_.aps / 100; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(kBssidBase + size_.aps + i);
    ap.position = {rng.uniform(-half, half), rng.uniform(-half, half)};
    refreshed_.add(std::move(ap));
  }
  snapshot_ = options_.work_dir / "city.wps";
  refreshed_snapshot_ = options_.work_dir / "city-refreshed.wps";
  wps::SnapshotBuildOptions build;
  build.fsync = false;
  {
    Span span("wps.write_snapshot");
    if (!wps::write_snapshot(db_, geo::Geodetic{}, snapshot_, build).ok() ||
        !wps::write_snapshot(refreshed_, geo::Geodetic{}, refreshed_snapshot_, build).ok()) {
      throw std::runtime_error("wps: snapshot write failed");
    }
  }
  // Scan reports: a device somewhere in the city hears 3-6 nearby BSSIDs
  // (one in ten unknown to the database).
  reports_.clear();
  for (std::size_t i = 0; i < size_.reports; ++i) {
    Report r;
    r.where = {rng.uniform(-half, half), rng.uniform(-half, half)};
    const auto heard = db_.nearest_aps(r.where, static_cast<std::size_t>(rng.uniform_int(3, 6)));
    for (const marauder::KnownAp* ap : heard) {
      r.bssids.push_back(rng.bernoulli(0.1) ? 0x02ff00000000ULL + static_cast<std::uint64_t>(
                                                                      rng.uniform_int(0, 1 << 20))
                                            : ap->bssid.to_u64());
    }
    reports_.push_back(std::move(r));
  }
}

std::size_t WpsSweep::answer(const wps::Service& svc, const Report& r,
                             std::uint64_t request) const {
  std::size_t found = 0;
  for (const std::uint64_t bssid : r.bssids) {
    Span span("wps.lookup", request);
    if (svc.lookup(net80211::MacAddress::from_u64(bssid)).has_value()) ++found;
  }
  Span span("wps.nearest_k", request);
  return found + svc.nearest_k(r.where, kHarvestK).size();
}

bool WpsSweep::matches(const wps::Service& svc, const marauder::ApDatabase& db,
                       const Report& r, bool nudge) const {
  for (const std::uint64_t bssid : r.bssids) {
    const auto mac = net80211::MacAddress::from_u64(bssid);
    const auto got = svc.lookup(mac);
    const marauder::KnownAp* want = db.find(mac);
    if (got.has_value() != (want != nullptr)) return false;
    if (got && !same_ap(*got, *want)) return false;
  }
  const auto got = svc.nearest_k(r.where, kHarvestK);
  const auto want = db.nearest_aps(r.where, kHarvestK);
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    marauder::KnownAp expected = *want[i];
    if (nudge && i == 0) expected.position.x += 1.0;
    if (!same_ap(got[i], expected)) return false;
  }
  return true;
}

void WpsSweep::open_loop(const wps::Service& svc, double rate, std::vector<double>& latency_ms,
                         std::vector<double>& lag_ms,
                         const std::function<void(std::size_t)>& at) {
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < reports_.size(); ++i) {
    at(i);
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(static_cast<double>(i) / rate));
    const bool idle_before = Clock::now() < due;
    while (Clock::now() < due) {
    }
    if (idle_before) lag_ms.push_back(seconds_since(due) * 1e3);
    (void)answer(svc, reports_[i], i);
    latency_ms.push_back(seconds_since(due) * 1e3);
  }
}

void WpsSweep::run_pass(std::size_t pass, PassOutput& out, Gates& gates) {
  std::optional<wps::Service> opened;
  {
    Span span("wps.open");
    auto r = wps::Service::open(snapshot_);
    if (!r.ok()) throw std::runtime_error("wps: open failed: " + r.error());
    opened.emplace(std::move(r).value());
  }
  const wps::Service& svc = *opened;

  // 1. cold pass
  std::vector<double> cold_ms, lag_ms;
  open_loop(svc, size_.cold_rate, cold_ms, lag_ms, [](std::size_t) {});

  // Oracle sample before the reload.
  util::Rng rng(util::hash_combine(options_.seed, 0x5a + pass));
  const auto sample = [&](const marauder::ApDatabase& db, const char* what) {
    std::size_t bad = 0;
    for (std::size_t s = 0; s < size_.oracle_sample; ++s) {
      const Report& r = reports_[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(reports_.size()) - 1))];
      if (!matches(svc, db, r, options_.break_oracle && s == 0)) ++bad;
    }
    gates.add_attempted(size_.oracle_sample);
    gates.add_failed(bad, what);
  };
  sample(db_, "wps: answer differs from the oracle before reload");

  // 2. warm pass over the same requests.
  std::vector<double> warm_ms;
  open_loop(svc, size_.warm_rate, warm_ms, lag_ms, [](std::size_t) {});

  // 3. the same again, hot-swapped to the refreshed snapshot halfway through
  //    by a second thread. The swap's first-touch costs (the new epoch's MAC
  //    index verify and cold tiles) land in this pass's tail.
  std::vector<double> reload_ms;
  bool reload_ok = false;
  std::thread reloader;
  {
    ScopeExit join_reloader([&] {
      if (reloader.joinable()) reloader.join();
    });
    open_loop(svc, size_.warm_rate, reload_ms, lag_ms, [&](std::size_t i) {
      if (i != reports_.size() / 2) return;
      reloader = std::thread([&] {
        Span span("wps.reload");
        reload_ok = opened->reload(refreshed_snapshot_).ok();
      });
    });
  }
  gates.check(reload_ok, "wps: reload to the refreshed snapshot was rejected");
  sample(refreshed_, "wps: answer differs from the oracle after reload");

  // 4. closed loop, one client per core.
  const std::size_t clients = options_.hw_cores;
  std::atomic<std::size_t> answered{0};
  const auto c0 = Clock::now();
  {
    std::vector<std::thread> threads;
    ScopeExit join_clients([&] {
      for (auto& th : threads) th.join();
    });
    for (std::size_t t = 0; t < clients; ++t) {
      threads.emplace_back([&, t] {
        std::size_t n = 0;
        for (std::size_t rep = 0; rep < size_.closed_repeats; ++rep) {
          for (std::size_t i = t; i < reports_.size(); i += clients) {
            (void)answer(svc, reports_[i], i);
            ++n;
          }
        }
        answered.fetch_add(n);
      });
    }
  }
  const double result_s = seconds_since(c0);

  const auto st = svc.stats();
  gates.check(st.tiles_quarantined == 0 && st.reloads_rejected == 0,
              "wps: tiles quarantined or reload rejected on a clean snapshot");
  out["result_s"] = result_s;
  out["items_per_s"] = static_cast<double>(answered.load()) / result_s;
  out.latency_ms = std::move(warm_ms);
  out["wps.cold_latency_p99_ms"] = percentile(cold_ms, 99.0);
  out["wps.reload_latency_p99_ms"] = percentile(reload_ms, 99.0);
  out["bench.generator_lag_p99_ms"] = percentile(lag_ms, 99.0);
  out["wps.tiles_total"] = static_cast<double>(st.tiles_total);
  out["wps.tiles_quarantined"] = static_cast<double>(st.tiles_quarantined);
  out["wps.reloads_rejected"] = static_cast<double>(st.reloads_rejected);
}

}  // namespace

std::unique_ptr<Workload> make_wps_sweep(const Options& options) {
  return std::make_unique<WpsSweep>(options);
}

}  // namespace chainbench
