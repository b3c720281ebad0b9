// city_mloc: batch M-Loc with known radii (the WiGLE case) over a day-long
// synthetic capture store, one locate_all per map window, then identity
// resolution over the whole day.
//
// The store mixes both duplication regimes: crowds (groups of devices at one
// spot hearing the same APs, so their Gammas are identical and the
// duplicate-grouping / memo path carries them) and walkers (a new spot every
// window, so every Gamma is distinct and the M-Loc kernel itself runs). A
// tenth of the devices rotate MACs every few windows while their sequence
// counters and directed SSIDs carry over, so the resolver has work too.
//
// A single locate_all over ~4000 active devices takes a few milliseconds;
// the map is a whole day of windows over a store of every pseudonym seen
// that day, so one map takes seconds. Each window is one item (its latency
// is the window's locate_all time); result_s is the whole map.
#include <cmath>
#include <map>

#include "common.h"
#include "marauder/ap_database.h"
#include "marauder/identity.h"
#include "marauder/tracker.h"
#include "trace.h"
#include "util/rng.h"

namespace chainbench {
namespace {

using namespace mm;

struct CitySize {
  std::size_t aps;
  std::size_t crowds;
  std::size_t crowd_size;
  std::size_t walkers;
  std::size_t windows;
  double window_s;
  std::size_t presence_windows;  ///< windows each device is out and about
};

class CityMloc final : public Workload {
 public:
  explicit CityMloc(const Options& options) : options_(options) {
    size_ = options.smoke ? CitySize{300, 20, 10, 200, 6, 900.0, 3}
                          : CitySize{3000, 400, 20, 8000, 48, 1800.0, 8};
  }

  void setup() override;
  void run_pass(std::size_t pass, PassOutput& out, Gates& gates) override;

 private:
  /// Records one sighting of `mac` at `where` in [t, t + window): a contact
  /// with every AP whose disc covers the spot, plus a probe.
  void observe(const net80211::MacAddress& mac, geo::Vec2 where, double t,
               std::uint16_t& seq, const std::string& ssid, util::Rng& rng);

  Options options_;
  CitySize size_;
  marauder::ApDatabase db_;
  double half_ = 0.0;
  capture::ObservationStore store_;
};

void CityMloc::observe(const net80211::MacAddress& mac, geo::Vec2 where, double t,
                       std::uint16_t& seq, const std::string& ssid, util::Rng& rng) {
  for (const marauder::KnownAp* ap : db_.aps_in_range(where, 120.0)) {
    if (ap->position.distance_to(where) > *ap->radius_m) continue;
    for (int k = 0; k < 2; ++k) {
      store_.record_contact(ap->bssid, mac, t + rng.uniform(0.0, size_.window_s * 0.9),
                            rng.uniform(-90.0, -40.0));
    }
  }
  const double tp = t + rng.uniform(0.0, size_.window_s * 0.9);
  store_.record_probe_request(mac, tp, ssid.empty() ? std::nullopt
                                                    : std::optional<std::string>(ssid));
  seq = static_cast<std::uint16_t>((seq + 1) & 0xFFF);
  store_.record_device_seq(mac, tp, seq);
}

void CityMloc::setup() {
  util::Rng rng(util::hash_combine(options_.seed, 0xc17e));
  // ~1 AP per 50x50 m, radii known.
  half_ = 25.0 * std::sqrt(static_cast<double>(size_.aps));
  db_ = marauder::ApDatabase();
  for (std::size_t i = 0; i < size_.aps; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(0x02c100000000ULL + i);
    ap.position = {rng.uniform(-half_, half_), rng.uniform(-half_, half_)};
    ap.radius_m = rng.uniform(60.0, 120.0);
    db_.add(std::move(ap));
  }
  store_.clear();
  std::uint64_t next_mac = 0x0016f1000000ULL;
  const auto spot = [&] {
    return geo::Vec2{rng.uniform(-half_, half_), rng.uniform(-half_, half_)};
  };
  struct Person {
    std::uint64_t mac;
    std::uint16_t seq;
    std::string ssid;
    bool rotates;
  };
  const auto person = [&] {
    Person p{next_mac++, static_cast<std::uint16_t>(rng.uniform_int(0, 4095)), "",
             rng.bernoulli(0.1)};
    if (rng.bernoulli(0.3)) p.ssid = "home-" + std::to_string(rng.uniform_int(0, 999'999));
    return p;
  };
  const auto first_window = [&] {
    return static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(size_.windows - size_.presence_windows)));
  };
  // Crowds: one spot for the whole stay, every member hears the same APs.
  for (std::size_t c = 0; c < size_.crowds; ++c) {
    const geo::Vec2 where = spot();
    const std::size_t w0 = first_window();
    std::vector<Person> members;
    for (std::size_t m = 0; m < size_.crowd_size; ++m) members.push_back(person());
    for (std::size_t w = w0; w < w0 + size_.presence_windows; ++w) {
      for (Person& p : members) {
        if (p.rotates && w > w0 && (w - w0) % 3 == 0) p.mac = next_mac++;
        observe(net80211::MacAddress::from_u64(p.mac), where,
                static_cast<double>(w) * size_.window_s, p.seq, p.ssid, rng);
      }
    }
  }
  // Walkers: a new spot every window.
  for (std::size_t i = 0; i < size_.walkers; ++i) {
    Person p = person();
    const std::size_t w0 = first_window();
    for (std::size_t w = w0; w < w0 + size_.presence_windows; ++w) {
      if (p.rotates && w > w0 && (w - w0) % 3 == 0) p.mac = next_mac++;
      observe(net80211::MacAddress::from_u64(p.mac), spot(),
              static_cast<double>(w) * size_.window_s, p.seq, p.ssid, rng);
    }
  }
}

void CityMloc::run_pass(std::size_t pass, PassOutput& out, Gates& gates) {
  const auto window_of = [&](std::size_t w) {
    const double t = static_cast<double>(w) * size_.window_s;
    return capture::ObservationWindow{t, t + size_.window_s};
  };
  marauder::TrackerOptions to;
  to.algorithm = marauder::Algorithm::kMLoc;
  to.threads = options_.hw_cores;

  const auto t0 = Clock::now();
  marauder::Tracker tracker(db_, to);
  std::vector<double> window_ms;
  marauder::LocateAllProfile sum;
  std::uint64_t items = 0, item_failures = 0;
  for (std::size_t w = 0; w < size_.windows; ++w) {
    marauder::LocateAllProfile profile;
    const auto w0 = Clock::now();
    std::map<net80211::MacAddress, marauder::LocalizationResult> results;
    {
      Span span("marauder.locate_all", w);
      results = tracker.locate_all(store_, window_of(w), &profile);
    }
    window_ms.push_back(seconds_since(w0) * 1e3);
    for (const auto& [mac, r] : results) {
      if (r.num_aps == 0) continue;  // not out and about in this window
      ++items;
      if (!r.ok) ++item_failures;
    }
    sum.plan_s += profile.plan_s;
    sum.locate_s += profile.locate_s;
    sum.merge_s += profile.merge_s;
    sum.devices += profile.devices;
    sum.unique_gammas += profile.unique_gammas;
    sum.outlier_devices += profile.outlier_devices;
  }
  marauder::ResolverOptions ro;
  ro.signals = marauder::ResolverSignals::all();
  ro.threads = options_.hw_cores;
  marauder::IdentityResolver resolver(ro);
  marauder::IdentityMap identities;
  {
    Span span("marauder.identity.resolve");
    resolver.ingest_store(store_);
    identities = resolver.resolve();
  }
  const double result_s = seconds_since(t0);
  const auto cache = tracker.gamma_cache_stats();

  // Gate: the threaded map of one sampled window equals a serial run.
  const std::size_t sample_w =
      util::hash_combine(options_.seed, pass) % size_.windows;
  marauder::TrackerOptions serial_options = to;
  serial_options.threads = 1;
  const marauder::Tracker serial(db_, serial_options);
  const auto want = serial.locate_all(store_, window_of(sample_w));
  auto got = tracker.locate_all(store_, window_of(sample_w));
  if (options_.break_oracle && !got.empty()) got.begin()->second.estimate.x += 1.0;
  std::size_t mismatched = want.size() == got.size() ? 0 : 1;
  auto b = got.begin();
  for (auto a = want.begin(); mismatched == 0 && a != want.end(); ++a, ++b) {
    if (a->first != b->first || !same_result(a->second, b->second)) ++mismatched;
  }
  gates.add_attempted(want.size());
  gates.add_failed(mismatched, "city: threaded locate_all differs from serial");
  gates.add_attempted(items);
  gates.add_failed(item_failures, "city: device with known-AP evidence not located");
  gates.check(identities.size() > 0, "city: no identities resolved");

  out["result_s"] = result_s;
  out["items_per_s"] = static_cast<double>(items) / result_s;
  out.latency_ms = std::move(window_ms);
  out["marauder.locate_all.plan_s"] = sum.plan_s;
  out["marauder.locate_all.locate_s"] = sum.locate_s;
  out["marauder.locate_all.merge_s"] = sum.merge_s;
  out["marauder.locate_all.unique_gammas"] = static_cast<double>(sum.unique_gammas);
  out["marauder.locate_all.duplicate_ratio"] =
      sum.devices > 0 ? static_cast<double>(sum.devices - sum.unique_gammas) /
                            static_cast<double>(sum.devices)
                      : 0.0;
  out["marauder.locate_all.outlier_devices"] = static_cast<double>(sum.outlier_devices);
  out["marauder.locate_all.cache_hits"] = static_cast<double>(cache.hits);
  out["marauder.locate_all.cache_misses"] = static_cast<double>(cache.misses);
  const auto& rs = resolver.last_stats();
  out["marauder.identity.ssid_edges"] = static_cast<double>(rs.ssid_edges);
  out["marauder.identity.seq_edges"] = static_cast<double>(rs.seq_edges);
  out["marauder.identity.gamma_edges"] = static_cast<double>(rs.gamma_edges);
  out["marauder.identity.identities"] = static_cast<double>(rs.identities);
}

}  // namespace

std::unique_ptr<Workload> make_city_mloc(const Options& options) {
  return std::make_unique<CityMloc>(options);
}

}  // namespace chainbench
