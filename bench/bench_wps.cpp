// Basilisk WPS backend bench: a 10M+ AP snapshot served concurrently, with
// every sampled answer checked bit-for-bit against the in-memory ApDatabase
// oracle.
//
//   bench_wps [--aps N] [--queries Q] [--threads T] [--oracle-sample S]
//             [--k K] [--radius R] [--tile-size M] [--seed S] [--smoke]
//             [--dir scratch_dir] [--out BENCH_wps.json]
//
// Three phases:
//   * build: pack the synthetic city (constant AP density, so a range query
//     touches the same neighbourhood at any scale) and write the snapshot;
//   * oracle: S randomly drawn lookup/nearest/range queries answered by both
//     the mmapped Service and the ApDatabase the snapshot was built from —
//     any bit difference is a hard FAIL (exit 1), the whole subsystem's
//     contract;
//   * throughput: Q mixed queries over T concurrent threads against the one
//     const Service, per-query latencies recorded into pre-assigned slots.
// Writes machine-readable BENCH_wps.json (queries/s + latency percentiles).
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "marauder/ap_database.h"
#include "net80211/mac_address.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "wps/service.h"
#include "wps/snapshot_writer.h"

namespace {

using namespace mm;
namespace fs = std::filesystem;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// ~1 AP per 75x75 m whatever the count (the bench_spatial convention):
/// 10M APs span a ~237 km square — city scale, constant local density.
double half_extent_for(std::size_t num_aps) {
  return 37.5 * std::sqrt(static_cast<double>(num_aps));
}

constexpr std::uint64_t kBssidBase = 0x02b500000000ULL;  // 02:b5:...

marauder::ApDatabase build_city(std::size_t num_aps, std::uint64_t seed) {
  marauder::ApDatabase db;
  util::Rng rng(seed);
  const double half = half_extent_for(num_aps);
  for (std::size_t i = 0; i < num_aps; ++i) {
    marauder::KnownAp ap;
    ap.bssid = net80211::MacAddress::from_u64(kBssidBase + i);
    ap.position = {rng.uniform(-half, half), rng.uniform(-half, half)};
    if (rng.bernoulli(0.6)) ap.radius_m = rng.uniform(20.0, 150.0);
    db.add(std::move(ap));
  }
  return db;
}

enum class Op : std::uint8_t { kLookup, kNearest, kRange };

struct Query {
  Op op = Op::kLookup;
  std::uint64_t bssid = 0;
  geo::Vec2 center;
};

std::vector<Query> make_queries(std::size_t count, std::size_t num_aps,
                                std::uint64_t seed) {
  std::vector<Query> queries;
  queries.reserve(count);
  util::Rng rng(util::hash_combine(seed, 0x9e3779b97f4a7c15ULL));
  const double half = half_extent_for(num_aps);
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.5) {
      q.op = Op::kLookup;
      // 10% unknown BSSIDs: misses must stay fast (and correct) too.
      const auto pick = [&](std::size_t n) {
        return static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      };
      q.bssid = rng.bernoulli(0.9) ? kBssidBase + pick(num_aps)
                                   : 0x02ff00000000ULL + pick(1 << 20);
    } else {
      q.op = dice < 0.8 ? Op::kNearest : Op::kRange;
      q.center = {rng.uniform(-half, half), rng.uniform(-half, half)};
    }
    queries.push_back(q);
  }
  return queries;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_ap(const wps::WpsAp& got, const marauder::KnownAp& want) {
  if (got.bssid != want.bssid) return false;
  if (!bits_equal(got.position.x, want.position.x) ||
      !bits_equal(got.position.y, want.position.y)) {
    return false;
  }
  if (got.radius_m.has_value() != want.radius_m.has_value()) return false;
  return !got.radius_m || bits_equal(*got.radius_m, *want.radius_m);
}

bool same_list(const std::vector<wps::WpsAp>& got,
               const std::vector<const marauder::KnownAp*>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_ap(got[i], *want[i])) return false;
  }
  return true;
}

/// One query against both worlds; false on any bit difference.
bool check_query(const wps::Service& service, const marauder::ApDatabase& db,
                 const Query& q, std::size_t k, double radius_m) {
  switch (q.op) {
    case Op::kLookup: {
      const auto mac = net80211::MacAddress::from_u64(q.bssid);
      const auto got = service.lookup(mac);
      const marauder::KnownAp* want = db.find(mac);
      if (got.has_value() != (want != nullptr)) return false;
      return !got || same_ap(*got, *want);
    }
    case Op::kNearest:
      return same_list(service.nearest_k(q.center, k), db.nearest_aps(q.center, k));
    case Op::kRange:
      return same_list(service.range(q.center, radius_m),
                       db.aps_in_range(q.center, radius_m));
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const bool smoke = flags.has("smoke");
  const auto num_aps = static_cast<std::size_t>(
      flags.get_int("aps", smoke ? 150'000 : 10'000'000));
  const auto queries_total = static_cast<std::size_t>(
      flags.get_int("queries", smoke ? 6'000 : 40'000));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", smoke ? 2 : 4));
  const auto oracle_sample = static_cast<std::size_t>(
      flags.get_int("oracle-sample", smoke ? 600 : 2'000));
  const auto k = static_cast<std::size_t>(flags.get_int("k", 8));
  const double radius_m = flags.get_double("radius", 250.0);
  const std::uint64_t seed = flags.get_seed(2009);
  const std::string out_path = flags.get("out", "BENCH_wps.json");
  fs::path dir = flags.get("dir", "");
  if (dir.empty()) dir = fs::temp_directory_path();
  const fs::path snapshot_path = dir / "bench_wps.wps";

  std::cout << "Basilisk WPS bench (" << (smoke ? "smoke" : "full") << "): "
            << num_aps << " APs, " << queries_total << " queries over " << threads
            << " threads\n\n";

  double t0 = now_seconds();
  const marauder::ApDatabase db = build_city(num_aps, seed);
  const double gen_s = now_seconds() - t0;

  wps::SnapshotBuildOptions build_options;
  build_options.tile_size_m = flags.get_double("tile-size", 512.0);
  build_options.fsync = false;  // latency-bound scratch file
  t0 = now_seconds();
  auto written = wps::write_snapshot(db, geo::Geodetic{}, snapshot_path, build_options);
  const double build_s = now_seconds() - t0;
  if (!written.ok()) {
    std::cerr << "FAIL: snapshot build: " << written.error() << "\n";
    return 1;
  }
  const wps::SnapshotBuildStats build_stats = written.value();

  t0 = now_seconds();
  auto opened = wps::Service::open(snapshot_path);
  const double open_s = now_seconds() - t0;
  if (!opened.ok()) {
    std::cerr << "FAIL: snapshot open: " << opened.error() << "\n";
    return 1;
  }
  const wps::Service service = std::move(opened).value();

  std::cout << "generate " << gen_s << " s, build " << build_s << " s ("
            << build_stats.tiles << " tiles, " << build_stats.file_bytes
            << " bytes), open " << open_s << " s\n";

  // Oracle pass: sampled bit-exact equivalence against the in-memory db.
  const std::vector<Query> oracle_queries = make_queries(oracle_sample, num_aps, seed);
  std::size_t mismatches = 0;
  t0 = now_seconds();
  for (const Query& q : oracle_queries) {
    if (!check_query(service, db, q, k, radius_m)) ++mismatches;
  }
  const double oracle_s = now_seconds() - t0;
  std::cout << "oracle: " << oracle_sample << " sampled queries, " << mismatches
            << " mismatches (" << oracle_s << " s)\n";

  // Throughput pass: every thread hammers the same const Service; latencies
  // land in pre-assigned slots so percentiles are stable run to run.
  const std::vector<Query> load = make_queries(queries_total, num_aps,
                                               util::hash_combine(seed, 77));
  std::vector<double> latency_s(load.size(), 0.0);
  std::atomic<std::size_t> sink{0};
  t0 = now_seconds();
  util::ThreadPool::shared().run_chunks(
      load.size(), 64, threads, [&](std::size_t, std::size_t begin, std::size_t end) {
        std::size_t local = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Query& q = load[i];
          const double q0 = now_seconds();
          switch (q.op) {
            case Op::kLookup:
              local += service.lookup(net80211::MacAddress::from_u64(q.bssid)).has_value();
              break;
            case Op::kNearest:
              local += service.nearest_k(q.center, k).size();
              break;
            case Op::kRange:
              local += service.range(q.center, radius_m).size();
              break;
          }
          latency_s[i] = now_seconds() - q0;
        }
        // A do-not-optimize sink: one relaxed add per chunk keeps the
        // compiler from discarding the query results.
        sink.fetch_add(local, std::memory_order_relaxed);
      });
  const double elapsed_s = now_seconds() - t0;
  const double qps = elapsed_s > 0.0 ? static_cast<double>(load.size()) / elapsed_s : 0.0;

  util::SampleSet latency_us;
  for (const double s : latency_s) latency_us.add(s * 1e6);
  const auto pct_us = [&](double p) {
    return latency_us.empty() ? 0.0 : latency_us.percentile(p);
  };
  const double p50_us = pct_us(50.0);
  const double p95_us = pct_us(95.0);
  const double p99_us = pct_us(99.0);
  const double max_us = latency_us.empty() ? 0.0 : latency_us.max();

  std::cout << "throughput: " << load.size() << " queries in " << elapsed_s << " s ("
            << qps << " q/s), p50 " << p50_us << " us, p95 " << p95_us << " us, p99 "
            << p99_us << " us, max " << max_us << " us (sink " << sink.load() << ")\n";

  const wps::ServiceStats stats = service.stats();
  const bool json_written = util::write_json_file(out_path, [&](util::JsonWriter& json) {
    json.begin_object()
        .field("benchmark", "wps")
        .field("smoke", smoke)
        .field("aps", num_aps)
        .field("tiles", build_stats.tiles)
        .field("snapshot_bytes", build_stats.file_bytes)
        .field("build_s", build_s)
        .field("open_s", open_s);
    json.begin_object("oracle")
        .field("samples", oracle_sample)
        .field("mismatches", mismatches)
        .field("identical", mismatches == 0)
        .end_object();
    json.begin_object("throughput")
        .field("threads", threads)
        .field("queries", load.size())
        .field("elapsed_s", elapsed_s)
        .field("qps", qps)
        .field("p50_us", p50_us)
        .field("p95_us", p95_us)
        .field("p99_us", p99_us)
        .field("max_us", max_us)
        .end_object();
    json.begin_object("quarantine")
        .field("tiles", stats.tiles_quarantined)
        .field("sections_rejected", stats.sections_rejected)
        .end_object();
    json.end_object();
  });
  if (!json_written) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";

  std::error_code ec;
  fs::remove(snapshot_path, ec);

  std::cout << (mismatches == 0 ? "PASS" : "FAIL")
            << ": mmapped service bit-identical to the in-memory oracle\n";
  return mismatches == 0 ? 0 : 1;
}
