#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace chainbench {

namespace mc = mm::capture;

void Gates::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) add_failed(1, what);
}

void Gates::add_failed(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  if (messages_.size() < 8) messages_.push_back(what);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  const std::size_t idx = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

bool bits_equal(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_event(const mc::FrameEvent& a, const mc::FrameEvent& b) noexcept {
  return a.kind == b.kind && a.stream_seq == b.stream_seq && a.device == b.device &&
         a.ap == b.ap && bits_equal(a.time_s, b.time_s) &&
         bits_equal(a.rssi_dbm, b.rssi_dbm) && a.channel == b.channel &&
         a.device_seq == b.device_seq && a.has_ssid == b.has_ssid &&
         a.ssid_len == b.ssid_len &&
         std::memcmp(a.ssid, b.ssid, mc::FrameEvent::kMaxSsid) == 0;
}

bool same_result(const mm::marauder::LocalizationResult& a,
                 const mm::marauder::LocalizationResult& b) noexcept {
  if (a.ok != b.ok || a.used_fallback != b.used_fallback ||
      a.discs_rejected != b.discs_rejected || a.num_aps != b.num_aps ||
      !bits_equal(a.estimate.x, b.estimate.x) || !bits_equal(a.estimate.y, b.estimate.y) ||
      a.discs.size() != b.discs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.discs.size(); ++i) {
    if (!bits_equal(a.discs[i].center.x, b.discs[i].center.x) ||
        !bits_equal(a.discs[i].center.y, b.discs[i].center.y) ||
        !bits_equal(a.discs[i].radius, b.discs[i].radius)) {
      return false;
    }
  }
  return true;
}

namespace {

bool same_times(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

bool same_record(const mc::DeviceRecord& a, const mc::DeviceRecord& b) {
  if (a.mac != b.mac || !bits_equal(a.first_seen, b.first_seen) ||
      !bits_equal(a.last_seen, b.last_seen) || a.probe_requests != b.probe_requests ||
      a.directed_ssids != b.directed_ssids || a.seq_frames != b.seq_frames ||
      a.first_seq != b.first_seq || a.last_seq != b.last_seq ||
      !bits_equal(a.first_seq_time, b.first_seq_time) ||
      !bits_equal(a.last_seq_time, b.last_seq_time) ||
      a.contacts.size() != b.contacts.size()) {
    return false;
  }
  auto ia = a.contacts.begin();
  auto ib = b.contacts.begin();
  for (; ia != a.contacts.end(); ++ia, ++ib) {
    const mc::ApContact& ca = ia->second;
    const mc::ApContact& cb = ib->second;
    if (ia->first != ib->first || !bits_equal(ca.first_seen, cb.first_seen) ||
        !bits_equal(ca.last_seen, cb.last_seen) || ca.count != cb.count ||
        !bits_equal(ca.last_rssi_dbm, cb.last_rssi_dbm) || !same_times(ca.times, cb.times)) {
      return false;
    }
  }
  return true;
}

bool same_identities(const mm::marauder::IdentityMap& a,
                     const mm::marauder::IdentityMap& b) {
  if (a.size() != b.size() || a.by_mac != b.by_mac) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.identities[i];
    const auto& y = b.identities[i];
    if (x.id != y.id || x.macs != y.macs || x.fingerprint != y.fingerprint ||
        !bits_equal(x.first_seen, y.first_seen) || !bits_equal(x.last_seen, y.last_seen)) {
      return false;
    }
  }
  return true;
}

bool same_position(const mm::pipeline::LivePosition& a,
                   const mm::pipeline::LivePosition& b) noexcept {
  return bits_equal(a.x_m, b.x_m) && bits_equal(a.y_m, b.y_m) && a.gamma_size == b.gamma_size &&
         a.ok == b.ok && a.used_fallback == b.used_fallback &&
         a.discs_rejected == b.discs_rejected;
}

std::size_t count_mismatched_devices(const mm::pipeline::LiveTracker& tracker,
                                     const mc::ObservationStore& want) {
  std::size_t have = 0;
  for (std::size_t s = 0; s < tracker.shard_count(); ++s) {
    have += tracker.shard_store(s).device_count();
  }
  std::size_t mismatched = have > want.device_count() ? have - want.device_count() : 0;
  for (const auto& mac : want.devices()) {
    const mc::DeviceRecord* got = tracker.shard_store(tracker.shard_for(mac)).device(mac);
    if (got == nullptr || !same_record(*got, *want.device(mac))) ++mismatched;
  }
  return mismatched;
}

void add_pipeline_stats(const mm::pipeline::PipelineStats& stats, PassMetrics& out) {
  std::uint64_t publishes = 0, incremental = 0, full = 0, high_water = 0, dropped = 0;
  std::uint64_t max_frames = 0, wal_records = 0, wal_commits = 0, checkpoints = 0;
  for (const auto& s : stats.shards) {
    publishes += s.publishes;
    incremental += s.incremental_updates;
    full += s.full_recomputes;
    high_water = std::max(high_water, s.ring_high_water);
    dropped += s.ring_dropped;
    max_frames = std::max(max_frames, s.frames);
    wal_records += s.wal_records;
    wal_commits += s.wal_commits;
    checkpoints += s.checkpoints;
  }
  const double mean_frames =
      stats.shards.empty() ? 0.0
                           : static_cast<double>(stats.total_frames) /
                                 static_cast<double>(stats.shards.size());
  out["pipeline.publishes"] += static_cast<double>(publishes);
  out["pipeline.incremental_updates"] += static_cast<double>(incremental);
  out["pipeline.full_recomputes"] += static_cast<double>(full);
  out["pipeline.incremental_ratio"] =
      incremental + full > 0
          ? static_cast<double>(incremental) / static_cast<double>(incremental + full)
          : 0.0;
  out["pipeline.directory_size"] += static_cast<double>(stats.directory_size);
  out["pipeline.shard.frames_skew"] =
      mean_frames > 0.0 ? static_cast<double>(max_frames) / mean_frames : 0.0;
  out["pipeline.shard.ring_high_water_max"] =
      std::max(out["pipeline.shard.ring_high_water_max"], static_cast<double>(high_water));
  out["pipeline.shard.ring_dropped"] += static_cast<double>(dropped);
  out["durability.wal_records"] += static_cast<double>(wal_records);
  out["durability.wal_commits"] += static_cast<double>(wal_commits);
  out["durability.checkpoints"] += static_cast<double>(checkpoints);
}

void add_fabric_stats(const std::vector<mm::net::FecEncoderStats>& encoders,
                      const std::vector<mm::net::LinkStats>& links,
                      const mm::pipeline::FeedMuxStats& mux, PassMetrics& out) {
  std::uint64_t data_bytes = 0, parity_bytes = 0, link_dropped = 0;
  for (const auto& e : encoders) {
    data_bytes += e.data_bytes;
    parity_bytes += e.parity_bytes;
  }
  for (const auto& l : links) link_dropped += l.dropped + l.burst_dropped;
  std::uint64_t crc = 0, resync = 0, recovered = 0, gaps = 0, dups = 0;
  for (const auto& f : mux.feeds) {
    crc += f.wire.crc_failures;
    resync += f.wire.resync_bytes;
    recovered += f.fec.recovered;
    gaps += f.fec.unrecoverable_gaps;
    dups += f.fec.duplicates;
  }
  out["net.parity_overhead"] =
      data_bytes > 0 ? static_cast<double>(parity_bytes) / static_cast<double>(data_bytes)
                     : 0.0;
  out["net.link.dropped"] = static_cast<double>(link_dropped);
  out["net.wire.crc_failures"] = static_cast<double>(crc);
  out["net.wire.resync_bytes"] = static_cast<double>(resync);
  out["net.fec.recovered"] = static_cast<double>(recovered);
  out["net.fec.unrecoverable_gaps"] = static_cast<double>(gaps);
  out["net.fec.duplicates"] = static_cast<double>(dups);
  out["pipeline.mux.events_delivered"] = static_cast<double>(mux.events_delivered);
  out["pipeline.mux.events_dropped"] = static_cast<double>(mux.events_dropped);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark reset_peak_rss() lowers; ru_maxrss is not
  // lowered by the reset (the kernel also folds exited threads' peaks into it),
  // so it is only the fallback where /proc is unavailable.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

}  // namespace chainbench
