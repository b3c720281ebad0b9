// Shared pieces of the chain benchmark: options, the per-pass metric record,
// correctness-gate accounting, timing helpers, and bit-exact comparisons used
// by the gates.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "capture/frame_event.h"
#include "capture/observation_store.h"
#include "marauder/identity.h"
#include "marauder/localization.h"
#include "net/fec.h"
#include "net/link_sim.h"
#include "pipeline/feed_mux.h"
#include "pipeline/live_tracker.h"

namespace chainbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: tiny inputs, for the benchmark's own tests.
  bool smoke = false;
  /// Perturbs one oracle answer so the workload's gate must fire (tests).
  bool break_oracle = false;
  std::size_t hw_cores = 1;
  /// Scratch directory for WAL segments and snapshot files.
  std::filesystem::path work_dir;
};

/// Everything one pass measured, by metric name (end-to-end and per-layer).
using PassMetrics = std::map<std::string, double>;

struct PassOutput {
  PassMetrics metrics;
  /// Per-item latencies (ms). The run pools them over its untraced passes
  /// for latency_p50_ms / latency_p99_ms.
  std::vector<double> latency_ms;

  double& operator[](const std::string& name) { return metrics[name]; }
};

/// Correctness-gate accounting: each checked operation is attempted once and
/// either matches its oracle or counts as failed.
class Gates {
 public:
  void check(bool ok, const std::string& what);
  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;  ///< first few failures, for stderr
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates (or regenerates) every input from the seed; timed as setup_s.
  virtual void setup() = 0;
  /// One pass over the inputs: the timed work plus its correctness gates
  /// (gates run outside the timed region).
  virtual void run_pass(std::size_t pass, PassOutput& out, Gates& gates) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_campus_aprad(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_live_fabric(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_city_mloc(const Options& options);
[[nodiscard]] std::unique_ptr<Workload> make_wps_sweep(const Options& options);

/// Runs `f` when the scope ends, on exception paths too (joins helper
/// threads before the data they use goes away).
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ~ScopeExit() { f_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  F f_;
};

/// An open-loop run is invalid when its generator, idle before a send was
/// due, still started the send this late at p99 (median over the passes):
/// beyond any timer slack, the generator itself was starved and the offered
/// schedule was not kept.
inline constexpr double kGeneratorLagLimitMs = 5.0;

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] bool bits_equal(double a, double b) noexcept;
[[nodiscard]] bool same_event(const mm::capture::FrameEvent& a,
                              const mm::capture::FrameEvent& b) noexcept;
[[nodiscard]] bool same_result(const mm::marauder::LocalizationResult& a,
                               const mm::marauder::LocalizationResult& b) noexcept;
[[nodiscard]] bool same_record(const mm::capture::DeviceRecord& a,
                               const mm::capture::DeviceRecord& b);
[[nodiscard]] bool same_identities(const mm::marauder::IdentityMap& a,
                                   const mm::marauder::IdentityMap& b);
/// The estimate a published position carries: coordinates, Gamma size and
/// quality flags. The publish counter and updated_at_s describe the publish,
/// not the estimate, and recover() republishes each device once from its
/// recovered state, so neither is compared (the repository's own recovery
/// tests compare the same fields).
[[nodiscard]] bool same_position(const mm::pipeline::LivePosition& a,
                                 const mm::pipeline::LivePosition& b) noexcept;

/// Device records a stopped tracker holds, across all shard slices.
[[nodiscard]] std::size_t count_mismatched_devices(const mm::pipeline::LiveTracker& tracker,
                                                   const mm::capture::ObservationStore& want);

/// Adds the tracker's pipeline/durability counters to `out` under the
/// per-layer names.
void add_pipeline_stats(const mm::pipeline::PipelineStats& stats, PassMetrics& out);

/// Adds the sensor-fabric counters (encoders, links, mux) to `out`.
void add_fabric_stats(const std::vector<mm::net::FecEncoderStats>& encoders,
                      const std::vector<mm::net::LinkStats>& links,
                      const mm::pipeline::FeedMuxStats& mux, PassMetrics& out);

/// Peak resident set of this process since the last reset_peak_rss(), MB.
[[nodiscard]] double peak_rss_mb();
/// Resets the kernel's resident-set high-water mark to the current resident
/// set (Linux: "5" to /proc/self/clear_refs). Where that is unsupported the
/// mark keeps running over the whole process.
void reset_peak_rss();

}  // namespace chainbench
