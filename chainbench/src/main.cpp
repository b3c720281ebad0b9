// Chain benchmark: one command, four seeded workloads over the attack chain
// sim -> capture -> net -> pipeline -> durability -> marauder -> wps.
//
//   chainbench --workload <campus_aprad|live_fabric|city_mloc|wps_sweep>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--smoke] [--break-oracle] [--out-dir <dir>]
//
// A run sets the workload up at least three times, more when setup is quick
// (setup_s is the median), makes one warm-up pass, then makes passes over the
// generated inputs until --seconds have been measured, reporting the median
// of each metric over the passes (item latencies are pooled over the
// passes). With --trace 1 the
// passes alternate untraced and traced; the traced ones give the per-layer
// metrics and their ratio to the untraced ones gives bench.trace_overhead.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
// The line before it carries run metadata (hw_cores, seed, build type, pass
// count, quartiles of every metric, bottleneck_layer). Spans of the traced
// passes are written to <out-dir>/spans-<workload>-<seed>.jsonl.
#include <alloca.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "trace.h"
#include "util/hash.h"
#include "util/rng.h"

#ifndef CHAINBENCH_BUILD_TYPE
#define CHAINBENCH_BUILD_TYPE "unknown"
#endif

namespace chainbench {
namespace {

namespace fs = std::filesystem;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json (the benchmark's own test checks both agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"result_s", "s"},     {"items_per_s", "1/s"},
    {"latency_p50_ms", "ms"}, {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    // The item p99 swings by more than a tenth between runs on every
    // workload (a few multi-millisecond stalls decide it), so it is reported
    // here rather than as an end-to-end metric.
    {"latency_p99_ms", "ms"},
    {"sim.run_s", "s"},
    {"sim.frames_transmitted", "count"},
    {"sim.deliveries_culled", "count"},
    {"capture.frames_on_air", "count"},
    {"capture.frames_decoded", "count"},
    {"capture.decode_ratio", "ratio"},
    {"marauder.prepare_s", "s"},
    {"marauder.aprad.constraints_s", "s"},
    {"lp.solve_s", "s"},
    {"marauder.aprad.observed_aps", "count"},
    {"marauder.aprad.co_pairs", "count"},
    {"marauder.aprad.less_rows", "count"},
    {"marauder.locate_s", "s"},
    {"marauder.median_error_m", "m"},
    {"marauder.locate_all_s", "s"},
    {"marauder.locate_all.plan_s", "s"},
    {"marauder.locate_all.locate_s", "s"},
    {"marauder.locate_all.merge_s", "s"},
    {"marauder.locate_all.unique_gammas", "count"},
    {"marauder.locate_all.duplicate_ratio", "ratio"},
    {"marauder.locate_all.outlier_devices", "count"},
    {"marauder.locate_all.cache_hits", "count"},
    {"marauder.locate_all.cache_misses", "count"},
    {"marauder.identity.resolve_s", "s"},
    {"marauder.identity.ssid_edges", "count"},
    {"marauder.identity.seq_edges", "count"},
    {"marauder.identity.gamma_edges", "count"},
    {"marauder.identity.identities", "count"},
    {"net.encode_s", "s"},
    {"net.decode_s", "s"},
    {"net.wire.crc_failures", "count"},
    {"net.wire.resync_bytes", "count"},
    {"net.fec.recovered", "count"},
    {"net.fec.unrecoverable_gaps", "count"},
    {"net.fec.duplicates", "count"},
    {"net.link.dropped", "count"},
    {"net.parity_overhead", "ratio"},
    {"pipeline.mux.on_bytes_s", "s"},
    {"pipeline.mux.events_delivered", "count"},
    {"pipeline.mux.events_dropped", "count"},
    {"pipeline.backlog_max", "count"},
    {"pipeline.shard.frames_skew", "ratio"},
    {"pipeline.shard.ring_high_water_max", "count"},
    {"pipeline.shard.ring_dropped", "count"},
    {"pipeline.publishes", "count"},
    {"pipeline.incremental_updates", "count"},
    {"pipeline.full_recomputes", "count"},
    {"pipeline.incremental_ratio", "ratio"},
    {"pipeline.directory_size", "count"},
    {"pipeline.stop_s", "s"},
    {"pipeline.locate_s", "s"},
    {"pipeline.locate_identity_s", "s"},
    {"pipeline.read_calls", "count"},
    {"pipeline.read_latency_p50_us", "us"},
    {"pipeline.read_latency_p99_us", "us"},
    {"durability.wal_records", "count"},
    {"durability.wal_commits", "count"},
    {"durability.checkpoints", "count"},
    {"durability.wal_bytes", "bytes"},
    {"durability.recover_s", "s"},
    {"durability.wal_records_replayed", "count"},
    {"durability.checkpoint_rows_loaded", "count"},
    {"durability.positions_republished", "count"},
    {"wps.snapshot_write_s", "s"},
    {"wps.open_s", "s"},
    {"wps.lookup_s", "s"},
    {"wps.nearest_k_s", "s"},
    {"wps.reload_s", "s"},
    {"wps.tiles_total", "count"},
    {"wps.tiles_quarantined", "count"},
    {"wps.reloads_rejected", "count"},
    {"wps.cold_latency_p99_ms", "ms"},
    {"wps.reload_latency_p99_ms", "ms"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.failed_ratio", "ratio"},
};

/// Per-layer times derived from span aggregates: metric <- span name, taking
/// the span's self time (true) or its whole duration (false).
struct SpanMetric {
  const char* metric;
  const char* span;
  bool self;
};

constexpr SpanMetric kSpanMetrics[] = {
    {"sim.run_s", "sim.run_until", true},
    {"marauder.prepare_s", "marauder.prepare", false},
    {"marauder.aprad.constraints_s", "marauder.aprad.constraints", false},
    {"marauder.locate_s", "marauder.locate", false},
    {"marauder.locate_all_s", "marauder.locate_all", false},
    {"marauder.identity.resolve_s", "marauder.identity.resolve", false},
    {"net.encode_s", "net.encode", false},
    {"net.decode_s", "net.decode", false},
    {"pipeline.mux.on_bytes_s", "pipeline.mux.on_bytes", false},
    {"pipeline.stop_s", "pipeline.stop", false},
    {"pipeline.locate_s", "pipeline.locate", false},
    {"pipeline.locate_identity_s", "pipeline.locate_identity", false},
    {"durability.recover_s", "durability.recover", false},
    {"wps.snapshot_write_s", "wps.write_snapshot", false},
    {"wps.open_s", "wps.open", false},
    {"wps.lookup_s", "wps.lookup", false},
    {"wps.nearest_k_s", "wps.nearest_k", false},
    {"wps.reload_s", "wps.reload", false},
};

void add_span_metrics(const PassTrace& trace, PassMetrics& out) {
  for (const SpanMetric& m : kSpanMetrics) {
    if (trace.count(m.span) == 0) continue;
    out[m.metric] += m.self ? trace.self_s(m.span) : trace.total_s(m.span);
  }
  // Derived: prepare() is constraint generation plus the LP rounds; the
  // constraints are timed alone in a separate call.
  if (trace.count("marauder.prepare") > 0 && trace.count("marauder.aprad.constraints") > 0) {
    out["lp.solve_s"] = std::max(0.0, trace.total_s("marauder.prepare") -
                                          trace.total_s("marauder.aprad.constraints"));
  }
}

struct Summary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> v) {
  Summary s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  };
  s.q1 = at(0.25);
  s.median = at(0.5);
  s.q3 = at(0.75);
  return s;
}

std::string number(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Runs `f` with the stack moved down by a different multiple of 16 bytes
/// below one page each call (the sequence follows `state`). Where the stack
/// sits within a page, against the heap, moved a campus setup between ~7 and
/// ~10 ms (likely aliasing of stack and heap addresses), and ASLR draws that
/// offset once per process; varying it per setup and per pass makes each
/// median average over layouts instead of keeping the one the process drew.
template <typename F>
[[gnu::noinline]] void with_stack_offset(std::uint64_t& state, F&& f) {
  state = mm::util::mix64(state + 1);
  volatile char* pad = static_cast<char*>(alloca(16 * (state % 256) + 16));
  pad[0] = 0;
  f();
}

int usage(const char* why) {
  std::cerr << "chainbench: " << why
            << "\nusage: chainbench --workload <campus_aprad|live_fabric|city_mloc|"
               "wps_sweep> --seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--break-oracle] [--out-dir <dir>]\n";
  return 2;
}

int run(int argc, char** argv) {
  Options options;
  fs::path out_dir = ".bench_out";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--break-oracle") {
      options.break_oracle = true;
    } else if (arg == "--out-dir") {
      out_dir = value();
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  options.hw_cores = std::max(1u, std::thread::hardware_concurrency());

  fs::create_directories(out_dir);
  options.work_dir =
      out_dir / ("work-" + options.workload + "-" + std::to_string(::getpid()));
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);
  ScopeExit remove_work_dir([&] {
    std::error_code ec;
    fs::remove_all(options.work_dir, ec);
  });

  std::unique_ptr<Workload> workload;
  if (options.workload == "campus_aprad") {
    workload = make_campus_aprad(options);
  } else if (options.workload == "live_fabric") {
    workload = make_live_fabric(options);
  } else if (options.workload == "city_mloc") {
    workload = make_city_mloc(options);
  } else if (options.workload == "wps_sweep") {
    workload = make_wps_sweep(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  Tracer::mark_blocking_thread();
  Tracer::set_run_id(
      mm::util::hash_combine(options.seed, std::hash<std::string>{}(options.workload)));

  // Set up several times (at least kMinSetupRepeats, more while the setups
  // have taken less than kSetupBudgetS, so a setup of milliseconds still
  // gets a steady median); the last setup's inputs are the ones measured.
  // In a traced run only the last setup is traced (its layer spans, such as
  // snapshot writes and feed encoding, belong to the per-layer metrics).
  constexpr std::size_t kMinSetupRepeats = 3;
  constexpr std::size_t kMaxSetupRepeats = 41;
  constexpr double kSetupBudgetS = 2.0;
  std::vector<double> setup_times;
  double setup_total_s = 0.0;
  std::uint64_t layout = options.seed;
  const auto set_up = [&](bool traced) {
    Tracer::set_enabled(traced);
    const auto t0 = Clock::now();
    with_stack_offset(layout, [&] { workload->setup(); });
    setup_times.push_back(seconds_since(t0));
    setup_total_s += setup_times.back();
    Tracer::set_enabled(false);
    return Tracer::take_pass();
  };
  while (setup_times.size() + 1 < kMinSetupRepeats ||
         (setup_total_s < kSetupBudgetS && setup_times.size() + 1 < kMaxSetupRepeats)) {
    (void)set_up(false);
  }
  const PassTrace setup_trace = set_up(options.trace);

  // A warm-up pass lets caches fill and lazy set-up finish; its gates count
  // but its measurements are not reported. Then passes until --seconds have
  // been measured. A traced run alternates untraced and traced passes and
  // needs at least one of each.
  Gates gates;
  {
    PassOutput warmup;
    workload->run_pass(0, warmup, gates);
    malloc_trim(0);
  }
  std::vector<PassMetrics> untraced, traced;
  std::map<std::string, int> bottlenecks;
  std::vector<double> pooled_latency_ms;
  const std::size_t min_passes = options.trace ? 2 : 1;
  const auto start = Clock::now();
  for (std::size_t n = 0; n < min_passes || seconds_since(start) < options.seconds; ++n) {
    const bool traced_pass = options.trace && n % 2 == 1;
    Tracer::set_enabled(traced_pass);
    PassOutput out;
    reset_peak_rss();
    with_stack_offset(layout, [&] { workload->run_pass(n + 1, out, gates); });
    out["peak_rss_mb"] = peak_rss_mb();
    Tracer::set_enabled(false);
    PassTrace trace = Tracer::take_pass();
    // Hand freed heap back before the next pass, so each pass starts from
    // the memory a fresh process would have.
    malloc_trim(0);
    // Per-pass percentiles go to the metadata quartiles; the reported value
    // pools every untraced pass's items.
    out["latency_p50_ms"] = percentile(out.latency_ms, 50.0);
    out["latency_p99_ms"] = percentile(out.latency_ms, 99.0);
    if (traced_pass) {
      add_span_metrics(trace, out.metrics);
      ++bottlenecks[trace.bottleneck_layer()];
      traced.push_back(std::move(out.metrics));
    } else {
      pooled_latency_ms.insert(pooled_latency_ms.end(), out.latency_ms.begin(),
                               out.latency_ms.end());
      untraced.push_back(std::move(out.metrics));
    }
  }

  // Layer metrics measured once during setup (feed encoding, snapshot writes).
  PassMetrics setup_layers;
  add_span_metrics(setup_trace, setup_layers);

  const auto collect = [](const std::vector<PassMetrics>& passes, const std::string& name) {
    std::vector<double> v;
    for (const auto& p : passes) {
      const auto it = p.find(name);
      if (it != p.end()) v.push_back(it->second);
    }
    return v;
  };

  std::map<std::string, Summary> summaries;
  std::map<std::string, std::size_t> sample_counts;
  const auto put = [&](const std::string& name, const std::vector<double>& v) {
    summaries[name] = summarize(v);
    sample_counts[name] = v.size();
  };
  put("setup_s", setup_times);
  const double failed_ratio =
      gates.attempted() > 0
          ? static_cast<double>(gates.failed()) / static_cast<double>(gates.attempted())
          : 0.0;

  // Open-loop honesty: the run is invalid when, over its passes, the
  // generator's own lateness was beyond timer slack (see common.h).
  std::vector<double> lags = collect(untraced, "bench.generator_lag_p99_ms");
  const std::vector<double> traced_lags = collect(traced, "bench.generator_lag_p99_ms");
  lags.insert(lags.end(), traced_lags.begin(), traced_lags.end());
  const bool generator_behind = summarize(lags).median > kGeneratorLagLimitMs;

  const std::vector<PassMetrics>& reported = options.trace ? traced : untraced;
  std::map<std::string, double> values;  // reported value when not the median
  if (!options.trace) {
    for (const MetricDef& m : kEndToEnd) {
      if (summaries.count(m.name) == 0) put(m.name, collect(reported, m.name));
    }
    values["latency_p50_ms"] = percentile(pooled_latency_ms, 50.0);
  } else {
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> v = collect(reported, m.name);
      if (v.empty()) {
        const auto it = setup_layers.find(m.name);
        v.push_back(it != setup_layers.end() ? it->second : 0.0);
      }
      put(m.name, v);
    }
    const double untraced_s = summarize(collect(untraced, "result_s")).median;
    const double traced_s = summarize(collect(traced, "result_s")).median;
    put("bench.trace_overhead", {untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0});
    put("bench.failed_ratio", {failed_ratio});
  }

  std::string bottleneck = "none";
  int best = 0;
  for (const auto& [layer, n] : bottlenecks) {
    if (n > best) {
      best = n;
      bottleneck = layer;
    }
  }

  const bool correct = gates.failed() == 0 && !generator_behind;
  for (const auto& msg : gates.messages()) std::cerr << "gate failed: " << msg << "\n";
  if (generator_behind) {
    std::cerr << "run invalid: the load generator fell behind its schedule\n";
  }

  // Metadata line, then the result line (always last).
  std::ostringstream meta;
  meta << "{\"meta\": {\"workload\": \"" << options.workload << "\", \"seed\": "
       << options.seed << ", \"hw_cores\": " << options.hw_cores
       << ", \"build_type\": \"" << CHAINBENCH_BUILD_TYPE << "\", \"trace\": "
       << (options.trace ? 1 : 0) << ", \"smoke\": " << (options.smoke ? "true" : "false")
       << ", \"setup_repeats\": " << setup_times.size() << ", \"passes\": "
       << reported.size() << ", \"untraced_passes\": " << untraced.size()
       << ", \"traced_passes\": " << traced.size() << ", \"bottleneck_layer\": \""
       << bottleneck << "\", \"valid\": " << (generator_behind ? "false" : "true")
       << ", \"failed_ratio\": " << number(failed_ratio)
       << ", \"span_records_dropped\": " << Tracer::dropped_records()
       << ", \"pooled_latency_items\": " << pooled_latency_ms.size()
       << ", \"quartiles\": {";
  bool first = true;
  for (const auto& [name, s] : summaries) {
    meta << (first ? "" : ", ") << "\"" << name << "\": {\"q1\": " << number(s.q1)
         << ", \"median\": " << number(s.median) << ", \"q3\": " << number(s.q3)
         << ", \"n\": " << sample_counts[name] << "}";
    first = false;
  }
  meta << "}}}";
  std::cout << meta.str() << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, gates.attempted())
       << ", \"failed\": " << gates.failed() << ", \"metrics\": {";
  first = true;
  const auto emit = [&](const MetricDef& m) {
    const auto v = values.find(m.name);
    line << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << number(v != values.end() ? v->second : summaries[m.name].median)
         << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (options.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  line << "}}";

  if (options.trace) {
    const fs::path spans = out_dir / ("spans-" + options.workload + "-" +
                                      std::to_string(options.seed) + ".jsonl");
    if (!Tracer::write_spans(spans)) std::cerr << "could not write " << spans << "\n";
  }
  workload.reset();

  std::cout << line.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace chainbench

int main(int argc, char** argv) {
  try {
    return chainbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "chainbench: " << e.what() << "\n";
    return 2;
  }
}
