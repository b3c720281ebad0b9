// Span recorder for the traced run. Every span is opened by the benchmark's
// own code around one call into a layer's public API; the program itself is
// not instrumented. A span carries its name (layer prefix + operation), start,
// end, the span that encloses it on the same thread, the run id shared by
// every span of the process, and an optional request id (the item it served).
//
// Self time = duration minus the time covered by child spans, so a parent
// such as `sim.run_until` reports only what the simulator itself spent, not
// the fabric work its sniffer sink triggered.
//
// Spans are kept in memory (up to kMaxRecords; beyond that only the running
// per-name aggregates are kept) and written out once, at exit.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

namespace chainbench {

struct SpanAggregate {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Per-name aggregates of spans closed since the last take, split into all
/// threads and the blocking (main) thread.
struct PassTrace {
  std::map<std::string, SpanAggregate> all;
  std::map<std::string, SpanAggregate> blocking;

  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::uint64_t count(const std::string& name) const;
  /// Layer (span-name prefix before the first '.') with the largest self
  /// time on the blocking thread; "none" when nothing was recorded.
  [[nodiscard]] std::string bottleneck_layer() const;
};

class Tracer {
 public:
  static constexpr std::size_t kMaxRecords = 50'000;

  static void set_enabled(bool on) noexcept;
  [[nodiscard]] static bool enabled() noexcept;
  static void set_run_id(std::uint64_t id) noexcept;
  /// Marks the calling thread as the one on the blocking path.
  static void mark_blocking_thread() noexcept;

  /// Aggregates of every span closed since the previous call, then clears
  /// them. Call only while no other thread has a span open.
  [[nodiscard]] static PassTrace take_pass();

  /// Writes every retained span as one JSON object per line.
  static bool write_spans(const std::filesystem::path& path);
  [[nodiscard]] static std::uint64_t dropped_records() noexcept;
};

/// RAII span; a no-op (one relaxed load) when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

}  // namespace chainbench
