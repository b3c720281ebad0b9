#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace chainbench {
namespace {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct OpenSpan {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

struct Record {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct ThreadLog {
  std::uint32_t index = 0;
  bool blocking = false;
  std::vector<OpenSpan> stack;
  std::vector<Record> records;
  /// Keyed by the literal's address; merged by text in take_pass().
  std::unordered_map<const char*, SpanAggregate> agg;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_run_id{0};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_records{0};
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mutex

ThreadLog& thread_log() {
  thread_local ThreadLog* log = [] {
    auto owned = std::make_unique<ThreadLog>();
    ThreadLog* raw = owned.get();
    const std::lock_guard<std::mutex> lock(g_logs_mutex);
    raw->index = static_cast<std::uint32_t>(g_logs.size());
    g_logs.push_back(std::move(owned));
    return raw;
  }();
  return *log;
}

void add(std::map<std::string, SpanAggregate>& into, const char* name,
         const SpanAggregate& a) {
  SpanAggregate& dst = into[name];
  dst.count += a.count;
  dst.total_s += a.total_s;
  dst.self_s += a.self_s;
}

}  // namespace

double PassTrace::self_s(const std::string& name) const {
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second.self_s;
}

double PassTrace::total_s(const std::string& name) const {
  const auto it = all.find(name);
  return it == all.end() ? 0.0 : it->second.total_s;
}

std::uint64_t PassTrace::count(const std::string& name) const {
  const auto it = all.find(name);
  return it == all.end() ? 0 : it->second.count;
}

std::string PassTrace::bottleneck_layer() const {
  std::map<std::string, double> by_layer;
  for (const auto& [name, a] : blocking) {
    by_layer[name.substr(0, name.find('.'))] += a.self_s;
  }
  std::string best = "none";
  double best_s = -1.0;
  for (const auto& [layer, s] : by_layer) {
    if (s > best_s) {
      best_s = s;
      best = layer;
    }
  }
  return best;
}

void Tracer::set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }
bool Tracer::enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void Tracer::set_run_id(std::uint64_t id) noexcept { g_run_id.store(id); }
void Tracer::mark_blocking_thread() noexcept { thread_log().blocking = true; }
std::uint64_t Tracer::dropped_records() noexcept { return g_dropped.load(); }

PassTrace Tracer::take_pass() {
  PassTrace out;
  const std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (const auto& log : g_logs) {
    for (const auto& [name, a] : log->agg) {
      add(out.all, name, a);
      if (log->blocking) add(out.blocking, name, a);
    }
    log->agg.clear();
  }
  return out;
}

bool Tracer::write_spans(const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t run = g_run_id.load();
  const std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (const auto& log : g_logs) {
    for (const Record& r : log->records) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"run\":%llu,"
                   "\"request\":%llu,\"thread\":%u,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   r.name, static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(run),
                   static_cast<unsigned long long>(r.request), log->index,
                   static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t request) noexcept {
  if (!Tracer::enabled()) return;
  active_ = true;
  ThreadLog& log = thread_log();
  const std::uint64_t parent = log.stack.empty() ? 0 : log.stack.back().id;
  log.stack.push_back(OpenSpan{name, g_next_id.fetch_add(1, std::memory_order_relaxed),
                               parent, request, now_ns(), 0});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadLog& log = thread_log();
  const OpenSpan open = log.stack.back();
  log.stack.pop_back();
  const std::int64_t dur = end - open.start_ns;
  if (!log.stack.empty()) log.stack.back().child_ns += dur;
  SpanAggregate& a = log.agg[open.name];
  ++a.count;
  a.total_s += static_cast<double>(dur) * 1e-9;
  a.self_s += static_cast<double>(dur - open.child_ns) * 1e-9;
  if (g_records.fetch_add(1, std::memory_order_relaxed) < Tracer::kMaxRecords) {
    log.records.push_back(
        Record{open.name, open.id, open.parent, open.request, open.start_ns, end});
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace chainbench
