#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>

#include "core/error.hpp"
#include "core/fmt.hpp"

namespace msehsim::obs {

namespace {

std::string num(double v) {
  // Microsecond timestamps at fixed precision. to_chars is always in the C
  // locale — snprintf %f under a ',' decimal locale emitted invalid JSON.
  return format_double_fixed(v, 6);
}

/// One event as a Chrome trace_event JSON object, no trailing separator.
std::string event_json(const TraceEvent& e) {
  std::string out = "{\"name\": \"" + json_escape(e.name) + "\", \"cat\": \"" +
                    json_escape(e.category) + "\", \"ph\": \"X\", \"ts\": " +
                    num(e.ts_us) + ", \"dur\": " + num(e.dur_us) +
                    ", \"pid\": 1, \"tid\": " + std::to_string(e.tid);
  if (!e.args_json.empty()) out += ", \"args\": {" + e.args_json + "}";
  out += "}";
  return out;
}

}  // namespace

void TraceCollector::enable() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  thread_names_.clear();
  thread_ids_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = Clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceCollector::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

std::uint32_t TraceCollector::thread_id_locked() {
  return thread_ids_
      .try_emplace(std::this_thread::get_id(),
                   static_cast<std::uint32_t>(thread_ids_.size()))
      .first->second;
}

std::uint32_t TraceCollector::thread_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_id_locked();
}

void TraceCollector::set_thread_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_[thread_id_locked()] = name;
}

void TraceCollector::record(const char* name, const char* category,
                            Clock::time_point start, Clock::time_point end,
                            std::string args_json) {
  using Micros = std::chrono::duration<double, std::micro>;
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.dur_us = Micros(end - start).count();
  event.args_json = std::move(args_json);
  std::lock_guard<std::mutex> lock(mutex_);
  // enable() re-anchors the epoch under this mutex, so the check and the
  // append see one session.
  if (!enabled() || start < epoch_) return;
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.ts_us = Micros(start - epoch_).count();
  event.tid = thread_id_locked();
  events_.push_back(std::move(event));
}

std::size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> TraceCollector::ordered_locked() const {
  // Thread-id order: deterministic for any thread count, and a
  // single-threaded export is the log in record order.
  std::vector<TraceEvent> out = events_;
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.tid < b.tid;
                   });
  return out;
}

std::string TraceCollector::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n\"traceEvents\": [";
  bool first = true;
  const auto separate = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  for (const auto& [tid, name] : thread_names_) {
    separate();
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": \"" +
           json_escape(name) + "\"}}";
  }
  for (const TraceEvent& e : ordered_locked()) {
    separate();
    out += event_json(e);
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

std::vector<TraceEvent> TraceCollector::snapshot_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ordered_locked();
}

void TraceCollector::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  require_spec(file.good(), "trace export: cannot open '" + path + "'");
  file << chrome_trace_json();
  require_spec(file.good(), "trace export: write to '" + path + "' failed");
}

void Span::finish() {
  TraceCollector::instance().record(name_, category_, start_,
                                    TraceCollector::Clock::now(),
                                    std::move(args_json_));
}

}  // namespace msehsim::obs
