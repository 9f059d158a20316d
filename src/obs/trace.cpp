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
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  thread_names_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceCollector::disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

double TraceCollector::now_us() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

TraceCollector::ThreadBuffer& TraceCollector::local_buffer() {
  // One registration per thread for the process lifetime; the cached
  // pointer stays valid because enable() clears buffers without ever
  // destroying them.
  thread_local ThreadBuffer* cached = nullptr;
  if (cached == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = thread_ids_.try_emplace(
        std::this_thread::get_id(),
        static_cast<std::uint32_t>(thread_ids_.size()));
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = it->second;
    cached = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *cached;
}

std::uint32_t TraceCollector::thread_id() { return local_buffer().tid; }

void TraceCollector::set_thread_name(const std::string& name) {
  const std::uint32_t tid = thread_id();
  std::lock_guard<std::mutex> lock(mutex_);
  thread_names_.emplace_back(tid, name);
}

void TraceCollector::record(TraceEvent event) {
  ThreadBuffer& buffer = local_buffer();
  // The buffer mutex is private to this thread except during drains, so
  // the lock is uncontended on the hot path — no cross-thread traffic.
  std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.events.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.events.push_back(std::move(event));
}

std::size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    count += buffer->events.size();
  }
  return count;
}

template <typename Visit>
void TraceCollector::drain_locked(Visit&& visit) const {
  // Thread-id order: deterministic for any thread count, and a
  // single-threaded run is its one buffer in record order.
  std::vector<const ThreadBuffer*> ordered;
  ordered.reserve(buffers_.size());
  for (const auto& buffer : buffers_) ordered.push_back(buffer.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const ThreadBuffer* a, const ThreadBuffer* b) {
              return a->tid < b->tid;
            });
  for (const ThreadBuffer* buffer : ordered) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (const auto& e : buffer->events) visit(e);
  }
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
  drain_locked([&](const TraceEvent& e) {
    separate();
    out += event_json(e);
  });
  out += "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

std::vector<TraceEvent> TraceCollector::snapshot_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  drain_locked([&](const TraceEvent& e) { out.push_back(e); });
  return out;
}

void TraceCollector::write_chrome_trace(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  require_spec(file.good(), "trace export: cannot open '" + path + "'");
  file << chrome_trace_json();
  require_spec(file.good(), "trace export: write to '" + path + "' failed");
}

void Span::finish() {
  auto& collector = TraceCollector::instance();
  if (!collector.enabled()) return;  // disabled mid-span: drop it
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.ts_us = start_us_;
  event.dur_us = collector.now_us() - start_us_;
  event.tid = collector.thread_id();
  event.args_json = std::move(args_json_);
  collector.record(std::move(event));
}

}  // namespace msehsim::obs
