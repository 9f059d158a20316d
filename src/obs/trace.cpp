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
/// Both the in-memory drain and the disk spill files serialize through this
/// helper, so a replayed spill line is byte-identical to the object an
/// uncapped in-memory drain would have emitted.
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

TraceCollector::ThreadBuffer::ThreadBuffer() = default;
TraceCollector::ThreadBuffer::~ThreadBuffer() = default;

void TraceCollector::enable(std::uint32_t sample_every) {
#if MSEHSIM_OBS_ENABLED
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
    // A fresh trace forgets the previous run's spill file: closing the
    // stream here means the drain never replays stale events, and the next
    // spill reopens the path with truncation.
    buffer->spill.reset();
    buffer->spill_path.clear();
  }
  thread_names_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  spilled_.store(0, std::memory_order_relaxed);
  sample_every_.store(sample_every == 0 ? 1 : sample_every,
                      std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
#else
  (void)sample_every;  // compiled out: tracing stays off
#endif
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
    if (stream_.load(std::memory_order_relaxed)) {
      spill_locked(buffer);  // drain to disk, keep recording
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  buffer.events.push_back(std::move(event));
}

void TraceCollector::spill_locked(ThreadBuffer& buffer) {
  if (buffer.spill == nullptr) {
    // spill_dir_ is read without mutex_ (lock order forbids taking it under
    // buffer.mutex); stream_to_disk's call-before-recording contract makes
    // that safe.
    buffer.spill_path =
        spill_dir_ + "/spans-" + std::to_string(buffer.tid) + ".jsonl";
    buffer.spill = std::make_unique<std::ofstream>(
        buffer.spill_path, std::ios::binary | std::ios::trunc);
    require_spec(buffer.spill->good(),
                 "trace spill: cannot open '" + buffer.spill_path + "'");
  }
  for (const auto& e : buffer.events) *buffer.spill << event_json(e) << '\n';
  require_spec(buffer.spill->good(),
               "trace spill: write to '" + buffer.spill_path + "' failed");
  spilled_.fetch_add(buffer.events.size(), std::memory_order_relaxed);
  buffer.events.clear();
}

void TraceCollector::stream_to_disk(const std::string& dir) {
#if MSEHSIM_OBS_ENABLED
  std::lock_guard<std::mutex> lock(mutex_);
  spill_dir_ = dir;
  stream_.store(!dir.empty(), std::memory_order_relaxed);
#else
  (void)dir;  // compiled out: nothing ever records, nothing ever spills
#endif
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

std::string TraceCollector::chrome_trace_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n\"traceEvents\": [";
  bool first = true;
  for (const auto& [tid, name] : thread_names_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
           std::to_string(tid) + ", \"args\": {\"name\": \"" +
           json_escape(name) + "\"}}";
  }
  // Drain buffers in thread-id order: deterministic for any thread count,
  // and byte-identical to the old single-vector layout for single-threaded
  // runs (one buffer, events in record order).
  std::vector<const ThreadBuffer*> ordered;
  ordered.reserve(buffers_.size());
  for (const auto& buffer : buffers_) ordered.push_back(buffer.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const ThreadBuffer* a, const ThreadBuffer* b) {
              return a->tid < b->tid;
            });
  for (const ThreadBuffer* buffer : ordered) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    // A streaming thread's spilled prefix replays from disk first — spill
    // lines are rendered by the same event_json the in-memory tail uses, so
    // the document is byte-identical to an uncapped in-memory drain.
    if (buffer->spill != nullptr) {
      buffer->spill->flush();
      std::ifstream replay(buffer->spill_path, std::ios::binary);
      require_spec(replay.good(),
                   "trace spill: cannot replay '" + buffer->spill_path + "'");
      std::string line;
      while (std::getline(replay, line)) {
        if (line.empty()) continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += line;
      }
    }
    for (const auto& e : buffer->events) {
      out += first ? "\n" : ",\n";
      first = false;
      out += event_json(e);
    }
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

std::vector<TraceEvent> TraceCollector::snapshot_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const ThreadBuffer*> ordered;
  ordered.reserve(buffers_.size());
  for (const auto& buffer : buffers_) ordered.push_back(buffer.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const ThreadBuffer* a, const ThreadBuffer* b) {
              return a->tid < b->tid;
            });
  std::vector<TraceEvent> out;
  for (const ThreadBuffer* buffer : ordered) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
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
