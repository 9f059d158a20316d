// Span tracing — pillar 3 of the observability layer.
//
// Scoped wall-clock timers around campaign jobs, trace compilation, cache
// probes, exports and platform steps, collected into a process-wide event
// log and exported as Chrome trace_event JSON ("ph":"X" complete events) that
// loads directly in Perfetto / chrome://tracing. The campaign pool's
// per-job queue-wait and run spans land on one track per worker, which
// makes the LPT schedule visible.
//
// Cost model:
//  - Collector disabled (the default at runtime): each span site is one
//    relaxed atomic load and a branch. No site sits inside Platform::step
//    or an MPP solve, and systems::BatchRunner::run reads enabled() once
//    per run, so an untraced run pays nothing per step.
//  - Collector enabled: coarse sites (per job, per compile, per export)
//    always record. The one per-step span, "platform.step", is timed by
//    BatchRunner::run for 1 in every kStepSampleStride lane-steps, counted
//    locally to the run, so a day-scale run emits hundreds of spans, not
//    hundreds of thousands, and worker threads share no counter. Every
//    record appends to one event log under one mutex; at a few thousand
//    spans per second across all workers that lock is uncontended.
//
// Wall-clock timestamps are inherently nondeterministic, so spans never
// feed RunResult or any exported metric — they are a diagnostic stream
// only. That separation is what keeps the to_string(RunResult) byte
// contract indifferent to tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace msehsim::obs {

/// One complete ("ph":"X") Chrome trace event.
struct TraceEvent {
  std::string name;
  const char* category{"sim"};
  double ts_us{0.0};   ///< start, microseconds since enable()
  double dur_us{0.0};
  std::uint32_t tid{0};
  std::string args_json;  ///< pre-rendered `"k": v` pairs, may be empty
};

/// Process-wide span sink. Thread-safe: every thread records into one
/// event log under the collector mutex, stamped with the caller's dense
/// thread id. Span *sites* pay only a relaxed atomic load while disabled.
/// A trace session runs from one enable() to the next: enable() clears the
/// log, the thread names and the thread ids, so nothing a session records
/// outlives it, and a span that started before it is dropped. One
/// collector per process keeps span sites dependency-free; campaigns own it
/// for the duration of a traced run.
class TraceCollector {
 public:
  /// BatchRunner::run times 1 in this many lane-steps as "platform.step".
  static constexpr std::uint64_t kStepSampleStride = 1024;

  static TraceCollector& instance() {
    static TraceCollector collector;
    return collector;
  }

  using Clock = std::chrono::steady_clock;

  /// Starts a session: clears events, thread names and thread ids, and
  /// re-anchors the epoch.
  void enable();
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Dense id for the calling thread (first call in a session assigns).
  [[nodiscard]] std::uint32_t thread_id();

  /// Perfetto track label for the calling thread ("ph":"M" metadata); one
  /// name per thread id, the last one set wins.
  void set_thread_name(const std::string& name);

  /// Appends one complete event that ran over [@p start, @p end), stamped
  /// with the caller's thread id and timed from the session's epoch. Drops
  /// it while the collector is disabled, and when it started before the
  /// last enable() (it belongs to an ended session). Silently drops (and
  /// counts) events beyond the session cap so a runaway trace cannot
  /// exhaust memory.
  void record(const char* name, const char* category, Clock::time_point start,
              Clock::time_point end, std::string args_json = {});

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The whole log as a Chrome trace_event JSON document.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Copies every event out, in the order chrome_trace_json() emits them
  /// (thread-id order, each thread's events in record order), for
  /// in-process inspection.
  [[nodiscard]] std::vector<TraceEvent> snapshot_events() const;

  /// Writes chrome_trace_json() to @p path (throws SpecError on I/O error).
  void write_chrome_trace(const std::string& path) const;

  /// Session cap (events, all threads). Applies from the next record().
  void set_capacity(std::size_t events) {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = events;
  }

 private:
  TraceCollector() = default;

  /// Dense id for the calling thread. Caller holds mutex_.
  [[nodiscard]] std::uint32_t thread_id_locked();

  /// The log in export order: a stable sort by thread id, so each thread's
  /// events keep their record order. Caller holds mutex_.
  [[nodiscard]] std::vector<TraceEvent> ordered_locked() const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;  ///< guards everything below
  Clock::time_point epoch_;   ///< the last enable()
  std::size_t capacity_{1u << 20};
  std::vector<TraceEvent> events_;
  std::map<std::uint32_t, std::string> thread_names_;
  std::unordered_map<std::thread::id, std::uint32_t> thread_ids_;
};

/// RAII span: captures the start on construction, records on destruction.
/// Does nothing while the collector is disabled or @p name is null (how
/// BatchRunner::run skips the lane-steps it does not sample). The start is
/// an absolute clock reading, so a span open across disable() or enable()
/// is dropped rather than timed against the wrong session. The constructor
/// and destructor are inline so a disabled site costs one relaxed load and
/// a branch without a function call.
class Span {
 public:
  Span(const char* name, const char* category, std::string args_json = {})
      : name_(name), category_(category), args_json_(std::move(args_json)) {
    if (name_ == nullptr) return;
    if (!TraceCollector::instance().enabled()) return;
    start_ = TraceCollector::Clock::now();
    active_ = true;
  }
  ~Span() {
    if (active_) finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  /// Out-of-line slow path: records the event.
  void finish();

  const char* name_;
  const char* category_;
  std::string args_json_;
  TraceCollector::Clock::time_point start_;
  bool active_{false};
};

}  // namespace msehsim::obs
