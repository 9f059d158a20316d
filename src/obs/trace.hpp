// Span tracing — pillar 3 of the observability layer.
//
// Scoped wall-clock timers around campaign jobs, trace compilation, MPP
// solves, and platform steps, collected into a process-wide buffer and
// exported as Chrome trace_event JSON ("ph":"X" complete events) that loads
// directly in Perfetto / chrome://tracing. The campaign pool's per-job
// queue-wait and run spans land on one track per worker, which makes the
// LPT schedule visible.
//
// Cost model, in three tiers:
//  - MSEHSIM_OBS_ENABLED=0 (CMake -DMSEHSIM_OBS=OFF): every OBS_SPAN site
//    compiles to nothing and TraceCollector::enable() is a no-op. Zero
//    overhead, bit-for-bit identical simulation results.
//  - Compiled in, collector disabled (the default at runtime): each span
//    site is one relaxed atomic load and a branch.
//  - Collector enabled: hot sites (per step, per MPP solve) go through
//    OBS_SPAN_SAMPLED, which records only every Nth entry per site
//    (TraceCollector::sample_every, default 1024) so a day-scale run emits
//    hundreds of spans, not hundreds of thousands. Coarse sites (per job,
//    per compile) always record.
//
// Wall-clock timestamps are inherently nondeterministic, so spans never
// feed RunResult or any exported metric — they are a diagnostic stream
// only. That separation is what keeps the to_string(RunResult) byte
// contract indifferent to tracing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#ifndef MSEHSIM_OBS_ENABLED
#define MSEHSIM_OBS_ENABLED 1
#endif

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

/// Process-wide span sink. Thread-safe: each thread records into its own
/// buffer (registered once, under the collector mutex), so recording never
/// contends across threads — span *sites* pay only a relaxed atomic load
/// while disabled, and a sampled-in record touches only the calling
/// thread's buffer. The buffers are drained (in thread-id order) when the
/// trace is serialized. One collector per process keeps the macros
/// dependency-free; campaigns own it for the duration of a traced run.
class TraceCollector {
 public:
  static TraceCollector& instance() {
    static TraceCollector collector;
    return collector;
  }

  /// Starts collecting: clears the buffer, re-anchors the epoch, sets the
  /// per-site sampling stride for OBS_SPAN_SAMPLED. No-op when compiled
  /// out.
  void enable(std::uint32_t sample_every = 1024);
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the last enable() (monotonic).
  [[nodiscard]] double now_us() const;

  /// Dense id for the calling thread (first call assigns).
  [[nodiscard]] std::uint32_t thread_id();

  /// Perfetto track label for the calling thread ("ph":"M" metadata).
  void set_thread_name(const std::string& name);

  /// Appends one complete event. Silently drops (and counts) events beyond
  /// the buffer cap so a runaway trace cannot exhaust memory.
  void record(TraceEvent event);

  [[nodiscard]] std::size_t event_count() const;
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The whole buffer as a Chrome trace_event JSON document.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Copies every in-memory event out, in thread-id order (each thread's
  /// events in record order), for in-process inspection. Best-effort under
  /// disk streaming: spilled prefixes are not re-read, only each thread's
  /// in-memory tail (the lossless surface is chrome_trace_json()).
  [[nodiscard]] std::vector<TraceEvent> snapshot_events() const;

  /// Writes chrome_trace_json() to @p path (throws SpecError on I/O error).
  void write_chrome_trace(const std::string& path) const;

  /// Per-thread buffer cap (events). Applies from the next record().
  void set_capacity(std::size_t events) { capacity_ = events; }

  /// Streams over-cap span volumes to disk instead of dropping them: when a
  /// thread's buffer hits the capacity cap, its events are flushed (in
  /// record order) to a per-thread spill file `spans-<tid>.jsonl` under
  /// @p dir and the buffer restarts empty — dropped() stays 0. The drain
  /// replays each thread's spill file ahead of its in-memory tail, so
  /// chrome_trace_json() stays lossless and tid-ordered, byte-identical to
  /// an uncapped all-in-memory run. Like enable(), call this before
  /// recording starts; an empty @p dir turns streaming back off.
  void stream_to_disk(const std::string& dir);

  /// Events flushed to spill files since the last enable().
  [[nodiscard]] std::uint64_t spilled() const {
    return spilled_.load(std::memory_order_relaxed);
  }

 private:
  TraceCollector() = default;

  /// One recording lane per thread. The owning thread appends under the
  /// buffer's own (uncontended) mutex; serialization takes the same lock
  /// per buffer, so drains are safe even against a still-recording thread
  /// without any cross-thread contention on the hot path.
  struct ThreadBuffer {
    ThreadBuffer();
    ~ThreadBuffer();  // out-of-line: std::ofstream is incomplete here
    mutable std::mutex mutex;  ///< locked by const drains too
    std::uint32_t tid{0};
    std::vector<TraceEvent> events;
    std::string spill_path;                ///< set when the first spill opens
    std::unique_ptr<std::ofstream> spill;  ///< open while this run streams
  };

  /// The calling thread's buffer (registered under mutex_ on first use,
  /// cached in a thread_local afterwards). Buffers live for the process
  /// lifetime — enable() clears their contents, never destroys them — so
  /// the cached pointer can never dangle.
  [[nodiscard]] ThreadBuffer& local_buffer();

  /// Flushes @p buffer's events to its spill file and clears it. Caller
  /// holds buffer.mutex.
  void spill_locked(ThreadBuffer& buffer);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> stream_{false};
  std::atomic<std::uint32_t> sample_every_{1024};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> spilled_{0};
  std::string spill_dir_;  ///< set before recording starts (see stream_to_disk)
  std::size_t capacity_{1u << 20};
  std::chrono::steady_clock::time_point epoch_{};
  mutable std::mutex mutex_;  ///< registration, names, drain ordering
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::pair<std::uint32_t, std::string>> thread_names_;
  std::unordered_map<std::thread::id, std::uint32_t> thread_ids_;
};

/// RAII span: captures the start on construction, records on destruction.
/// Does nothing while the collector is disabled or @p name is null (how
/// OBS_SPAN_SAMPLED skips sampled-out entries). Construct through the
/// OBS_SPAN macros so MSEHSIM_OBS=OFF erases the site entirely. The
/// constructor and destructor are inline so a disabled site costs one
/// relaxed load and a branch without a function call.
class Span {
 public:
  Span(const char* name, const char* category, std::string args_json = {})
      : name_(name), category_(category), args_json_(std::move(args_json)) {
    if (name_ == nullptr) return;
    auto& collector = TraceCollector::instance();
    if (!collector.enabled()) return;
    start_us_ = collector.now_us();
    active_ = true;
  }
  ~Span() {
    if (active_) finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  /// Out-of-line slow path: builds the event and records it.
  void finish();

  const char* name_;
  const char* category_;
  std::string args_json_;
  double start_us_{0.0};
  bool active_{false};
};

namespace detail {
/// True for 1-in-sample_every() calls against @p site_counter. Inline and
/// lock-free: a relaxed enabled() check, then one relaxed fetch_add only
/// while recording.
[[nodiscard]] inline bool should_sample(
    std::atomic<std::uint64_t>& site_counter) {
  auto& collector = TraceCollector::instance();
  if (!collector.enabled()) return false;
  const std::uint64_t n = site_counter.fetch_add(1, std::memory_order_relaxed);
  return n % collector.sample_every() == 0;
}
}  // namespace detail

}  // namespace msehsim::obs

#if MSEHSIM_OBS_ENABLED
#define MSEHSIM_OBS_CONCAT2(a, b) a##b
#define MSEHSIM_OBS_CONCAT(a, b) MSEHSIM_OBS_CONCAT2(a, b)
/// Scoped span, recorded whenever the collector is enabled.
#define OBS_SPAN(name, category)                            \
  ::msehsim::obs::Span MSEHSIM_OBS_CONCAT(obs_span_,        \
                                          __LINE__){(name), (category)}
/// Scoped span recorded for 1 in TraceCollector::sample_every() entries of
/// this site — for per-step / per-solve hot paths.
#define OBS_SPAN_SAMPLED(name, category)                                      \
  static std::atomic<std::uint64_t> MSEHSIM_OBS_CONCAT(obs_site_,             \
                                                       __LINE__){0};          \
  ::msehsim::obs::Span MSEHSIM_OBS_CONCAT(obs_span_, __LINE__){               \
      ::msehsim::obs::detail::should_sample(                                  \
          MSEHSIM_OBS_CONCAT(obs_site_, __LINE__))                            \
          ? (name)                                                            \
          : nullptr,                                                          \
      (category)}
#else
#define OBS_SPAN(name, category) \
  do {                           \
  } while (false)
#define OBS_SPAN_SAMPLED(name, category) \
  do {                                   \
  } while (false)
#endif
