// Shared plumbing for the benchmark binary: clocks, order statistics, the
// result digest, and the metric sink every workload reports into.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace msehsim::campaign {
class Campaign;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call of @p fn in seconds.
template <typename F>
double time_s(F&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

/// Linear-interpolated quantile (q in [0, 1]) of @p v; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// FNV-1a 64 folded over byte strings, in call order.
class Digest {
 public:
  void add(const std::string& bytes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_{0xcbf29ce484222325ull};
};

/// One printed metric.
struct Metric {
  double value{0.0};
  std::string unit;
};

/// What a workload run produced: metrics by name, the operation tally, and
/// the correctness verdict.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  bool correct{true};
  /// Human-readable lines printed before the final JSON object.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed check: counts it and marks the run incorrect.
  void fail(const std::string& why, std::uint64_t count = 1);
};

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  /// Tiny horizons for the smoke test: every code path, a fraction of the
  /// work. Never used for reported numbers.
  bool smoke{false};
  /// Directory for files the benchmark writes (trace caches); inside the
  /// checkout's build tree.
  std::string work_dir{".bench_build/work"};
  /// Reference digests kept with the benchmark.
  std::string reference_file{"perfbench/reference_digests.txt"};
  /// Print this run's reference digest instead of checking it.
  bool print_reference{false};
  /// Identity of the measured source tree (git commit or content hash).
  std::string source_id{"unknown"};
};

/// Untimed work before the timed loop: virtual CPUs that were idle run
/// measurably slower for their first seconds of load.
inline double warmup_seconds(const Options& opt) { return opt.smoke ? 0.0 : 3.0; }

/// Worker threads for campaign workloads: the host's cores, at most 4.
unsigned bench_threads();

/// Peak resident set of this process in MB.
double peak_rss_mb();

/// Looks up the reference digest for @p key; empty when absent.
std::string reference_digest(const Options& opt, const std::string& key);

/// Compares @p digest with the stored reference for @p key (or prints it
/// under --print-reference). A mismatch fails the run.
void check_reference(const Options& opt, const std::string& key,
                     const std::string& digest, Report& report);

/// Latency summary shared by every workload: median, the fixed tail
/// percentile and how many samples lie beyond it.
struct LatencySummary {
  double p50_ms{0.0};
  double tail_ms{0.0};
  std::size_t samples{0};
  std::size_t beyond_tail{0};
};
LatencySummary summarize_ms(const std::vector<double>& seconds, double tail_q);

/// Fills setup_s with the median of @p samples (seconds) and notes quartiles.
void report_setup(Report& report, const std::vector<double>& samples);

// ---- Workloads ------------------------------------------------------------

void run_survey_grid(const Options& opt, Report& report);
void run_buffer_sweep(const Options& opt, Report& report);
void run_fault_failover(const Options& opt, Report& report);
void run_daemon_mix(const Options& opt, Report& report);

/// Traced-run counters of one finished campaign: lane blocks, trace
/// compiles, SoA residency, the MPP memo hit ratio and the metrics merge.
void report_campaign_counters(const msehsim::campaign::Campaign& c, Report& report);

/// Per-layer replay harness (traced runs): records one day of System A
/// (outdoor) and one of System B (office) and replays the recorded inputs
/// into each layer alone.
void replay_layers(const Options& opt, Report& report);

}  // namespace perfbench
