// Metrics registry — pillar 1 of the observability layer (survey axis T3:
// a system's credibility tracks its energy-monitoring capability; the
// simulator needs the same discipline about itself).
//
// Hot objects keep their counters as plain members (zero overhead, no
// locks, no shared state — the campaign thread-safety model); a Registry is
// the *reporting* surface those members are gathered onto at run end, under
// canonical dotted names. Snapshots are deterministic: rows sorted by name,
// values independent of thread count or wall clock, and merge() combines
// snapshots with fixed semantics (counters and histograms add, gauges keep
// the maximum) so a campaign can fold N job snapshots into one in grid
// order and get the same bytes every run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/units.hpp"

namespace msehsim::obs {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_{0};
};

/// Last-written scalar (a level, not a flow).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_{0.0};
};

/// Fixed-bound histogram over a deterministic quantity (simulated seconds,
/// joules — never wall clock). Bucket i counts observations <= bounds[i];
/// one implicit overflow bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;  ///< size bounds()+1, last is overflow
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }  ///< 0 when empty
  [[nodiscard]] double max() const { return max_; }  ///< 0 when empty

  /// Estimated q-quantile (0 <= q <= 1) by linear interpolation within the
  /// bucket holding the q*count-th observation — the estimator Prometheus's
  /// histogram_quantile applies to _bucket rows. Bucket edges are clamped to
  /// the observed [min, max] so the overflow bucket (and a sparse first
  /// bucket) interpolate over real data, not an unbounded range. Returns 0
  /// on an empty histogram, min() for q <= 0, max() for q >= 1.
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One registry entry, frozen. Counter rows use `count`; gauge rows use
/// `value`; histogram rows carry the full bucket vector plus count/sum/
/// min/max.
struct MetricRow {
  std::string name;
  MetricKind kind{MetricKind::kCounter};
  std::uint64_t count{0};
  double value{0.0};
  double sum{0.0};
  double min{0.0};
  double max{0.0};
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;
};

/// A frozen, name-sorted view of a registry. The deterministic exchange
/// format: snapshots merge, print, and serialize identically regardless of
/// registration order or thread count.
struct MetricsSnapshot {
  std::vector<MetricRow> rows;  ///< sorted by name

  /// Folds @p other in: counters and histograms add (histogram bounds must
  /// match), gauges keep the maximum, rows missing on either side carry
  /// over. Throws SpecError on kind or bound mismatches.
  void merge(const MetricsSnapshot& other);

  [[nodiscard]] const MetricRow* find(const std::string& name) const;

  /// `name=value` lines (locale-independent shortest round-trip-exact
  /// doubles via core/fmt); histograms expand into
  /// .count/.sum/.min/.max/.le_* lines. Byte-comparable across runs.
  [[nodiscard]] std::string to_string() const;

  /// Two-column `metric,value` CSV with the same expansion as to_string.
  [[nodiscard]] std::string csv() const;
};

/// Typed named metrics. Accessors create on first use; re-accessing an
/// existing name with a different type (or different histogram bounds)
/// throws SpecError. Not thread-safe by design — one registry per run/job,
/// merged after the fact, mirroring the campaign isolation model.
class Registry {
 public:
  Counter& counter(std::string name);
  Gauge& gauge(std::string name);
  Histogram& histogram(std::string name, std::vector<double> upper_bounds);

  [[nodiscard]] std::size_t size() const { return metrics_.size(); }
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Slot {
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    std::vector<Histogram> histogram;  ///< 0 or 1; Histogram lacks default ctor
  };
  /// The slot named @p name, created as @p kind on first use; throws
  /// SpecError if it exists with another kind.
  Slot& slot(std::string name, MetricKind kind);
  // std::map keeps iteration name-sorted, which is what makes snapshot()
  // deterministic without a separate sort.
  std::map<std::string, Slot> metrics_;
};

}  // namespace msehsim::obs
