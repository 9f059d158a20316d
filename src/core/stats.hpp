// Streaming statistics and recorded time series.
//
// Long simulations (a year at 1 s steps is ~3.2e7 samples) cannot afford to
// retain every sample, so RunningStats accumulates min/max/mean/integral in
// O(1) memory, while Series retains decimated samples for benches that need
// the actual curve.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/units.hpp"

namespace msehsim {

/// O(1)-memory accumulator over a sampled signal.
class RunningStats {
 public:
  /// Feed one sample of value @p v held for duration @p dt. Inline: this is
  /// the per-lane-per-step bookkeeping call of every runner hot loop.
  void add(double v, Seconds dt) {
    ++count_;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    integral_ += v * dt.value();
    span_ += dt;
    if (v > 0.0) positive_span_ += dt;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  /// Time-weighted mean over the observed span.
  [[nodiscard]] double mean() const;
  /// Integral of the signal over time (e.g. watts in -> joules out).
  [[nodiscard]] double integral() const { return integral_; }
  /// Total observed time.
  [[nodiscard]] Seconds span() const { return span_; }
  /// Fraction of observed time the signal was strictly positive.
  [[nodiscard]] double fraction_positive() const;

 private:
  std::uint64_t count_{0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
  double integral_{0.0};
  Seconds span_{0.0};
  Seconds positive_span_{0.0};
};

/// A named, optionally decimated time series.
class Series {
 public:
  /// @p keep_every retain only every Nth sample (stats still see all).
  explicit Series(std::string name, std::uint64_t keep_every = 1);

  void push(Seconds t, double v);

  /// Pre-allocates room for @p expected_pushes future push() calls (after
  /// decimation), so year-scale recordings don't grow by repeated
  /// reallocation. A no-op if enough capacity already exists.
  void reserve(std::uint64_t expected_pushes);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<double>& times() const { return times_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] const RunningStats& stats() const { return stats_; }
  [[nodiscard]] double last() const;
  [[nodiscard]] bool empty() const { return values_.empty(); }

 private:
  std::string name_;
  std::uint64_t keep_every_;
  std::uint64_t pushed_{0};
  Seconds last_time_{0.0};
  bool has_last_time_{false};
  std::vector<double> times_;
  std::vector<double> values_;
  RunningStats stats_;
};

}  // namespace msehsim
