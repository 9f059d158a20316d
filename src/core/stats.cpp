#include "core/stats.hpp"

#include "core/error.hpp"

namespace msehsim {

double RunningStats::mean() const {
  if (span_.value() <= 0.0) return 0.0;
  return integral_ / span_.value();
}

double RunningStats::fraction_positive() const {
  if (span_.value() <= 0.0) return 0.0;
  return positive_span_ / span_;
}

Series::Series(std::string name, std::uint64_t keep_every)
    : name_(std::move(name)), keep_every_(keep_every) {
  require_spec(keep_every_ >= 1, "Series keep_every must be >= 1");
}

void Series::reserve(std::uint64_t expected_pushes) {
  const std::uint64_t retained =
      (expected_pushes + keep_every_ - 1) / keep_every_;
  const auto want =
      values_.size() + static_cast<std::size_t>(retained);
  times_.reserve(want);
  values_.reserve(want);
}

void Series::push(Seconds t, double v) {
  // The first sample has no preceding interval; weight it zero so integrals
  // are exact trapezoid-free step sums over [t_i, t_{i+1}).
  const Seconds dt = has_last_time_ ? t - last_time_ : Seconds{0.0};
  last_time_ = t;
  has_last_time_ = true;
  stats_.add(v, dt);
  if (pushed_ % keep_every_ == 0) {
    times_.push_back(t.value());
    values_.push_back(v);
  }
  ++pushed_;
}

double Series::last() const {
  require_spec(!values_.empty(), "Series::last on empty series");
  return values_.back();
}

}  // namespace msehsim
