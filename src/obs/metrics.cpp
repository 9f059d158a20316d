#include "obs/metrics.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/fmt.hpp"

namespace msehsim::obs {

namespace {

std::string num(double v) {
  // Locale-independent shortest round-trip form (core/fmt).
  return format_double(v);
}

std::string_view kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Appends one row as `name<sep>value` lines to @p out.
void append_row(std::string& out, const MetricRow& row, char sep) {
  switch (row.kind) {
    case MetricKind::kCounter:
      out += row.name;
      out += sep;
      out += std::to_string(row.count);
      out += '\n';
      break;
    case MetricKind::kGauge:
      out += row.name;
      out += sep;
      out += num(row.value);
      out += '\n';
      break;
    case MetricKind::kHistogram: {
      const auto line = [&out, &row, sep](const char* suffix,
                                          const std::string& value) {
        out += row.name;
        out += suffix;
        out += sep;
        out += value;
        out += '\n';
      };
      line(".count", std::to_string(row.count));
      line(".sum", num(row.sum));
      line(".min", num(row.min));
      line(".max", num(row.max));
      for (std::size_t b = 0; b < row.buckets.size(); ++b) {
        const std::string le =
            b < row.bounds.size() ? num(row.bounds[b]) : std::string("inf");
        line((".le_" + le).c_str(), std::to_string(row.buckets[b]));
      }
      break;
    }
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1, 0) {
  require_spec(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bounds must be sorted ascending");
  require_spec(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                   bounds_.end(),
               "histogram bounds must be distinct");
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  const double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const auto in_bucket = static_cast<double>(buckets_[b]);
    if (cum + in_bucket < target || in_bucket == 0.0) {
      cum += in_bucket;
      continue;
    }
    // Clamp the bucket edges to the observed range: the first occupied
    // bucket starts no earlier than min_, and the overflow bucket (no upper
    // bound) as well as any bucket past the data ends at max_.
    double lo = b == 0 ? min_ : std::max(bounds_[b - 1], min_);
    double hi = b < bounds_.size() ? std::min(bounds_[b], max_) : max_;
    if (hi < lo) hi = lo;
    return lo + (target - cum) / in_bucket * (hi - lo);
  }
  return max_;  // q*count beyond the last occupied bucket (rounding dust)
}

Registry::Slot& Registry::slot(std::string name, MetricKind kind) {
  const auto it =
      metrics_.try_emplace(std::move(name), Slot{kind, {}, {}, {}}).first;
  // The message is built only on a mismatch: registration runs on every
  // daemon construction and every run's metrics snapshot.
  if (it->second.kind != kind)
    throw SpecError("metric '" + it->first + "' already registered as " +
                    std::string(kind_name(it->second.kind)));
  return it->second;
}

Counter& Registry::counter(std::string name) {
  return slot(std::move(name), MetricKind::kCounter).counter;
}

Gauge& Registry::gauge(std::string name) {
  return slot(std::move(name), MetricKind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string name,
                               std::vector<double> upper_bounds) {
  Slot& s = slot(name, MetricKind::kHistogram);
  if (s.histogram.empty())
    s.histogram.emplace_back(std::move(upper_bounds));
  else if (s.histogram.front().bounds() != upper_bounds)
    throw SpecError("metric '" + name +
                    "' re-registered with different bounds");
  return s.histogram.front();
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  snap.rows.reserve(metrics_.size());
  for (const auto& [name, slot] : metrics_) {
    MetricRow row;
    row.name = name;
    row.kind = slot.kind;
    switch (slot.kind) {
      case MetricKind::kCounter:
        row.count = slot.counter.value();
        break;
      case MetricKind::kGauge:
        row.value = slot.gauge.value();
        break;
      case MetricKind::kHistogram: {
        const auto& h = slot.histogram.front();
        row.count = h.count();
        row.sum = h.sum();
        row.min = h.min();
        row.max = h.max();
        row.bounds = h.bounds();
        row.buckets = h.buckets();
        break;
      }
    }
    snap.rows.push_back(std::move(row));
  }
  return snap;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  std::vector<MetricRow> merged;
  merged.reserve(rows.size() + other.rows.size());
  auto a = rows.begin();
  auto b = other.rows.begin();
  while (a != rows.end() || b != other.rows.end()) {
    if (b == other.rows.end() || (a != rows.end() && a->name < b->name)) {
      merged.push_back(std::move(*a++));
      continue;
    }
    if (a == rows.end() || b->name < a->name) {
      merged.push_back(*b++);
      continue;
    }
    require_spec(a->kind == b->kind, "metrics merge: '" + a->name +
                                         "' has mismatched kinds");
    MetricRow row = std::move(*a++);
    switch (row.kind) {
      case MetricKind::kCounter:
        row.count += b->count;
        break;
      case MetricKind::kGauge:
        row.value = std::max(row.value, b->value);
        break;
      case MetricKind::kHistogram:
        require_spec(row.bounds == b->bounds, "metrics merge: '" + row.name +
                                                  "' has mismatched bounds");
        for (std::size_t i = 0; i < row.buckets.size(); ++i)
          row.buckets[i] += b->buckets[i];
        if (b->count > 0) {
          row.min = row.count > 0 ? std::min(row.min, b->min) : b->min;
          row.max = row.count > 0 ? std::max(row.max, b->max) : b->max;
        }
        row.count += b->count;
        row.sum += b->sum;
        break;
    }
    merged.push_back(std::move(row));
    ++b;
  }
  rows = std::move(merged);
}

const MetricRow* MetricsSnapshot::find(const std::string& name) const {
  const auto it = std::lower_bound(
      rows.begin(), rows.end(), name,
      [](const MetricRow& row, const std::string& n) { return row.name < n; });
  return it != rows.end() && it->name == name ? &*it : nullptr;
}

std::string MetricsSnapshot::to_string() const {
  std::string out;
  for (const auto& row : rows) append_row(out, row, '=');
  return out;
}

std::string MetricsSnapshot::csv() const {
  std::string out = "metric,value\n";
  for (const auto& row : rows) append_row(out, row, ',');
  return out;
}

}  // namespace msehsim::obs
