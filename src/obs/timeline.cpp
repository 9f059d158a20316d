#include "obs/timeline.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/fmt.hpp"

namespace msehsim::obs {

Timeline::Timeline(Seconds cadence, std::vector<std::string> columns)
    : cadence_(cadence), columns_(std::move(columns)) {
  require_spec(cadence_.value() > 0.0, "Timeline cadence must be > 0");
  require_spec(!columns_.empty(), "Timeline needs >= 1 column");
  data_.resize(columns_.size());
}

void Timeline::reserve(std::size_t samples) {
  t_s_.reserve(samples);
  for (auto& col : data_) col.reserve(samples);
}

void Timeline::append(double t_s, const double* values, std::size_t count) {
  require_spec(count == columns_.size(),
               "Timeline::append: row width does not match the column table");
  t_s_.push_back(t_s);
  for (std::size_t i = 0; i < count; ++i) data_[i].push_back(values[i]);
}

std::size_t Timeline::find_column(const std::string& name) const {
  const auto it = std::find(columns_.begin(), columns_.end(), name);
  return it == columns_.end()
             ? npos
             : static_cast<std::size_t>(it - columns_.begin());
}

std::string Timeline::csv() const {
  std::string out = "t_s";
  for (const auto& name : columns_) {
    out += ',';
    out += name;
  }
  out += '\n';
  for (std::size_t row = 0; row < t_s_.size(); ++row) {
    append_double(out, t_s_[row]);
    for (const auto& col : data_) {
      out += ',';
      append_double(out, col[row]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace msehsim::obs
