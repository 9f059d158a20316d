#include "bus/sense.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace msehsim::bus {

AdcLine::AdcLine(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("adc")) {
  require_spec(params_.bits >= 1 && params_.bits <= 24, "ADC bits must be in [1,24]");
  require_spec(params_.full_scale.value() > 0.0, "ADC full scale must be > 0");
  require_spec(params_.noise_lsb >= 0.0, "ADC noise must be >= 0");
}

Volts AdcLine::lsb() const {
  return Volts{params_.full_scale.value() / static_cast<double>(1 << params_.bits)};
}

Volts AdcLine::sample(Volts actual) {
  const double step = lsb().value();
  const double noisy = actual.value() + rng_.normal(0.0, params_.noise_lsb * step);
  const double clamped = std::clamp(noisy, 0.0, params_.full_scale.value());
  const double code = std::floor(clamped / step + 0.5);
  const double max_code = static_cast<double>((1 << params_.bits) - 1);
  return Volts{std::min(code, max_code) * step};
}

}  // namespace msehsim::bus
