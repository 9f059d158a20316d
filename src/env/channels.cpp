#include "env/channels.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/error.hpp"

namespace msehsim::env {

namespace {
constexpr double kSecondsPerDay = 86400.0;
constexpr double kDeg2Rad = std::numbers::pi / 180.0;

/// Standard normal CDF via erf.
double phi(double z) { return 0.5 * (1.0 + std::erf(z / std::numbers::sqrt2)); }

/// Hour of day in [0, 24) for a simulation timestamp.
double hour_of_day(Seconds now) {
  double t = std::fmod(now.value(), kSecondsPerDay);
  if (t < 0.0) t += kSecondsPerDay;
  return t / 3600.0;
}

/// Day index (0-based) for a simulation timestamp.
int day_index(Seconds now) {
  return static_cast<int>(std::floor(now.value() / kSecondsPerDay));
}
}  // namespace

// ---------------------------------------------------------------------------
// SolarChannel
// ---------------------------------------------------------------------------

SolarChannel::SolarChannel(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("solar")) {
  require_spec(params_.clear_sky_peak.value() > 0.0, "solar peak must be > 0");
  require_spec(params_.cloud_attenuation >= 0.0 && params_.cloud_attenuation <= 1.0,
               "cloud attenuation must be in [0,1]");
  require_spec(params_.mean_clear_spell.value() > 0.0 &&
                   params_.mean_cloudy_spell.value() > 0.0,
               "cloud spell durations must be > 0");
}

WattsPerSquareMeter SolarChannel::clear_sky(Seconds now) const {
  // Solar elevation from declination + hour angle (standard astronomical
  // approximation, more than sufficient for energy-availability studies).
  const int doy = params_.day_of_year + day_index(now);
  if (doy != sky_doy_) {
    const double declination =
        -23.44 * kDeg2Rad * std::cos(2.0 * std::numbers::pi * (doy + 10) / 365.0);
    const double lat = params_.latitude_deg * kDeg2Rad;
    sin_lat_sin_decl_ = std::sin(lat) * std::sin(declination);
    cos_lat_cos_decl_ = std::cos(lat) * std::cos(declination);
    sky_doy_ = doy;
  }
  const double hour_angle = (hour_of_day(now) - 12.0) * 15.0 * kDeg2Rad;
  const double sin_elev =
      sin_lat_sin_decl_ + cos_lat_cos_decl_ * std::cos(hour_angle);
  if (sin_elev <= 0.0) return WattsPerSquareMeter{0.0};
  // Simple air-mass attenuation of the extraterrestrial beam.
  const double air_mass = 1.0 / std::max(sin_elev, 0.05);
  const double atten = std::pow(0.7, std::pow(air_mass, 0.678));
  return params_.clear_sky_peak * (sin_elev * atten / std::pow(0.7, 1.0));
}

WattsPerSquareMeter SolarChannel::advance(Seconds now, Seconds dt) {
  // Two-state Markov chain with exponential dwell times, discretized.
  const double leave_rate =
      cloudy_ ? 1.0 / params_.mean_cloudy_spell.value()
              : 1.0 / params_.mean_clear_spell.value();
  if (rng_.bernoulli(-std::expm1(-leave_rate * dt.value()))) cloudy_ = !cloudy_;
  const WattsPerSquareMeter base = clear_sky(now);
  return cloudy_ ? base * params_.cloud_attenuation : base;
}

// ---------------------------------------------------------------------------
// IndoorLightChannel
// ---------------------------------------------------------------------------

IndoorLightChannel::IndoorLightChannel(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("indoor-light")) {
  require_spec(params_.on_hour < params_.off_hour,
               "indoor light on_hour must precede off_hour");
}

Lux IndoorLightChannel::advance(Seconds now, Seconds dt) {
  (void)dt;
  const int day = day_index(now);
  if (day != cached_day_) {
    cached_day_ = day;
    const bool weekend = (day % 7) >= 5;
    day_active_ = !weekend || rng_.bernoulli(params_.weekend_on_probability);
  }
  const double h = hour_of_day(now);
  const bool lights_on = day_active_ && h >= params_.on_hour && h < params_.off_hour;
  const Lux level = lights_on ? params_.on_level : params_.off_level;
  const double noise = 1.0 + params_.noise_fraction * rng_.normal();
  return Lux{std::max(0.0, level.value() * noise)};
}

// ---------------------------------------------------------------------------
// WindChannel
// ---------------------------------------------------------------------------

WindChannel::WindChannel(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("wind")) {
  require_spec(params_.weibull_shape > 0.0, "weibull shape must be > 0");
  require_spec(params_.weibull_scale.value() > 0.0, "weibull scale must be > 0");
  require_spec(params_.correlation_time.value() > 0.0,
               "wind correlation time must be > 0");
  z_ = rng_.normal();
}

MetersPerSecond WindChannel::advance(Seconds now, Seconds dt) {
  // AR(1) latent Gaussian keeps temporal correlation; mapping through the
  // Weibull inverse CDF gives the canonical wind-speed marginal.
  if (dt.value() != rho_dt_) {
    rho_ = std::exp(-dt.value() / params_.correlation_time.value());
    innovation_scale_ = std::sqrt(std::max(0.0, 1.0 - rho_ * rho_));
    rho_dt_ = dt.value();
  }
  z_ = rho_ * z_ + innovation_scale_ * rng_.normal();
  const double u = std::clamp(phi(z_), 1e-9, 1.0 - 1e-9);
  double speed = params_.weibull_scale.value() *
                 std::pow(-std::log(1.0 - u), 1.0 / params_.weibull_shape);
  // Diurnal modulation peaking mid-afternoon (15:00).
  const double h = hour_of_day(now);
  const double diurnal =
      1.0 + params_.diurnal_amplitude *
                std::cos(2.0 * std::numbers::pi * (h - 15.0) / 24.0);
  speed *= diurnal;
  return MetersPerSecond{std::max(0.0, speed)};
}

// ---------------------------------------------------------------------------
// HvacFlowChannel
// ---------------------------------------------------------------------------

HvacFlowChannel::HvacFlowChannel(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("hvac")) {
  require_spec(params_.duct_speed.value() >= 0.0, "HVAC duct speed must be >= 0");
}

MetersPerSecond HvacFlowChannel::advance(Seconds now, Seconds dt) {
  (void)dt;
  const double h = hour_of_day(now);
  if (h < params_.on_hour || h >= params_.off_hour) return MetersPerSecond{0.0};
  const double noise = 1.0 + params_.noise_fraction * rng_.normal();
  return MetersPerSecond{std::max(0.0, params_.duct_speed.value() * noise)};
}

// ---------------------------------------------------------------------------
// ThermalChannel
// ---------------------------------------------------------------------------

ThermalChannel::ThermalChannel(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("thermal")) {
  require_spec(params_.mean_on_time.value() > 0.0 && params_.mean_off_time.value() > 0.0,
               "thermal duty times must be > 0");
  require_spec(params_.thermal_time_constant.value() > 0.0,
               "thermal time constant must be > 0");
  gradient_ = params_.gradient_off;
  state_time_left_ = Seconds{rng_.exponential(params_.mean_off_time.value())};
}

Kelvin ThermalChannel::advance(Seconds now, Seconds dt) {
  (void)now;
  state_time_left_ -= dt;
  if (state_time_left_.value() <= 0.0) {
    on_ = !on_;
    const double mean = on_ ? params_.mean_on_time.value() : params_.mean_off_time.value();
    state_time_left_ = Seconds{rng_.exponential(mean)};
  }
  const Kelvin target = on_ ? params_.gradient_on : params_.gradient_off;
  const double alpha = 1.0 - std::exp(-dt.value() / params_.thermal_time_constant.value());
  gradient_ += (target - gradient_) * alpha;
  return gradient_;
}

// ---------------------------------------------------------------------------
// VibrationChannel
// ---------------------------------------------------------------------------

VibrationChannel::VibrationChannel(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("vibration")) {
  require_spec(params_.base_frequency.value() > 0.0, "vibration frequency must be > 0");
  state_time_left_ = Seconds{rng_.exponential(params_.mean_off_time.value())};
}

VibrationChannel::Sample VibrationChannel::advance(Seconds now, Seconds dt) {
  (void)now;
  state_time_left_ -= dt;
  if (state_time_left_.value() <= 0.0) {
    on_ = !on_;
    const double mean = on_ ? params_.mean_on_time.value() : params_.mean_off_time.value();
    state_time_left_ = Seconds{rng_.exponential(mean)};
  }
  const auto amplitude = on_ ? params_.amplitude_on : params_.amplitude_off;
  const double jitter = 1.0 + params_.frequency_jitter * rng_.normal();
  return Sample{amplitude, Hertz{params_.base_frequency.value() * jitter}};
}

// ---------------------------------------------------------------------------
// RfChannel
// ---------------------------------------------------------------------------

RfChannel::RfChannel(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("rf")) {
  require_spec(params_.mean_burst_interval.value() > 0.0 &&
                   params_.mean_burst_duration.value() > 0.0,
               "RF burst timing must be > 0");
}

WattsPerSquareMeter RfChannel::advance(Seconds now, Seconds dt) {
  (void)now;
  if (!initialized_) {
    next_burst_in_ = Seconds{rng_.exponential(params_.mean_burst_interval.value())};
    initialized_ = true;
  }
  if (burst_time_left_.value() > 0.0) {
    burst_time_left_ -= dt;
  } else {
    next_burst_in_ -= dt;
    if (next_burst_in_.value() <= 0.0) {
      burst_time_left_ = Seconds{rng_.exponential(params_.mean_burst_duration.value())};
      next_burst_in_ = Seconds{rng_.exponential(params_.mean_burst_interval.value())};
    }
  }
  return burst_time_left_.value() > 0.0
             ? params_.background + params_.burst_level
             : params_.background;
}

// ---------------------------------------------------------------------------
// WaterFlowChannel
// ---------------------------------------------------------------------------

WaterFlowChannel::WaterFlowChannel(Params params, std::uint64_t seed)
    : params_(params), rng_(seed, stream_key("waterflow")) {
  require_spec(params_.flow_speed.value() >= 0.0, "water flow speed must be >= 0");
  require_spec(params_.window_duration.value() > 0.0,
               "irrigation window duration must be > 0");
}

MetersPerSecond WaterFlowChannel::advance(Seconds now, Seconds dt) {
  (void)dt;
  const double h = hour_of_day(now);
  const double window_hours = params_.window_duration.value() / 3600.0;
  for (const double start : params_.window_start_hours) {
    if (h >= start && h < start + window_hours) {
      const double noise = 1.0 + params_.noise_fraction * rng_.normal();
      return MetersPerSecond{std::max(0.0, params_.flow_speed.value() * noise)};
    }
  }
  return MetersPerSecond{0.0};
}

}  // namespace msehsim::env
