// Stochastic generators for individual ambient-energy channels.
//
// These are the substitution for the paper's physical deployment
// environments (DESIGN.md §5): each generator reproduces the *temporal
// structure* that drives the survey's claims — diurnal solar cycles, gusty
// Weibull wind, machinery duty schedules, bursty RF — from seeded
// deterministic streams.
#pragma once

#include <cstdint>
#include <limits>

#include "core/random.hpp"
#include "core/units.hpp"

namespace msehsim::env {

/// Clear-sky solar irradiance with two-state Markov cloud cover.
/// Irradiance follows the solar elevation for the configured latitude and
/// day of year; cloudy periods attenuate it.
class SolarChannel {
 public:
  struct Params {
    double latitude_deg{44.5};        ///< Bologna, the Smart Power Unit site
    int day_of_year{172};             ///< near summer solstice
    WattsPerSquareMeter clear_sky_peak{1000.0};
    double cloud_attenuation{0.25};   ///< irradiance multiplier when cloudy
    Seconds mean_clear_spell{4.0 * 3600.0};
    Seconds mean_cloudy_spell{2.0 * 3600.0};
  };

  SolarChannel(Params params, std::uint64_t seed);

  /// Advances internal cloud state and returns irradiance at @p now.
  WattsPerSquareMeter advance(Seconds now, Seconds dt);

  /// Deterministic clear-sky irradiance at @p now (no clouds) — used by
  /// tests and for analytic baselines.
  [[nodiscard]] WattsPerSquareMeter clear_sky(Seconds now) const;

 private:
  Params params_;
  Pcg32 rng_;
  bool cloudy_{false};
  /// sin(lat)*sin(decl) and cos(lat)*cos(decl) for day of year sky_doy_:
  /// they change once a day, not once a step. clear_sky refills them when
  /// the day changes, so a channel must not be shared across threads (each
  /// environment owns its own).
  mutable int sky_doy_{std::numeric_limits<int>::min()};
  mutable double sin_lat_sin_decl_{0.0};
  mutable double cos_lat_cos_decl_{0.0};
};

/// Indoor artificial lighting following an occupancy schedule:
/// lights on during working hours on weekdays, plus sensor noise.
class IndoorLightChannel {
 public:
  struct Params {
    Lux on_level{500.0};
    Lux off_level{5.0};          ///< safety/emergency lighting
    double on_hour{8.0};
    double off_hour{18.0};
    double weekend_on_probability{0.1};
    double noise_fraction{0.05};
  };

  IndoorLightChannel(Params params, std::uint64_t seed);

  Lux advance(Seconds now, Seconds dt);

 private:
  Params params_;
  Pcg32 rng_;
  int cached_day_{-1};
  bool day_active_{true};
};

/// Weibull-distributed wind with AR(1) temporal correlation and a diurnal
/// modulation (afternoons windier than nights, typical for near-ground
/// anemometry where micro wind turbines operate).
class WindChannel {
 public:
  struct Params {
    double weibull_shape{2.0};          ///< Rayleigh-like
    MetersPerSecond weibull_scale{4.5}; ///< mean ~4 m/s
    Seconds correlation_time{15.0 * 60.0};
    double diurnal_amplitude{0.3};      ///< +-30 % swing across the day
  };

  WindChannel(Params params, std::uint64_t seed);

  MetersPerSecond advance(Seconds now, Seconds dt);

 private:
  Params params_;
  Pcg32 rng_;
  double z_{0.0};  ///< latent AR(1) Gaussian state
  /// AR(1) coefficient rho = exp(-dt / tau) and innovation scale
  /// sqrt(max(0, 1 - rho^2)) for step rho_dt_; recomputed when dt changes.
  double rho_dt_{std::numeric_limits<double>::quiet_NaN()};
  double rho_{0.0};
  double innovation_scale_{0.0};
};

/// Constant low-speed airflow from building ventilation (indoor "wind").
class HvacFlowChannel {
 public:
  struct Params {
    MetersPerSecond duct_speed{1.8};
    double on_hour{6.0};
    double off_hour{20.0};
    double noise_fraction{0.1};
  };

  HvacFlowChannel(Params params, std::uint64_t seed);

  MetersPerSecond advance(Seconds now, Seconds dt);

 private:
  Params params_;
  Pcg32 rng_;
};

/// Temperature gradient across a TEG mounted on duty-cycled machinery.
/// The gradient relaxes toward the on/off target with a first-order lag.
class ThermalChannel {
 public:
  struct Params {
    Kelvin gradient_on{12.0};
    Kelvin gradient_off{0.5};
    Seconds mean_on_time{45.0 * 60.0};
    Seconds mean_off_time{30.0 * 60.0};
    Seconds thermal_time_constant{5.0 * 60.0};
  };

  ThermalChannel(Params params, std::uint64_t seed);

  Kelvin advance(Seconds now, Seconds dt);

 private:
  Params params_;
  Pcg32 rng_;
  bool on_{false};
  Seconds state_time_left_{0.0};
  Kelvin gradient_{0.5};
};

/// Machinery vibration: a dominant tone whose amplitude follows the same
/// on/off duty pattern, with small frequency wander.
class VibrationChannel {
 public:
  struct Params {
    MetersPerSecondSquared amplitude_on{3.0};
    MetersPerSecondSquared amplitude_off{0.05};
    Hertz base_frequency{50.0};
    double frequency_jitter{0.02};
    Seconds mean_on_time{45.0 * 60.0};
    Seconds mean_off_time{30.0 * 60.0};
  };

  struct Sample {
    MetersPerSecondSquared rms;
    Hertz frequency;
  };

  VibrationChannel(Params params, std::uint64_t seed);

  Sample advance(Seconds now, Seconds dt);

 private:
  Params params_;
  Pcg32 rng_;
  bool on_{false};
  Seconds state_time_left_{0.0};
};

/// Ambient RF: a weak continuous background plus Poisson bursts (nearby
/// transmitter activity), as seen by rectenna harvesters.
class RfChannel {
 public:
  struct Params {
    WattsPerSquareMeter background{1e-4};
    WattsPerSquareMeter burst_level{5e-3};
    Seconds mean_burst_interval{10.0 * 60.0};
    Seconds mean_burst_duration{30.0};
  };

  RfChannel(Params params, std::uint64_t seed);

  WattsPerSquareMeter advance(Seconds now, Seconds dt);

 private:
  Params params_;
  Pcg32 rng_;
  Seconds burst_time_left_{0.0};
  Seconds next_burst_in_{0.0};
  bool initialized_{false};
};

/// Irrigation/stream water flow on a schedule (the MPWiNode agricultural
/// scenario): a few pumping windows per day.
class WaterFlowChannel {
 public:
  struct Params {
    MetersPerSecond flow_speed{1.2};
    double window_start_hours[2] = {6.0, 17.0};
    Seconds window_duration{2.0 * 3600.0};
    double noise_fraction{0.08};
  };

  WaterFlowChannel(Params params, std::uint64_t seed);

  MetersPerSecond advance(Seconds now, Seconds dt);

 private:
  Params params_;
  Pcg32 rng_;
};

}  // namespace msehsim::env
