// Ambient energy conditions seen by a deployment site at one instant.
//
// This is the interface between the environment generators (src/env) and the
// transducer models (src/harvest): each harvester reads the one channel it
// transduces. A channel that is absent at a site is simply zero.
#pragma once

#include <cmath>

#include "core/units.hpp"

namespace msehsim::env {

struct AmbientConditions {
  /// Broadband solar irradiance on the harvester plane (outdoor PV).
  WattsPerSquareMeter solar_irradiance{0.0};
  /// Illuminance (indoor PV under artificial light).
  Lux illuminance{0.0};
  /// Free-stream air speed at the turbine (outdoor wind or HVAC flow).
  MetersPerSecond wind_speed{0.0};
  /// Temperature difference across a thermoelectric generator.
  Kelvin thermal_gradient{0.0};
  /// RMS base acceleration of the dominant vibration tone.
  MetersPerSecondSquared vibration_rms{0.0};
  /// Frequency of the dominant vibration tone.
  Hertz vibration_freq{0.0};
  /// Incident RF power density at the rectenna.
  WattsPerSquareMeter rf_power_density{0.0};
  /// Water flow speed at a micro hydro turbine (MPWiNode scenario).
  MetersPerSecond water_flow{0.0};

  /// Field-wise equality — the cache key test for memoized per-conditions
  /// quantities (e.g. Harvester::maximum_power_point). Exact double
  /// comparison on purpose: any numeric drift must invalidate.
  friend bool operator==(const AmbientConditions&,
                         const AmbientConditions&) = default;
};

/// @p c with every NaN channel replaced by +0.0. A NaN ambient reading is a
/// sensor artifact, not a physical level — and because NaN != NaN, a NaN
/// channel would make any conditions-keyed memo (the MPP cache in
/// harvest::Harvester) compare unequal to itself and recompute every step
/// while the curve itself got poisoned. Zero is the "channel absent"
/// convention everywhere else in env.
[[nodiscard]] inline AmbientConditions sanitized(AmbientConditions c) {
  const auto fix = [](double v) { return std::isnan(v) ? 0.0 : v; };
  c.solar_irradiance = WattsPerSquareMeter{fix(c.solar_irradiance.value())};
  c.illuminance = Lux{fix(c.illuminance.value())};
  c.wind_speed = MetersPerSecond{fix(c.wind_speed.value())};
  c.thermal_gradient = Kelvin{fix(c.thermal_gradient.value())};
  c.vibration_rms = MetersPerSecondSquared{fix(c.vibration_rms.value())};
  c.vibration_freq = Hertz{fix(c.vibration_freq.value())};
  c.rf_power_density = WattsPerSquareMeter{fix(c.rf_power_density.value())};
  c.water_flow = MetersPerSecond{fix(c.water_flow.value())};
  return c;
}

/// @p c with every channel multiplied by @p gain — a uniformly miscalibrated
/// ambient-sensing front end (the `sensor_drift` fault). Used to feed
/// operating-point trackers a skewed view of the environment while the
/// physics keeps seeing the true conditions. gain == 1 returns @p c exactly
/// (bit-identical, so the unfaulted path is unchanged).
[[nodiscard]] inline AmbientConditions scaled(AmbientConditions c, double gain) {
  if (gain == 1.0) return c;
  c.solar_irradiance *= gain;
  c.illuminance *= gain;
  c.wind_speed *= gain;
  c.thermal_gradient *= gain;
  c.vibration_rms *= gain;
  c.vibration_freq *= gain;
  c.rf_power_density *= gain;
  c.water_flow *= gain;
  return c;
}

}  // namespace msehsim::env
