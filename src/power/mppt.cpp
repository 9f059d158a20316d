#include "power/mppt.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace msehsim::power {

PerturbObserve::PerturbObserve(Params params) : params_(params) {
  require_spec(params_.step.value() > 0.0, "P&O step must be > 0");
  require_spec(params_.overhead_per_update.value() >= 0.0,
               "P&O overhead must be >= 0");
}

Volts PerturbObserve::update(const harvest::Harvester& harvester, Volts present) {
  const Volts voc = harvester.open_circuit_voltage();
  if (voc.value() <= params_.min_voltage.value()) {
    last_power_ = 0.0;
    return params_.min_voltage;
  }
  const double power = harvester.power_at(present).value();
  // Flip on any non-increase: on a flat power plateau (aero-capped wind)
  // this holds position instead of walking up to ride the open-circuit
  // voltage, where a gust lull would collapse the output.
  if (power <= last_power_) direction_ = -direction_;
  last_power_ = power;
  Volts next = present + params_.step * direction_;
  // Stay on the physically meaningful part of the curve. Spelled as min/max
  // because voc * 0.98 can fall below min_voltage (std::clamp's lo > hi is
  // undefined); the upper bound wins then.
  next = std::min(std::max(next, params_.min_voltage), voc * 0.98);
  return next;
}

FractionalVoc::FractionalVoc(Params params) : params_(params) {
  require_spec(params_.fraction > 0.0 && params_.fraction < 1.0,
               "fractional-Voc fraction must be in (0,1)");
  require_spec(params_.sample_time.value() >= 0.0, "sample time must be >= 0");
}

Volts FractionalVoc::update(const harvest::Harvester& harvester, Volts /*present*/) {
  return harvester.open_circuit_voltage() * params_.fraction;
}

IncrementalConductance::IncrementalConductance(Params params) : params_(params) {
  require_spec(params_.step.value() > 0.0, "inc-cond step must be > 0");
  require_spec(params_.tolerance > 0.0, "inc-cond tolerance must be > 0");
}

Volts IncrementalConductance::update(const harvest::Harvester& harvester,
                                     Volts present) {
  const Volts voc = harvester.open_circuit_voltage();
  if (voc.value() <= params_.min_voltage.value()) {
    last_v_ = -1.0;
    return params_.min_voltage;
  }
  const double v = present.value();
  const double i = harvester.current_at(present).value();
  Volts next = present;
  if (last_v_ < 0.0) {
    // No baseline yet: probe upward to get one.
    next = present + params_.step;
  } else if (v == last_v_) {
    // Holding at a matched point: dv = 0, so a current change can only mean
    // the source moved (the inc-cond disambiguation P&O lacks).
    const double di = i - last_i_;
    const double tol_i = params_.tolerance * std::max(std::fabs(i), 1e-12);
    if (di > tol_i) {
      next = present + params_.step;
    } else if (di < -tol_i) {
      next = present - params_.step;
    }
  } else {
    const double di = i - last_i_;
    const double dv = v - last_v_;
    const double incremental = di / dv;
    const double instantaneous = v > 0.0 ? -i / v : 0.0;
    const double scale = std::max(std::fabs(instantaneous), 1e-12);
    if (incremental > instantaneous + params_.tolerance * scale) {
      next = present + params_.step;  // left of the MPP: climb
    } else if (incremental < instantaneous - params_.tolerance * scale) {
      next = present - params_.step;  // right of the MPP: back off
    }
    // Within tolerance: hold (the inc-cond advantage over P&O).
  }
  last_v_ = v;
  last_i_ = i;
  // Same bounds as P&O, upper bound winning when they cross.
  return std::min(std::max(next, params_.min_voltage), voc * 0.98);
}

FixedPoint::FixedPoint(Volts setpoint) : setpoint_(setpoint) {
  require_spec(setpoint.value() > 0.0, "fixed operating point must be > 0");
}

Volts FixedPoint::update(const harvest::Harvester& /*harvester*/, Volts /*present*/) {
  return setpoint_;
}

Volts OracleMppt::update(const harvest::Harvester& harvester, Volts /*present*/) {
  return harvester.maximum_power_point().v;
}

}  // namespace msehsim::power
