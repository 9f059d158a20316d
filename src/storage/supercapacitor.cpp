#include "storage/supercapacitor.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace msehsim::storage {

Supercapacitor::Supercapacitor(std::string name, Params params)
    : Supercapacitor(std::move(name), params, StorageKind::kSupercapacitor,
                     Volts{0.0}) {}

Supercapacitor::Supercapacitor(std::string name, Params params, StorageKind kind,
                               Volts min_voltage)
    : name_(std::move(name)),
      params_(params),
      kind_(kind),
      min_voltage_(min_voltage),
      v_main_(params.initial_voltage),
      v_slow_(params.initial_voltage) {
  require_spec(params_.main_capacitance.value() > 0.0, "supercap C1 must be > 0");
  require_spec(params_.slow_capacitance.value() >= 0.0, "supercap C2 must be >= 0");
  require_spec(params_.redistribution_resistance.value() > 0.0,
               "supercap R2 must be > 0");
  require_spec(params_.esr.value() >= 0.0, "supercap ESR must be >= 0");
  require_spec(params_.leakage_resistance.value() > 0.0,
               "supercap leakage resistance must be > 0");
  require_spec(params_.voltage_capacitance_slope >= 0.0,
               "supercap C(V) slope must be >= 0");
  require_spec(params_.max_voltage.value() > 0.0, "supercap Vmax must be > 0");
  require_spec(params_.initial_voltage.value() >= 0.0 &&
                   params_.initial_voltage <= params_.max_voltage,
               "supercap initial voltage out of range");
  require_spec(min_voltage_ < params_.max_voltage, "supercap Vmin must be < Vmax");
}

Supercapacitor Supercapacitor::lithium_ion_capacitor(std::string name,
                                                     Farads capacitance) {
  Params p;
  p.main_capacitance = capacitance;
  p.slow_capacitance = capacitance * 0.05;
  p.redistribution_resistance = Ohms{100.0};
  p.esr = Ohms{0.05};
  p.leakage_resistance = Ohms{200e3};  // LICs leak far less than EDLCs
  p.max_voltage = Volts{3.8};
  p.initial_voltage = Volts{2.2};
  return Supercapacitor(std::move(name), p, StorageKind::kLithiumIonCapacitor,
                        Volts{2.2});
}

// The charge/discharge/redistribution math lives in storage/lane_kernels.hpp;
// the members here delegate to it.
double Supercapacitor::capacitance_at(double v) const {
  return lanekernel::sc_capacitance_at(lane_coef(), v);
}

double Supercapacitor::charge_at(double v) const {
  return lanekernel::sc_charge_at(lane_coef(), v);
}

double Supercapacitor::voltage_at_charge(double q) const {
  return lanekernel::sc_voltage_at_charge(lane_coef(), q);
}

double Supercapacitor::energy_between(double v_lo, double v_hi) const {
  if (v_hi <= v_lo) return 0.0;
  // E = integral v dq = integral v C(v) dv = C0 v^2/2 + k v^3/3.
  const double c0 = params_.main_capacitance.value();
  const double k = params_.voltage_capacitance_slope;
  auto e = [&](double v) { return 0.5 * c0 * v * v + k * v * v * v / 3.0; };
  return e(v_hi) - e(v_lo);
}

Joules Supercapacitor::stored_energy() const {
  // Usable energy above the discharge floor.
  const double main = energy_between(min_voltage_.value(), v_main_.value());
  const Joules slow =
      capacitor_energy(params_.slow_capacitance, v_slow_) -
      capacitor_energy(params_.slow_capacitance,
                       std::min(v_slow_, min_voltage_));
  return Joules{std::max(0.0, main) + std::max(0.0, slow.value())};
}

Joules Supercapacitor::capacity() const {
  const double main = energy_between(min_voltage_.value(), params_.max_voltage.value());
  const Joules slow = capacitor_energy(params_.slow_capacitance, params_.max_voltage) -
                      capacitor_energy(params_.slow_capacitance, min_voltage_);
  return Joules{main + std::max(0.0, slow.value())};
}

void Supercapacitor::redistribute(Seconds dt) {
  if (params_.slow_capacitance.value() <= 0.0) return;
  // Charge flows between branches through R2; exact RC relaxation of the
  // voltage difference keeps the update stable for any dt.
  const lanekernel::ScCoef coef = lane_coef();
  const double c1 = lanekernel::sc_capacitance_at(coef, v_main_.value());
  const double c2 = coef.c2;
  if (dt.value() != redis_key_dt_ || c1 != redis_key_c1_ ||
      c2 != redis_key_c2_) {
    // With a constant-C model (slope 0) and a fixed solver dt the relaxation
    // coefficients never change, so they are memoized on their exact inputs;
    // a hit returns the very doubles a fresh computation would produce.
    const double c_series = lanekernel::sc_c_series(coef, c1);
    redis_alpha_ = 1.0 - redistribute_decay_(
                             lanekernel::sc_redis_exponent(coef, c_series,
                                                           dt.value()));
    redis_c_series_ = c_series;
    redis_key_dt_ = dt.value();
    redis_key_c1_ = c1;
    redis_key_c2_ = c2;
  }
  double v_main = v_main_.value();
  double v_slow = v_slow_.value();
  lanekernel::sc_redistribute(coef, {redis_alpha_, redis_c_series_}, v_main,
                              v_slow);
  v_main_ = Volts{v_main};
  v_slow_ = Volts{v_slow};
}

Watts Supercapacitor::charge(Watts power, Seconds dt) {
  double v_main = v_main_.value();
  bool advanced = false;
  const double absorbed = lanekernel::sc_charge_core(lane_coef(), v_main,
                                                     power.value(), dt.value(),
                                                     advanced);
  if (!advanced) return Watts{absorbed};
  v_main_ = Volts{v_main};
  redistribute(dt);
  return Watts{absorbed};
}

Watts Supercapacitor::discharge(Watts power, Seconds dt) {
  double v_main = v_main_.value();
  bool advanced = false;
  const double delivered = lanekernel::sc_discharge_core(
      lane_coef(), v_main, power.value(), dt.value(), advanced);
  if (!advanced) return Watts{delivered};
  v_main_ = Volts{v_main};
  redistribute(dt);
  return Watts{delivered};
}

void Supercapacitor::apply_leakage(Seconds dt) {
  if (leakage_multiplier_ <= 0.0) {
    redistribute(dt);
    return;
  }
  // A leakage fault divides the effective parallel resistance.
  const double r_leak = params_.leakage_resistance.value() / leakage_multiplier_;
  const double tau = r_leak * capacitance_at(v_main_.value());
  v_main_ *= leak_main_decay_(-dt.value() / tau);
  if (params_.slow_capacitance.value() > 0.0) {
    const double tau2 = r_leak * params_.slow_capacitance.value();
    v_slow_ *= leak_slow_decay_(-dt.value() / tau2);
  }
  redistribute(dt);
}

void Supercapacitor::inject_capacity_fade(double fraction) {
  require_spec(fraction >= 0.0 && fraction < 1.0,
               "capacity fade fraction must be in [0,1)");
  // Electrolyte dry-out shrinks the plates: same terminal voltage, less
  // charge behind it — the stored energy above the floor drops with C.
  params_.main_capacitance = params_.main_capacitance * (1.0 - fraction);
  params_.slow_capacitance = params_.slow_capacitance * (1.0 - fraction);
}

void Supercapacitor::set_leakage_multiplier(double multiplier) {
  require_spec(multiplier >= 0.0, "leakage multiplier must be >= 0");
  leakage_multiplier_ = multiplier;
}

Watts Supercapacitor::max_discharge_power() const {
  return Watts{lanekernel::sc_max_discharge_power(lane_coef(), v_main_.value())};
}

}  // namespace msehsim::storage
