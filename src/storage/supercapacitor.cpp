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

double Supercapacitor::capacitance_at(double v) const {
  return params_.main_capacitance.value() +
         params_.voltage_capacitance_slope * std::max(0.0, v);
}

double Supercapacitor::charge_at(double v) const {
  return params_.main_capacitance.value() * v +
         0.5 * params_.voltage_capacitance_slope * v * v;
}

double Supercapacitor::voltage_at_charge(double q) const {
  const double c0 = params_.main_capacitance.value();
  const double k = params_.voltage_capacitance_slope;
  if (k <= 0.0) return std::max(0.0, q / c0);
  return std::max(0.0, (-c0 + std::sqrt(c0 * c0 + 2.0 * k * std::max(0.0, q))) / k);
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
  const double c2 = params_.slow_capacitance.value();
  if (c2 <= 0.0) return;
  // Charge flows between branches through R2; exact RC relaxation of the
  // voltage difference keeps the update stable for any dt.
  const double c1 = capacitance_at(v_main_.value());
  if (dt.value() != redis_key_dt_ || c1 != redis_key_c1_ ||
      c2 != redis_key_c2_) {
    // With a constant-C model (slope 0) and a fixed solver dt the relaxation
    // coefficients never change, so they are memoized on their exact inputs;
    // a hit returns the very doubles a fresh computation would produce.
    const double c_series = c1 * c2 / (c1 + c2);
    redis_alpha_ = 1.0 - redistribute_decay_(
                             -dt.value() /
                             (params_.redistribution_resistance.value() * c_series));
    redis_c_series_ = c_series;
    redis_key_dt_ = dt.value();
    redis_key_c1_ = c1;
    redis_key_c2_ = c2;
  }
  const double dq =
      (v_main_.value() - v_slow_.value()) * redis_alpha_ * redis_c_series_;
  v_main_ = Volts{v_main_.value() - dq / c1};
  v_slow_ = Volts{v_slow_.value() + dq / c2};
}

Watts Supercapacitor::charge(Watts power, Seconds dt) {
  // Constant-power charge through the ESR, mid-step-voltage form: the
  // current sees the ESR plus half the step's capacitor voltage rise.
  const double p = power.value();
  const double v_max = params_.max_voltage.value();
  if (p <= 0.0 || v_main_.value() >= v_max) return Watts{0.0};
  const double v0 = std::max(0.0, v_main_.value());
  const double r_eff = params_.esr.value() + dt.value() / (2.0 * capacitance_at(v0));
  const double current = (-v0 + std::sqrt(v0 * v0 + 4.0 * r_eff * p)) / (2.0 * r_eff);
  if (current <= 0.0) return Watts{0.0};
  double dq = current * dt.value();
  const double dq_max = charge_at(v_max) - charge_at(v0);
  const double fraction = dq > dq_max ? dq_max / dq : 1.0;
  dq *= fraction;
  v_main_ = Volts{voltage_at_charge(charge_at(v0) + dq)};
  redistribute(dt);
  return Watts{p * fraction};
}

Watts Supercapacitor::discharge(Watts power, Seconds dt) {
  // Constant-power discharge, capped at the matched-load power and at the
  // charge above the floor.
  const double p = power.value();
  if (p <= 0.0) return Watts{0.0};
  const double vfloor = min_voltage_.value();
  const double v0 = v_main_.value();
  if (v0 <= vfloor + 1e-6) return Watts{0.0};
  const double r_eff = params_.esr.value() + dt.value() / (2.0 * capacitance_at(v0));
  const double deliverable = std::min(p, v0 * v0 / (4.0 * r_eff));
  const double current =
      (v0 - std::sqrt(std::max(0.0, v0 * v0 - 4.0 * r_eff * deliverable))) /
      (2.0 * r_eff);
  if (current <= 0.0) return Watts{0.0};
  double dq = current * dt.value();
  const double dq_max = charge_at(v0) - charge_at(vfloor);
  const double fraction = dq > dq_max ? dq_max / dq : 1.0;
  dq *= fraction;
  v_main_ = Volts{std::max(voltage_at_charge(charge_at(v0) - dq), vfloor)};
  redistribute(dt);
  return Watts{deliverable * fraction};
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
  // Matched-load bound through the ESR.
  const double v = v_main_.value();
  if (v <= min_voltage_.value()) return Watts{0.0};
  const double esr = params_.esr.value();
  if (esr <= 0.0) return Watts{1e6};
  return Watts{v * v / (4.0 * esr)};
}

}  // namespace msehsim::storage
