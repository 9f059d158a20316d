#include "storage/battery.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/solve.hpp"

namespace msehsim::storage {

namespace {
constexpr double kSecondsPerMonth = 30.0 * 86400.0;
}  // namespace

Battery::Battery(std::string name, Params params)
    : name_(std::move(name)),
      params_(params),
      full_charge_(to_coulombs(params.rated_capacity)),
      charge_(to_coulombs(params.rated_capacity) * params.initial_soc) {
  require_spec(params_.rated_capacity.value() > 0.0, "battery capacity must be > 0");
  require_spec(params_.internal_resistance.value() > 0.0,
               "battery internal resistance must be > 0");
  require_spec(params_.coulombic_efficiency > 0.0 && params_.coulombic_efficiency <= 1.0,
               "battery coulombic efficiency must be in (0,1]");
  require_spec(params_.self_discharge_per_month >= 0.0 &&
                   params_.self_discharge_per_month < 1.0,
               "battery self-discharge must be in [0,1)");
  require_spec(params_.max_charge_current.value() >= 0.0,
               "battery max charge current must be >= 0");
  require_spec(params_.max_discharge_current.value() > 0.0,
               "battery max discharge current must be > 0");
  require_spec(params_.initial_soc >= 0.0 && params_.initial_soc <= 1.0,
               "battery initial SoC must be in [0,1]");
  require_spec(params_.capacity_fade_per_cycle >= 0.0 &&
                   params_.capacity_fade_per_cycle < 0.1,
               "battery capacity fade per cycle out of range [0, 0.1)");
  for (std::size_t i = 1; i < params_.ocv_curve.size(); ++i)
    require_spec(params_.ocv_curve[i] >= params_.ocv_curve[i - 1],
                 "battery OCV curve must be non-decreasing");
  require_spec(params_.ocv_curve.front() > 0.0, "battery OCV must be positive");
  if (params_.self_discharge_per_month > 0.0) {
    leak_rate_per_s_ =
        -std::log1p(-params_.self_discharge_per_month) / kSecondsPerMonth;
  }
  const double steps = kEnergySlices;
  for (int i = 0; i < kEnergySlices; ++i)
    capacity_terms_[i] = ocv_at((i + 0.5) / steps).value() / steps;
}

double Battery::equivalent_full_cycles() const {
  return throughput_.value() / (2.0 * full_charge_.value());
}

double Battery::state_of_health() const {
  // Cycle fade x injected fault health, floored (cells fail first).
  const double fade = params_.capacity_fade_per_cycle * equivalent_full_cycles();
  return std::max(0.1, (1.0 - fade) * fault_health_);
}

Coulombs Battery::effective_full_charge() const {
  return full_charge_ * state_of_health();
}

double Battery::soc_now() const { return charge_ / effective_full_charge(); }

Volts Battery::ocv_at(double soc) const {
  return Volts{interp_clamped(kSocBreaks.data(), params_.ocv_curve.data(),
                              static_cast<int>(kSocBreaks.size()),
                              std::clamp(soc, 0.0, 1.0))};
}

Volts Battery::voltage() const { return ocv_at(soc_now()); }

Joules Battery::stored_energy() const {
  if (charge_.value() == energy_key_charge_ &&
      throughput_.value() == energy_key_throughput_ &&
      fault_health_ == energy_key_health_) {
    return Joules{energy_cache_};
  }
  // Integrate OCV over the remaining charge (trapezoid over the PWL curve).
  // Each slice's upper bound soc * (i + 1) / steps is the next slice's lower
  // bound, so it is carried over.
  const double soc = soc_now();
  const double full = effective_full_charge().value();
  const double steps = kEnergySlices;
  double energy = 0.0;
  double s0 = 0.0;
  for (int i = 0; i < kEnergySlices; ++i) {
    const double s1 = soc * (i + 1) / steps;
    const double v_mid = ocv_at(0.5 * (s0 + s1)).value();
    energy += v_mid * (s1 - s0) * full;
    s0 = s1;
  }
  energy_key_charge_ = charge_.value();
  energy_key_throughput_ = throughput_.value();
  energy_key_health_ = fault_health_;
  energy_cache_ = energy;
  return Joules{energy};
}

Joules Battery::capacity() const {
  const double full = effective_full_charge().value();
  double energy = 0.0;
  for (const double term : capacity_terms_) energy += term * full;
  return Joules{energy};
}

Watts Battery::charge(Watts power, Seconds dt) {
  // Constant-power charge: P = (OCV + I R) I, current-limited and capped at
  // the headroom below the derated capacity.
  const double p = power.value();
  if (!params_.rechargeable || p <= 0.0) return Watts{0.0};
  const double full = effective_full_charge().value();
  if (charge_.value() >= full) return Watts{0.0};
  const double ocv = voltage().value();
  const double r = params_.internal_resistance.value();
  const double eff = params_.coulombic_efficiency;
  double current = (-ocv + std::sqrt(ocv * ocv + 4.0 * r * p)) / (2.0 * r);
  current = std::min(current, params_.max_charge_current.value());
  current = std::min(current, (full - charge_.value()) / (eff * dt.value()));
  if (current <= 0.0) return Watts{0.0};
  const double dq = current * eff * dt.value();
  charge_ = Coulombs{charge_.value() + dq};
  throughput_ = Coulombs{throughput_.value() + dq};
  return Watts{(ocv + current * r) * current};
}

Watts Battery::discharge(Watts power, Seconds dt) {
  // Constant-power discharge: P = (OCV - I R) I, capped at the matched-load
  // power, the current limit and the remaining charge.
  const double p = power.value();
  if (p <= 0.0 || charge_.value() <= 0.0) return Watts{0.0};
  const double ocv = voltage().value();
  const double r = params_.internal_resistance.value();
  const double p_req = std::min(p, ocv * ocv / (4.0 * r));
  double current =
      (ocv - std::sqrt(std::max(0.0, ocv * ocv - 4.0 * r * p_req))) / (2.0 * r);
  current = std::min(current, params_.max_discharge_current.value());
  current = std::min(current, charge_.value() / dt.value());
  if (current <= 0.0) return Watts{0.0};
  const double dq = current * dt.value();
  charge_ = Coulombs{std::max(charge_.value() - dq, 0.0)};
  throughput_ = Coulombs{throughput_.value() + dq};
  return Watts{(ocv - current * r) * current};
}

void Battery::apply_leakage(Seconds dt) {
  if (params_.self_discharge_per_month <= 0.0 || leakage_multiplier_ <= 0.0)
    return;
  charge_ *= leak_decay_(-leak_rate_per_s_ * leakage_multiplier_ * dt.value());
}

void Battery::inject_capacity_fade(double fraction) {
  require_spec(fraction >= 0.0 && fraction < 1.0,
               "capacity fade fraction must be in [0,1)");
  fault_health_ *= 1.0 - fraction;
  // Charge held above the shrunken capacity is gone with the dead material.
  charge_ = std::min(charge_, effective_full_charge());
}

void Battery::set_leakage_multiplier(double multiplier) {
  require_spec(multiplier >= 0.0, "leakage multiplier must be >= 0");
  leakage_multiplier_ = multiplier;
}

Watts Battery::max_discharge_power() const {
  // Lesser of the matched-load bound and the current-limit bound.
  if (charge_.value() <= 0.0) return Watts{0.0};
  const double ocv = voltage().value();
  const double r = params_.internal_resistance.value();
  const double i_lim = params_.max_discharge_current.value();
  const double p_matched = ocv * ocv / (4.0 * r);
  const double p_current = (ocv - i_lim * r) * i_lim;
  return Watts{std::max(0.0, std::min(p_matched, p_current))};
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

Battery Battery::li_ion(std::string name, AmpHours capacity, double initial_soc) {
  Params p;
  p.chemistry = StorageKind::kLiIon;
  p.rated_capacity = capacity;
  p.ocv_curve = {3.0, 3.55, 3.7, 3.85, 4.2};
  p.internal_resistance = Ohms{0.3};
  p.coulombic_efficiency = 0.99;
  p.self_discharge_per_month = 0.03;
  p.max_charge_current = Amps{capacity.value()};        // 1C
  p.max_discharge_current = Amps{2.0 * capacity.value()};  // 2C
  p.initial_soc = initial_soc;
  return Battery(std::move(name), p);
}

Battery Battery::nimh(std::string name, AmpHours capacity, double initial_soc) {
  Params p;
  p.chemistry = StorageKind::kNiMH;
  p.rated_capacity = capacity;
  p.ocv_curve = {1.0, 1.21, 1.26, 1.32, 1.42};
  p.internal_resistance = Ohms{0.08};
  p.coulombic_efficiency = 0.85;        // NiMH charge acceptance is poor
  p.self_discharge_per_month = 0.20;    // classic NiMH self-discharge
  p.max_charge_current = Amps{0.5 * capacity.value()};
  p.max_discharge_current = Amps{2.0 * capacity.value()};
  p.initial_soc = initial_soc;
  return Battery(std::move(name), p);
}

Battery Battery::nimh_aa_pack(std::string name, int cells, double initial_soc) {
  require_spec(cells >= 1, "NiMH pack needs at least one cell");
  Params p;
  p.chemistry = StorageKind::kNiMH;
  p.rated_capacity = AmpHours{2.0};  // standard AA
  for (std::size_t i = 0; i < p.ocv_curve.size(); ++i) {
    static constexpr std::array<double, 5> cell{1.0, 1.21, 1.26, 1.32, 1.42};
    p.ocv_curve[i] = cell[i] * cells;
  }
  p.internal_resistance = Ohms{0.05 * cells};
  p.coulombic_efficiency = 0.85;
  p.self_discharge_per_month = 0.20;
  p.max_charge_current = Amps{1.0};
  p.max_discharge_current = Amps{4.0};
  p.initial_soc = initial_soc;
  return Battery(std::move(name), p);
}

Battery Battery::thin_film(std::string name, AmpHours capacity, double initial_soc) {
  Params p;
  p.chemistry = StorageKind::kThinFilm;
  p.rated_capacity = capacity;
  p.ocv_curve = {3.3, 3.75, 3.9, 4.0, 4.1};
  p.internal_resistance = Ohms{120.0};  // thin-film cells are high-impedance
  p.coulombic_efficiency = 0.98;
  p.self_discharge_per_month = 0.005;   // near-zero leakage is their selling point
  p.max_charge_current = Amps{2.0 * capacity.value()};
  p.max_discharge_current = Amps{10.0 * capacity.value()};
  p.initial_soc = initial_soc;
  return Battery(std::move(name), p);
}

Battery Battery::primary_lithium(std::string name, AmpHours capacity,
                                 double initial_soc) {
  Params p;
  p.chemistry = StorageKind::kPrimaryLithium;
  p.rated_capacity = capacity;
  p.ocv_curve = {2.8, 3.35, 3.5, 3.58, 3.65};
  p.internal_resistance = Ohms{1.5};
  p.self_discharge_per_month = 0.001;   // LiSOCl2 shelf life is decades
  p.max_charge_current = Amps{0.0};
  p.max_discharge_current = Amps{0.1};
  p.rechargeable = false;
  p.initial_soc = initial_soc;
  return Battery(std::move(name), p);
}

std::string_view to_string(StorageKind kind) {
  switch (kind) {
    case StorageKind::kSupercapacitor: return "Supercap";
    case StorageKind::kLiIon: return "Li-ion";
    case StorageKind::kNiMH: return "NiMH";
    case StorageKind::kThinFilm: return "Thin-film";
    case StorageKind::kPrimaryLithium: return "Li primary";
    case StorageKind::kFuelCell: return "Fuel cell";
    case StorageKind::kLithiumIonCapacitor: return "LIC";
  }
  return "?";
}

}  // namespace msehsim::storage
