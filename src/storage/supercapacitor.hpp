// Supercapacitor model.
//
// Two-branch equivalent circuit per Weddell et al., "Accurate supercapacitor
// modeling for energy-harvesting wireless sensor nodes" (survey ref [9]):
// a main branch C1 holds the immediately accessible charge, a slow branch
// C2 (through R2) models charge redistribution, and a parallel leakage
// resistance models self-discharge. ESR losses are charged against the
// energy packets flowing through the terminal.
#pragma once

#include <string>

#include "storage/storage.hpp"

namespace msehsim::storage {

class Supercapacitor final : public StorageDevice {
 public:
  struct Params {
    Farads main_capacitance{10.0};
    Farads slow_capacitance{1.0};      ///< redistribution branch
    Ohms redistribution_resistance{50.0};
    Ohms esr{0.1};
    Ohms leakage_resistance{40e3};
    Volts max_voltage{5.0};
    Volts initial_voltage{0.0};
    /// Voltage dependence of the main capacitance, C(v) = C0 + slope * v
    /// (ref [9]: EDLC capacitance grows measurably with bias voltage).
    /// Farads per volt; zero recovers the constant-C model.
    double voltage_capacitance_slope{0.0};
  };

  Supercapacitor(std::string name, Params params);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] StorageKind kind() const override { return kind_; }
  [[nodiscard]] bool rechargeable() const override { return true; }
  [[nodiscard]] Volts voltage() const override { return v_main_; }
  [[nodiscard]] Joules stored_energy() const override;
  [[nodiscard]] Joules capacity() const override;
  Watts charge(Watts power, Seconds dt) override;
  Watts discharge(Watts power, Seconds dt) override;
  void apply_leakage(Seconds dt) override;
  [[nodiscard]] Watts max_discharge_power() const override;
  void inject_capacity_fade(double fraction) override;
  void set_leakage_multiplier(double multiplier) override;
  [[nodiscard]] double leakage_multiplier() const override {
    return leakage_multiplier_;
  }

  /// Slow-branch voltage (observable in tests: redistribution sag).
  [[nodiscard]] Volts slow_branch_voltage() const { return v_slow_; }

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] Volts min_voltage() const { return min_voltage_; }

  /// Factory for a lithium-ion capacitor (survey ref [10]): higher energy
  /// density but a minimum-voltage floor below which it must not discharge.
  static Supercapacitor lithium_ion_capacitor(std::string name, Farads capacitance);

 private:
  Supercapacitor(std::string name, Params params, StorageKind kind, Volts min_voltage);
  void redistribute(Seconds dt);

  /// Differential capacitance at bias @p v: C0 + slope * v.
  [[nodiscard]] double capacitance_at(double v) const;
  /// Charge on the main branch at bias @p v: integral of C(v) dv.
  [[nodiscard]] double charge_at(double v) const;
  /// Inverse of charge_at (non-negative root).
  [[nodiscard]] double voltage_at_charge(double q) const;
  /// Energy released moving the main branch from @p v_hi down to @p v_lo.
  [[nodiscard]] double energy_between(double v_lo, double v_hi) const;

  std::string name_;
  Params params_;
  StorageKind kind_{StorageKind::kSupercapacitor};
  Volts min_voltage_{0.0};  ///< discharge floor (nonzero for LIC)
  Volts v_main_;
  Volts v_slow_;
  double leakage_multiplier_{1.0};
  // Per-site exp memos for the RC decay factors (see storage::ExpMemo):
  // with constant C the exponents repeat every step, and redistribution +
  // leakage otherwise cost up to five libm exp calls per step.
  ExpMemo redistribute_decay_;
  ExpMemo leak_main_decay_;
  ExpMemo leak_slow_decay_;
  // Redistribution coefficients memoized on (dt, C1): constant whenever the
  // capacitance model is constant (slope 0, no fade event) and dt is fixed.
  double redis_key_dt_{-1.0};
  double redis_key_c1_{-1.0};
  double redis_key_c2_{-1.0};
  double redis_alpha_{0.0};
  double redis_c_series_{0.0};
};

}  // namespace msehsim::storage
