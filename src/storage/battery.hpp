// Electrochemical battery model with chemistry presets.
//
// Coulomb-counted state of charge, piecewise-linear OCV(SoC) per chemistry,
// ohmic internal resistance, coulombic charging efficiency, and exponential
// self-discharge. Presets cover every battery in Table I: Li-ion/Li-poly,
// NiMH cells and AA packs, thin-film batteries (Maxim/Cymbet class), and
// non-rechargeable lithium primaries.
#pragma once

#include <array>
#include <string>

#include "storage/storage.hpp"

namespace msehsim::storage {

class Battery final : public StorageDevice {
 public:
  /// SoC breakpoints of Params::ocv_curve.
  static constexpr std::array<double, 5> kSocBreaks{0.0, 0.25, 0.5, 0.75, 1.0};

  struct Params {
    StorageKind chemistry{StorageKind::kLiIon};
    AmpHours rated_capacity{0.100};
    /// OCV at the kSocBreaks SoCs (0, 0.25, 0.5, 0.75, 1).
    std::array<double, 5> ocv_curve{3.0, 3.55, 3.7, 3.85, 4.2};
    Ohms internal_resistance{0.5};
    double coulombic_efficiency{0.99};     ///< charge acceptance
    double self_discharge_per_month{0.03}; ///< fraction of charge per 30 days
    Amps max_charge_current{0.1};
    Amps max_discharge_current{0.5};
    bool rechargeable{true};
    double initial_soc{0.5};
    /// Capacity lost per equivalent full cycle (fractional). Typical Li-ion
    /// loses ~20 % over 500-1000 cycles -> 2e-4..4e-4. Zero disables aging.
    double capacity_fade_per_cycle{0.0};
  };

  Battery(std::string name, Params params);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] StorageKind kind() const override { return params_.chemistry; }
  [[nodiscard]] bool rechargeable() const override { return params_.rechargeable; }
  [[nodiscard]] Volts voltage() const override;
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

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] Coulombs charge_state() const { return charge_; }

  /// Cumulative charge throughput expressed in equivalent full cycles
  /// (total |dq| moved / (2 x rated charge)).
  [[nodiscard]] double equivalent_full_cycles() const;

  /// Present usable capacity as a fraction of the rated capacity (1.0 when
  /// new; decreases with cycling when capacity_fade_per_cycle > 0 and with
  /// injected capacity-fade faults).
  [[nodiscard]] double state_of_health() const;

  // -- Chemistry presets (capacities from the Table I device class) --------

  /// Li-ion / Li-polymer rechargeable cell.
  static Battery li_ion(std::string name, AmpHours capacity, double initial_soc = 0.5);
  /// Single NiMH cell.
  static Battery nimh(std::string name, AmpHours capacity, double initial_soc = 0.5);
  /// Pack of @p cells AA NiMH cells in series (MPWiNode uses 2xAA).
  static Battery nimh_aa_pack(std::string name, int cells, double initial_soc = 0.5);
  /// Thin-film solid-state battery (EnerChip / MAX17710 class, uAh scale).
  static Battery thin_film(std::string name, AmpHours capacity, double initial_soc = 0.5);
  /// Non-rechargeable lithium primary cell (System B backup store).
  static Battery primary_lithium(std::string name, AmpHours capacity,
                                 double initial_soc = 1.0);

 private:
  [[nodiscard]] Volts ocv_at(double soc) const;
  [[nodiscard]] double soc_now() const;

  /// Rated charge derated by cycle aging.
  [[nodiscard]] Coulombs effective_full_charge() const;

  std::string name_;
  Params params_;
  Coulombs full_charge_;
  Coulombs charge_;
  Coulombs throughput_{0.0};  ///< total |dq| through the terminal
  double fault_health_{1.0};  ///< injected capacity-fade factor
  double leakage_multiplier_{1.0};
  /// -log1p(-self_discharge_per_month)/s-per-month, fixed at construction
  /// (self-discharge is a chemistry constant) so apply_leakage does not pay
  /// a libm log every step.
  double leak_rate_per_s_{0.0};
  ExpMemo leak_decay_;
  /// capacity() integrates OCV at 64 fixed mid-slice SoCs. The OCV curve is
  /// fixed at construction, so each slice's ocv_at(s_mid) / 64 is too;
  /// capacity() sums term * effective full charge.
  static constexpr int kEnergySlices = 64;
  std::array<double, kEnergySlices> capacity_terms_{};
  /// stored_energy() integrates the OCV curve in 64 slices and the platform
  /// monitor polls it several times per step, so the result is memoized on
  /// its exact inputs: charge, cycle throughput (aging), and fault health.
  /// Byte-identical — a hit returns the very double a fresh integration
  /// would produce.
  mutable double energy_key_charge_{std::numeric_limits<double>::quiet_NaN()};
  mutable double energy_key_throughput_{0.0};
  mutable double energy_key_health_{0.0};
  mutable double energy_cache_{0.0};
};

}  // namespace msehsim::storage
