// Per-element storage math kernels for storage::Supercapacitor and
// storage::Battery.
//
// Every function here is the exact floating-point expression sequence of the
// corresponding member: the members delegate here. The kernels take raw
// doubles (no unit wrappers; msehsim's unit types are transparent value
// wrappers, so Watts+Watts etc. lowers to the identical double ops) and
// carry no object state. exp() results the members memoize per object
// (storage::ExpMemo) enter here as precomputed factors/exponents; the memos
// are transparent — a hit returns the very double a fresh exp() would
// produce.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>

#include "core/solve.hpp"

// The kernels sit on the per-step storage path; force-inlining keeps the
// member delegation free of call overhead.
#if !defined(MSEHSIM_ALWAYS_INLINE)
#if defined(__GNUC__) || defined(__clang__)
#define MSEHSIM_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MSEHSIM_ALWAYS_INLINE inline
#endif
#endif

namespace msehsim::storage::lanekernel {

// ---------------------------------------------------------------------------
// Supercapacitor (two-branch equivalent circuit, supercapacitor.cpp)
// ---------------------------------------------------------------------------

/// Static per-device coefficients: Params fields after any capacity-fade
/// fault, plus the discharge floor.
struct ScCoef {
  double c0;      ///< main_capacitance (farads, post-fade)
  double k;       ///< voltage_capacitance_slope (F/V)
  double c2;      ///< slow_capacitance (farads, post-fade)
  double r2;      ///< redistribution_resistance (ohms)
  double esr;     ///< equivalent series resistance (ohms)
  double leak_r;  ///< leakage_resistance (ohms, pre-multiplier)
  double v_max;   ///< max_voltage (volts)
  double v_floor; ///< discharge floor (min_voltage; nonzero for LIC)
};

/// Redistribution relaxation coefficients for a given (dt, C1, C2) — the
/// values Supercapacitor memoizes per object.
struct ScRedis {
  double alpha{0.0};
  double c_series{0.0};
};

/// Differential capacitance at bias @p v: C0 + slope * v.
MSEHSIM_ALWAYS_INLINE double sc_capacitance_at(const ScCoef& c, double v) {
  return c.c0 + c.k * std::max(0.0, v);
}

/// Charge on the main branch at bias @p v: integral of C(v) dv.
MSEHSIM_ALWAYS_INLINE double sc_charge_at(const ScCoef& c, double v) {
  return c.c0 * v + 0.5 * c.k * v * v;
}

/// Inverse of sc_charge_at (non-negative root).
MSEHSIM_ALWAYS_INLINE double sc_voltage_at_charge(const ScCoef& c, double q) {
  if (c.k <= 0.0) return std::max(0.0, q / c.c0);
  return std::max(
      0.0, (-c.c0 + std::sqrt(c.c0 * c.c0 + 2.0 * c.k * std::max(0.0, q))) / c.k);
}

/// Series capacitance of the two branches for the redistribution RC.
MSEHSIM_ALWAYS_INLINE double sc_c_series(const ScCoef& c, double c1) {
  return c1 * c.c2 / (c1 + c.c2);
}

/// Exponent of the redistribution decay; the caller owns the exp() (the
/// object's memo).
MSEHSIM_ALWAYS_INLINE double sc_redis_exponent(const ScCoef& c, double c_series,
                                               double dt) {
  return -dt / (c.r2 * c_series);
}

/// Charge redistribution between branches through R2: exact RC relaxation of
/// the branch voltage difference. @p rc must hold the coefficients for the
/// CURRENT main-branch capacitance.
MSEHSIM_ALWAYS_INLINE void sc_redistribute(const ScCoef& c, const ScRedis& rc,
                                           double& v_main, double& v_slow) {
  if (c.c2 <= 0.0) return;
  const double c1 = sc_capacitance_at(c, v_main);
  const double dv = (v_main - v_slow) * rc.alpha;
  const double dq = dv * rc.c_series;
  v_main -= dq / c1;
  v_slow += dq / c.c2;
}

/// Constant-power charge through the ESR (mid-step-voltage form), WITHOUT
/// the trailing redistribution — the member follows with its memoized
/// redistribute(dt). @p advanced reports whether state changed (every early-out
/// of the member leaves the voltage untouched and skips redistribution).
/// Returns the absorbed power.
MSEHSIM_ALWAYS_INLINE double sc_charge_core(const ScCoef& c, double& v_main,
                                            double power, double dt,
                                            bool& advanced) {
  advanced = false;
  if (power <= 0.0) return 0.0;
  if (v_main >= c.v_max) return 0.0;
  const double v0 = std::max(0.0, v_main);
  const double c1 = sc_capacitance_at(c, v0);
  const double r_eff = c.esr + dt / (2.0 * c1);
  const double current =
      (-v0 + std::sqrt(v0 * v0 + 4.0 * r_eff * power)) / (2.0 * r_eff);
  if (current <= 0.0) return 0.0;
  double dq = current * dt;
  const double dq_max = sc_charge_at(c, c.v_max) - sc_charge_at(c, v0);
  const double fraction = dq > dq_max ? dq_max / dq : 1.0;
  dq *= fraction;
  v_main = sc_voltage_at_charge(c, sc_charge_at(c, v0) + dq);
  advanced = true;
  return power * fraction;
}

/// Constant-power discharge, matched-load capped, WITHOUT the trailing
/// redistribution (see sc_charge_core). Returns the delivered power.
MSEHSIM_ALWAYS_INLINE double sc_discharge_core(const ScCoef& c, double& v_main,
                                               double power, double dt,
                                               bool& advanced) {
  advanced = false;
  if (power <= 0.0) return 0.0;
  const double vfloor = c.v_floor;
  const double v0 = v_main;
  if (v0 <= vfloor + 1e-6) return 0.0;
  const double c1 = sc_capacitance_at(c, v0);
  const double r_eff = c.esr + dt / (2.0 * c1);
  const double p_max = v0 * v0 / (4.0 * r_eff);
  const double deliverable = std::min(power, p_max);
  const double current =
      (v0 - std::sqrt(std::max(0.0, v0 * v0 - 4.0 * r_eff * deliverable))) /
      (2.0 * r_eff);
  if (current <= 0.0) return 0.0;
  double dq = current * dt;
  const double dq_max = sc_charge_at(c, v0) - sc_charge_at(c, vfloor);
  const double fraction = dq > dq_max ? dq_max / dq : 1.0;
  dq *= fraction;
  v_main = sc_voltage_at_charge(c, sc_charge_at(c, v0) - dq);
  if (v_main < vfloor) v_main = vfloor;
  advanced = true;
  return deliverable * fraction;
}

/// Matched-load discharge bound through the ESR.
MSEHSIM_ALWAYS_INLINE double sc_max_discharge_power(const ScCoef& c,
                                                    double v_main) {
  if (v_main <= c.v_floor) return 0.0;
  if (c.esr <= 0.0) return 1e6;
  return v_main * v_main / (4.0 * c.esr);
}

// ---------------------------------------------------------------------------
// Battery (coulomb-counted SoC, PWL OCV, battery.cpp)
// ---------------------------------------------------------------------------

/// OCV(SoC) breakpoints — shared with battery.cpp so the interpolation grid
/// has exactly one definition.
inline constexpr std::array<double, 5> kSocBreaks{0.0, 0.25, 0.5, 0.75, 1.0};

/// Static per-device coefficients (Params fields + the injected-fault health
/// factor).
struct BatCoef {
  double full_charge;    ///< rated charge (coulombs)
  double r;              ///< internal_resistance (ohms)
  double eff;            ///< coulombic_efficiency
  double i_charge_max;   ///< max_charge_current (amps)
  double i_discharge_max;///< max_discharge_current (amps)
  double fade_per_cycle; ///< capacity_fade_per_cycle
  double fault_health;   ///< injected capacity-fade factor
  bool rechargeable;
  std::array<double, 5> ocv;  ///< ocv_curve
};

/// State of health: cycle fade x fault health, floored (cells fail first).
MSEHSIM_ALWAYS_INLINE double bat_soh(const BatCoef& c, double throughput) {
  const double fade = c.fade_per_cycle * (throughput / (2.0 * c.full_charge));
  return std::max(0.1, (1.0 - fade) * c.fault_health);
}

/// Rated charge derated by cycle aging.
MSEHSIM_ALWAYS_INLINE double bat_eff_full(const BatCoef& c, double throughput) {
  return c.full_charge * bat_soh(c, throughput);
}

MSEHSIM_ALWAYS_INLINE double bat_ocv_at(const BatCoef& c, double soc) {
  return interp_clamped(kSocBreaks.data(), c.ocv.data(),
                        static_cast<int>(kSocBreaks.size()),
                        std::clamp(soc, 0.0, 1.0));
}

/// Terminal open-circuit voltage at the present charge state.
MSEHSIM_ALWAYS_INLINE double bat_voltage(const BatCoef& c, double charge,
                                         double throughput) {
  return bat_ocv_at(c, charge / bat_eff_full(c, throughput));
}

/// Constant-power charge: P = (OCV + I R) I, current-limited, headroom
/// capped. Advances charge/throughput in place; returns the absorbed power.
MSEHSIM_ALWAYS_INLINE double bat_charge(const BatCoef& c, double& charge,
                                        double& throughput, double power,
                                        double dt) {
  if (!c.rechargeable || power <= 0.0) return 0.0;
  if (charge >= bat_eff_full(c, throughput)) return 0.0;
  const double ocv = bat_voltage(c, charge, throughput);
  const double r = c.r;
  double current = (-ocv + std::sqrt(ocv * ocv + 4.0 * r * power)) / (2.0 * r);
  current = std::min(current, c.i_charge_max);
  const double headroom = bat_eff_full(c, throughput) - charge;
  current = std::min(current, headroom / (c.eff * dt));
  if (current <= 0.0) return 0.0;
  const double dq = current * c.eff * dt;
  charge += dq;
  throughput += dq;
  return (ocv + current * r) * current;
}

/// Constant-power discharge: P = (OCV - I R) I, matched-load and
/// current-limit capped. Returns the delivered power.
MSEHSIM_ALWAYS_INLINE double bat_discharge(const BatCoef& c, double& charge,
                                           double& throughput, double power,
                                           double dt) {
  if (power <= 0.0 || charge <= 0.0) return 0.0;
  const double ocv = bat_voltage(c, charge, throughput);
  const double r = c.r;
  const double p_max = ocv * ocv / (4.0 * r);
  const double p_req = std::min(power, p_max);
  double current =
      (ocv - std::sqrt(std::max(0.0, ocv * ocv - 4.0 * r * p_req))) / (2.0 * r);
  current = std::min(current, c.i_discharge_max);
  current = std::min(current, charge / dt);
  if (current <= 0.0) return 0.0;
  const double dq = current * dt;
  charge -= dq;
  throughput += dq;
  if (charge < 0.0) charge = 0.0;
  return (ocv - current * r) * current;
}

/// Lesser of the matched-load bound and the current-limit bound.
MSEHSIM_ALWAYS_INLINE double bat_max_discharge_power(const BatCoef& c,
                                                     double charge,
                                                     double throughput) {
  const double ocv = bat_voltage(c, charge, throughput);
  const double r = c.r;
  const double i_lim = c.i_discharge_max;
  const double p_matched = ocv * ocv / (4.0 * r);
  const double p_current = (ocv - i_lim * r) * i_lim;
  if (charge <= 0.0) return 0.0;
  return std::max(0.0, std::min(p_matched, p_current));
}

}  // namespace msehsim::storage::lanekernel
