// Power converter models.
//
// Survey Sec. II.1: every harvester needs input conditioning (reverse
// blocking, rectification, voltage conversion) and most systems add output
// conditioning between store and load. The recurring trade-off is
// efficiency versus quiescent current: a synchronous buck-boost converts at
// ~90 % but idles at microamps (System A); a linear regulator wastes
// headroom voltage but idles at nanoamps (System B).
//
// Converters here are efficiency-map models: transferred power is reduced
// by a fixed quiescent draw, a proportional conversion loss, and a
// conduction term that grows with load — the three loss mechanisms that
// shape every real converter's efficiency-vs-load curve.
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "core/units.hpp"

#if !defined(MSEHSIM_ALWAYS_INLINE)
#if defined(__GNUC__) || defined(__clang__)
#define MSEHSIM_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define MSEHSIM_ALWAYS_INLINE inline
#endif
#endif

namespace msehsim::power {

enum class Topology {
  kDiode,      ///< series Schottky: Vout = Vin - drop, no quiescent
  kLdo,        ///< linear regulator: efficiency = Vout/Vin, tiny quiescent
  kBuck,       ///< step-down switcher
  kBoost,      ///< step-up switcher
  kBuckBoost,  ///< step-up/down switcher (System A output stage)
};

[[nodiscard]] std::string_view to_string(Topology t);

namespace detail {

/// Raw converter coefficients (exact Params fields) for the templated
/// transfer kernels below, which Converter's members delegate to.
struct CvtCoef {
  double peak_efficiency;
  double rated_power;
  double quiescent_current;
  double min_input;
  double max_input;
  double diode_drop;
  double conduction_loss_fraction;
};

/// can_convert with the topology branch resolved at compile time (one copy
/// per topology, selected by can_convert_dispatch).
template <Topology T>
MSEHSIM_ALWAYS_INLINE bool can_convert_raw(const CvtCoef& c, double vin,
                                           double vout) {
  if (vin < c.min_input || vin > c.max_input) return false;
  if constexpr (T == Topology::kDiode) {
    return vin - c.diode_drop >= vout;
  } else if constexpr (T == Topology::kLdo || T == Topology::kBuck) {
    return vin >= vout;
  } else if constexpr (T == Topology::kBoost) {
    return vin <= vout;
  } else {
    return true;
  }
}

/// Forward transfer with the topology branch resolved at compile time; the
/// expression sequence is the exact body of Converter::transfer.
template <Topology T>
MSEHSIM_ALWAYS_INLINE double transfer_raw(const CvtCoef& c, double input,
                                          double vin, double vout) {
  if (!can_convert_raw<T>(c, vin, vout)) return 0.0;
  if (input <= 0.0) return 0.0;
  const double pq = vin * c.quiescent_current;
  if constexpr (T == Topology::kDiode) {
    // Series element: the diode drop scales the power by Vout/Vin'.
    const double ratio = vout / (vout + c.diode_drop);
    return std::max(0.0, input * ratio);
  } else if constexpr (T == Topology::kLdo) {
    // All load current passes at Vin; the headroom is burned as heat.
    const double ratio = std::min(1.0, vout / vin);
    return std::max(0.0, (input - pq) * ratio);
  } else {
    const double conduction =
        c.conduction_loss_fraction * input * input / c.rated_power;
    const double out = c.peak_efficiency * input - pq - conduction;
    return std::max(0.0, out);
  }
}

/// Inverse transfer with the topology branch resolved at compile time; the
/// body of Converter::required_input. transfer_raw is monotone increasing in
/// input, so the fixed point converges. With a unit gain the divisions are
/// skipped: x / 1.0 == x bit for bit, which covers the unit-efficiency
/// nano LDO and Schottky stages.
template <Topology T>
MSEHSIM_ALWAYS_INLINE double required_input_raw(const CvtCoef& c,
                                                double output, double vin,
                                                double vout) {
  if (!can_convert_raw<T>(c, vin, vout)) return 0.0;
  const double floor = vin * c.quiescent_current;
  if (output <= 0.0) return floor;
  const double gain = std::max(0.1, c.peak_efficiency);
  const bool unit_gain = gain == 1.0;
  double input =
      (unit_gain ? output : output / c.peak_efficiency) + floor;
  for (int i = 0; i < 24; ++i) {
    const double got = transfer_raw<T>(c, input, vin, vout);
    const double error = output - got;
    if (std::fabs(error) < 1e-12) break;
    input += unit_gain ? error : error / gain;
    input = std::max(input, 0.0);
  }
  return input;
}

MSEHSIM_ALWAYS_INLINE bool can_convert_dispatch(Topology t, const CvtCoef& c,
                                                double vin, double vout) {
  switch (t) {
    case Topology::kDiode: return can_convert_raw<Topology::kDiode>(c, vin, vout);
    case Topology::kLdo: return can_convert_raw<Topology::kLdo>(c, vin, vout);
    case Topology::kBuck: return can_convert_raw<Topology::kBuck>(c, vin, vout);
    case Topology::kBoost: return can_convert_raw<Topology::kBoost>(c, vin, vout);
    case Topology::kBuckBoost:
      return can_convert_raw<Topology::kBuckBoost>(c, vin, vout);
  }
  return false;
}

MSEHSIM_ALWAYS_INLINE double transfer_dispatch(Topology t, const CvtCoef& c,
                                               double input, double vin,
                                               double vout) {
  switch (t) {
    case Topology::kDiode: return transfer_raw<Topology::kDiode>(c, input, vin, vout);
    case Topology::kLdo: return transfer_raw<Topology::kLdo>(c, input, vin, vout);
    case Topology::kBuck: return transfer_raw<Topology::kBuck>(c, input, vin, vout);
    case Topology::kBoost: return transfer_raw<Topology::kBoost>(c, input, vin, vout);
    case Topology::kBuckBoost:
      return transfer_raw<Topology::kBuckBoost>(c, input, vin, vout);
  }
  return 0.0;
}

}  // namespace detail

class Converter {
 public:
  struct Params {
    Topology topology{Topology::kBuckBoost};
    double peak_efficiency{0.90};
    Watts rated_power{100e-3};
    Amps quiescent_current{2e-6};  ///< drawn from the input at all times
    Volts min_input{0.5};
    Volts max_input{20.0};
    Volts diode_drop{0.3};         ///< kDiode only
    double conduction_loss_fraction{0.05};  ///< extra loss at rated power
    /// Cold-start threshold: a switcher cannot begin operating until its
    /// input reaches this voltage, though once running it works down to
    /// min_input (bootstrap supplies). Zero = no cold-start constraint.
    Volts startup_voltage{0.0};
  };

  Converter(std::string name, Params params);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] Topology topology() const { return params_.topology; }

  // can_convert / quiescent_power / transfer are defined inline: they sit on
  // the per-step hot path of every input chain,
  // where a branch on topology plus three multiplies should not cost a call.

  /// True if the topology can produce @p vout from @p vin at all.
  [[nodiscard]] bool can_convert(Volts vin, Volts vout) const {
    return detail::can_convert_dispatch(params_.topology, lane_coef(),
                                        vin.value(), vout.value());
  }

  /// Power always drawn from the input side, even with no load.
  [[nodiscard]] Watts quiescent_power(Volts vin) const {
    return vin * params_.quiescent_current;
  }

  /// Forward transfer: output power produced when @p input power is
  /// available at @p vin, converting to @p vout. Includes quiescent and
  /// conversion losses; returns 0 if the conversion is infeasible. The body
  /// lives in detail::transfer_raw.
  [[nodiscard]] Watts transfer(Watts input, Volts vin, Volts vout) const {
    return Watts{detail::transfer_dispatch(params_.topology, lane_coef(),
                                           input.value(), vin.value(),
                                           vout.value())};
  }

  /// Inverse transfer: input power that must be supplied to deliver
  /// @p output at the load. Returns the matching input power, or the
  /// quiescent floor when output is zero.
  [[nodiscard]] Watts required_input(Watts output, Volts vin, Volts vout) const;

  /// Conversion efficiency (output/input) at the given operating point —
  /// includes the quiescent penalty, so it collapses at light load.
  [[nodiscard]] double efficiency(Watts input, Volts vin, Volts vout) const;

  // -- Catalog presets matched to the surveyed systems ---------------------

  /// System A style synchronous buck-boost (high efficiency, uA quiescent).
  static Converter smart_buck_boost(std::string name);
  /// System B style nano-power LDO (low quiescent, headroom-limited).
  static Converter nano_ldo(std::string name);
  /// Bare Schottky input stage of minimal commercial boards.
  static Converter schottky_diode(std::string name);
  /// MPPT-capable boost front-end for sub-volt sources (TEG/PV single cell).
  static Converter boost_frontend(std::string name);

 private:
  /// Raw coefficients for the detail:: transfer kernels (exact Params
  /// fields, so the kernels see the same doubles the members do).
  [[nodiscard]] detail::CvtCoef lane_coef() const {
    return {params_.peak_efficiency,
            params_.rated_power.value(),
            params_.quiescent_current.value(),
            params_.min_input.value(),
            params_.max_input.value(),
            params_.diode_drop.value(),
            params_.conduction_loss_fraction};
  }

  std::string name_;
  Params params_;
};

}  // namespace msehsim::power
