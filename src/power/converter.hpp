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
#include <type_traits>

#include "core/units.hpp"

namespace msehsim::power {

enum class Topology {
  kDiode,      ///< series Schottky: Vout = Vin - drop, no quiescent
  kLdo,        ///< linear regulator: efficiency = Vout/Vin, tiny quiescent
  kBuck,       ///< step-down switcher
  kBoost,      ///< step-up switcher
  kBuckBoost,  ///< step-up/down switcher (System A output stage)
};

[[nodiscard]] std::string_view to_string(Topology t);

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
    return with_topology([&](auto t) {
      return can_convert_as<decltype(t)::value>(vin.value(), vout.value());
    });
  }

  /// Power always drawn from the input side, even with no load.
  [[nodiscard]] Watts quiescent_power(Volts vin) const {
    return vin * params_.quiescent_current;
  }

  /// Forward transfer: output power produced when @p input power is
  /// available at @p vin, converting to @p vout. Includes quiescent and
  /// conversion losses; returns 0 if the conversion is infeasible.
  [[nodiscard]] Watts transfer(Watts input, Volts vin, Volts vout) const {
    return Watts{with_topology([&](auto t) {
      return transfer_as<decltype(t)::value>(input.value(), vin.value(),
                                             vout.value());
    })};
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
  /// Calls @p f with the topology as a std::integral_constant, so each
  /// topology gets its own copy of the transfer bodies below with the branch
  /// resolved at compile time. An out-of-range topology yields a
  /// value-initialized result (false / 0.0).
  template <typename F, typename R = std::invoke_result_t<
                            F, std::integral_constant<Topology, Topology::kDiode>>>
  R with_topology(F&& f) const {
    using enum Topology;
    switch (params_.topology) {
      case kDiode: return f(std::integral_constant<Topology, kDiode>{});
      case kLdo: return f(std::integral_constant<Topology, kLdo>{});
      case kBuck: return f(std::integral_constant<Topology, kBuck>{});
      case kBoost: return f(std::integral_constant<Topology, kBoost>{});
      case kBuckBoost: return f(std::integral_constant<Topology, kBuckBoost>{});
    }
    return R{};
  }

  template <Topology T>
  bool can_convert_as(double vin, double vout) const {
    if (vin < params_.min_input.value() || vin > params_.max_input.value())
      return false;
    if constexpr (T == Topology::kDiode) {
      return vin - params_.diode_drop.value() >= vout;
    } else if constexpr (T == Topology::kLdo || T == Topology::kBuck) {
      return vin >= vout;
    } else if constexpr (T == Topology::kBoost) {
      return vin <= vout;
    } else {
      return true;
    }
  }

  template <Topology T>
  double transfer_as(double input, double vin, double vout) const {
    if (!can_convert_as<T>(vin, vout)) return 0.0;
    if (input <= 0.0) return 0.0;
    const double pq = vin * params_.quiescent_current.value();
    if constexpr (T == Topology::kDiode) {
      // Series element: the diode drop scales the power by Vout/Vin'.
      const double ratio = vout / (vout + params_.diode_drop.value());
      return std::max(0.0, input * ratio);
    } else if constexpr (T == Topology::kLdo) {
      // All load current passes at Vin; the headroom is burned as heat.
      const double ratio = std::min(1.0, vout / vin);
      return std::max(0.0, (input - pq) * ratio);
    } else {
      const double conduction = params_.conduction_loss_fraction * input *
                                input / params_.rated_power.value();
      const double out = params_.peak_efficiency * input - pq - conduction;
      return std::max(0.0, out);
    }
  }

  /// Fixed-point inversion of transfer_as, which is monotone increasing in
  /// input, so the iteration converges. With a unit gain the divisions are
  /// skipped: x / 1.0 == x bit for bit, which covers the unit-efficiency
  /// nano LDO and Schottky stages.
  template <Topology T>
  double required_input_as(double output, double vin, double vout) const {
    if (!can_convert_as<T>(vin, vout)) return 0.0;
    const double floor = vin * params_.quiescent_current.value();
    if (output <= 0.0) return floor;
    const double gain = std::max(0.1, params_.peak_efficiency);
    const bool unit_gain = gain == 1.0;
    double input =
        (unit_gain ? output : output / params_.peak_efficiency) + floor;
    for (int i = 0; i < 24; ++i) {
      const double error = output - transfer_as<T>(input, vin, vout);
      if (std::fabs(error) < 1e-12) break;
      input += unit_gain ? error : error / gain;
      input = std::max(input, 0.0);
    }
    return input;
  }

  std::string name_;
  Params params_;
};

}  // namespace msehsim::power
