// Input and output conditioning chains.
//
// An InputChain is the survey's "input power conditioning circuit":
// harvester -> operating-point control (MPPT or fixed) -> converter ->
// storage bus. An OutputChain is the "output conditioning circuit":
// storage bus -> converter -> regulated rail feeding the embedded device.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "core/stats.hpp"
#include "core/units.hpp"
#include "env/conditions.hpp"
#include "harvest/harvester.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"

namespace msehsim::power {

class InputChain {
 public:
  /// @p mppt_period how often the controller re-evaluates the setpoint.
  InputChain(std::unique_ptr<harvest::Harvester> harvester,
             std::unique_ptr<MpptController> mppt, Converter converter,
             Seconds mppt_period);

  /// Advances one step: latches @p conditions, runs the tracker if due, and
  /// returns the power delivered into the storage bus at @p bus_voltage
  /// (net of converter losses and amortized tracker overhead). Every lane of
  /// systems::BatchRunner runs this body through Platform::step.
  // Forced inline: left to its heuristics, GCC 12 -O3 keeps this body out of
  // line and inlines Platform::step_with into BatchRunner::run instead, which
  // cost the buffer_sweep benchmark ~4% (DESIGN.md §8, "One home per formula").
  [[gnu::always_inline]] Watts step(const env::AmbientConditions& conditions,
                                    Volts bus_voltage, Seconds now, Seconds dt) {
    harvest::Harvester& h = *harvester_;
    h.set_conditions(conditions);

    if (thermal_shutdown_) {
      // The cut-out opens the power path; the MPP oracle keeps integrating so
      // tracking_efficiency() reflects the outage as lost harvest.
      transducer_power_ = Watts{0.0};
      harvestable_at_mpp_ += h.maximum_power_point().p * dt;
      ++shutdown_steps_;
      return Watts{0.0};
    }

    const double interruption_s = tracker_update(h, conditions, now);
    transducer_power_ = h.power_at(operating_voltage_);

    // Cold start: the converter cannot run until its input has once reached
    // the startup threshold; it stops (and must restart) if the input
    // collapses below its operating window.
    const Converter::Params& cp = converter_.params();
    if (cp.startup_voltage.value() > 0.0) {
      if (!started_ && operating_voltage_ >= cp.startup_voltage) started_ = true;
      if (started_ && operating_voltage_ < cp.min_input) started_ = false;
    } else {
      started_ = true;
    }
    if (!started_) {
      harvestable_at_mpp_ += h.maximum_power_point().p * dt;
      return Watts{0.0};
    }
    // The tracker's Voc sample takes its interruption out of the step.
    const Watts effective =
        transducer_power_ *
        std::clamp(1.0 - interruption_s / dt.value(), 0.0, 1.0);

    const Watts out =
        converter_.transfer(effective, operating_voltage_, bus_voltage) *
        droop_factor_;
    // Tracker overhead is paid from the bus, amortized over this step.
    const Watts overhead_now = mppt_->overhead_per_update() / mppt_period_;
    const Watts net = std::max(Watts{0.0}, out - overhead_now);
    delivered_ += net * dt;
    conversion_loss_ += (effective - out) * dt;
    overhead_paid_ += (out - net) * dt;
    harvested_at_setpoint_ += effective * dt;
    harvestable_at_mpp_ += h.maximum_power_point().p * dt;
    return net;
  }

  [[nodiscard]] const harvest::Harvester& harvester() const { return *harvester_; }
  [[nodiscard]] harvest::Harvester& harvester() { return *harvester_; }

  /// Swaps the transducer feeding this chain and returns the old one.
  /// Used for module hot-swap and for wrapping the harvester in a
  /// fault::FaultyHarvester decorator; the operating point carries over and
  /// the tracker re-converges on the new curve.
  std::unique_ptr<harvest::Harvester> replace_harvester(
      std::unique_ptr<harvest::Harvester> replacement);
  [[nodiscard]] const MpptController& mppt() const { return *mppt_; }
  [[nodiscard]] const Converter& converter() const { return converter_; }
  [[nodiscard]] Volts operating_voltage() const { return operating_voltage_; }

  /// Raw transducer power at the present operating point (pre-conversion).
  [[nodiscard]] Watts transducer_power() const { return transducer_power_; }

  /// Accumulated energy delivered to the bus since construction.
  [[nodiscard]] Joules delivered_energy() const { return delivered_; }
  /// Accumulated tracker overhead energy.
  [[nodiscard]] Joules tracker_overhead_energy() const { return overhead_; }

  // ---- Energy-flow ledger probes (obs::EnergyLedger) ----------------------
  // Per-boundary accumulators with the exact chain identity
  // transducer = conversion_loss + tracker_paid + delivered, summed from
  // the same per-step quantities the power flow already computes.

  /// Energy extracted from the transducer at the operating point (after the
  /// tracker's sampling duty cycle).
  [[nodiscard]] Joules transducer_energy() const { return harvested_at_setpoint_; }
  /// Energy lost in the input converter (efficiency curve + fault droop).
  [[nodiscard]] Joules conversion_loss_energy() const { return conversion_loss_; }
  /// Tracker overhead actually paid from the converter output (differs from
  /// tracker_overhead_energy() when the output could not cover the full
  /// amortized overhead — the shortfall was never drawn).
  [[nodiscard]] Joules tracker_paid_energy() const { return overhead_paid_; }
  /// Tracking efficiency vs the true MPP, over time (1.0 = perfect).
  [[nodiscard]] double tracking_efficiency() const;

  /// True once the converter has bootstrapped (always true when the
  /// converter has no cold-start threshold).
  [[nodiscard]] bool started() const { return started_; }

  // ---- Fault injection (src/fault) ---------------------------------------
  // Converter anomalies are modelled behaviour (core/error.hpp): the chain
  // keeps running and the effects show up in delivered power and counters.

  /// Scales the converter's output by @p factor in (0, 1] — capacitor aging
  /// or inductor saturation drooping the efficiency curve. 1.0 heals.
  void set_efficiency_droop(double factor);

  /// Converter over-temperature cut-out: while latched the chain delivers
  /// nothing (the transducer keeps its curve; energy is simply not moved).
  void set_thermal_shutdown(bool on);

  /// Times the converter entered thermal shutdown.
  [[nodiscard]] std::uint64_t thermal_shutdowns() const { return shutdown_events_; }
  /// Steps spent shut down (the outage's simulated extent).
  [[nodiscard]] std::uint64_t shutdown_steps() const { return shutdown_steps_; }

  /// Ambient-sensing drift (the `sensor_drift` fault): the tracker's
  /// view of the environment is the true conditions scaled by @p gain, while
  /// the transducer physics keeps the true curve — so the controller chases
  /// the wrong operating point and tracking_efficiency() records the loss.
  /// Swapping the harvester's latched conditions for the tracker update goes
  /// through Harvester::set_conditions, so curve_revision() bumps and stale
  /// MPP caches drop. 1.0 heals (and is byte-identical to the unfaulted
  /// path: no extra set_conditions calls are made).
  void set_sense_gain(double gain);
  [[nodiscard]] double sense_gain() const { return sense_gain_; }

 private:
  /// Tracker block of step(): when the update is due, moves the operating
  /// point and books the controller's overhead. Returns the harvest
  /// interruption this step (0 when no update ran). @p h must be this
  /// chain's harvester().
  double tracker_update(harvest::Harvester& h,
                        const env::AmbientConditions& conditions, Seconds now) {
    if (now.value() >= next_update_.value()) {
      Volts opv = operating_voltage_;
      if (sense_gain_ != 1.0) {
        // Drifted sensing: the tracker sees a skewed environment, picks its
        // setpoint on the wrong curve, then the true conditions come back for
        // the physics below. Each swap goes through set_conditions, so the
        // curve revision bumps and conditions-keyed MPP memos invalidate.
        h.set_conditions(env::scaled(conditions, sense_gain_));
        opv = mppt_->update(h, opv);
        h.set_conditions(conditions);
      } else {
        opv = mppt_->update(h, opv);
      }
      operating_voltage_ = opv;
      overhead_ += mppt_->overhead_per_update();
      next_update_ = now + mppt_period_;
      return mppt_->harvest_interruption().value();
    }
    return 0.0;
  }

  std::unique_ptr<harvest::Harvester> harvester_;
  std::unique_ptr<MpptController> mppt_;
  Converter converter_;
  Seconds mppt_period_;
  Seconds next_update_{0.0};
  Volts operating_voltage_{0.5};
  Watts transducer_power_{0.0};
  Joules delivered_{0.0};
  Joules overhead_{0.0};
  Joules conversion_loss_{0.0};
  Joules overhead_paid_{0.0};
  Joules harvested_at_setpoint_{0.0};
  Joules harvestable_at_mpp_{0.0};
  bool started_{false};
  double droop_factor_{1.0};
  double sense_gain_{1.0};
  bool thermal_shutdown_{false};
  std::uint64_t shutdown_events_{0};
  std::uint64_t shutdown_steps_{0};
};

/// The output conditioning stage. required_bus_power inverts the converter
/// every step, and its arguments often repeat from one call to the next (a
/// steady node load while the front store sits at its clamp voltage), so it
/// keeps a one-entry memo keyed on the exact bits of both arguments. The
/// converter and rail are fixed at construction, so a hit returns the very
/// double a fresh inversion would; the memo makes the const member unsafe to
/// call concurrently on one chain, which a Platform's single stepping
/// thread never does (DESIGN.md §8, "Allocation-free step").
class OutputChain {
 public:
  OutputChain(Converter converter, Volts rail_voltage);

  /// Power that must be drawn from the store at @p bus_voltage so the rail
  /// delivers @p load_power. Returns 0 if conversion is infeasible
  /// (e.g. bus collapsed below the LDO dropout) — the caller treats that as
  /// a brownout.
  [[nodiscard]] Watts required_bus_power(Watts load_power, Volts bus_voltage) const {
    const auto load_bits = std::bit_cast<std::uint64_t>(load_power.value());
    const auto bus_bits = std::bit_cast<std::uint64_t>(bus_voltage.value());
    if (memo_valid_ && load_bits == memo_load_bits_ && bus_bits == memo_bus_bits_)
      return memo_power_;
    memo_power_ = solve_bus_power(load_power, bus_voltage);
    memo_load_bits_ = load_bits;
    memo_bus_bits_ = bus_bits;
    memo_valid_ = true;
    return memo_power_;
  }

  /// True if the rail can be produced from @p bus_voltage at all.
  [[nodiscard]] bool rail_available(Volts bus_voltage) const;

  [[nodiscard]] Volts rail_voltage() const { return rail_voltage_; }
  [[nodiscard]] const Converter& converter() const { return converter_; }

 private:
  /// The inversion required_bus_power memoizes.
  [[nodiscard]] Watts solve_bus_power(Watts load_power, Volts bus_voltage) const;

  Converter converter_;
  Volts rail_voltage_;
  mutable bool memo_valid_{false};
  mutable std::uint64_t memo_load_bits_{0};
  mutable std::uint64_t memo_bus_bits_{0};
  mutable Watts memo_power_{0.0};
};

}  // namespace msehsim::power
