// Maximum power point tracking controllers.
//
// Survey Sec. II.1: "System A uses a maximum power point tracking (MPPT)
// arrangement... Conversely, System B has devolved this functionality to
// the individual modules, but the demonstration modules produced operate at
// a fixed point which offers a compromise between efficiency and quiescent
// current draw." And Sec. IV: MPPT "is important providing that the
// overhead of implementing it does not exceed the delivered benefits."
//
// Each controller decides the harvester operating voltage and carries an
// explicit energy overhead per update, so bench_mppt_overhead can locate
// the crossover the survey describes.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/units.hpp"
#include "harvest/harvester.hpp"

namespace msehsim::power {

class MpptController {
 public:
  virtual ~MpptController() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Computes the next operating voltage for @p harvester given the present
  /// setpoint. Called at the controller's update period.
  virtual Volts update(const harvest::Harvester& harvester, Volts present) = 0;

  /// Energy consumed by one update (MCU wake + measurement + actuation).
  [[nodiscard]] virtual Joules overhead_per_update() const = 0;

  /// Harvest time lost per update (e.g. fractional-Voc disconnects the
  /// source to sample its open-circuit voltage).
  [[nodiscard]] virtual Seconds harvest_interruption() const { return Seconds{0.0}; }

  /// True for controllers that adapt at runtime (Table I's "MPPT" property).
  [[nodiscard]] virtual bool adaptive() const { return true; }
};

/// Hill-climbing perturb-and-observe tracker (the classic MPPT loop).
class PerturbObserve final : public MpptController {
 public:
  struct Params {
    Volts step{0.05};
    Joules overhead_per_update{30e-6};  ///< ADC sample + MCU awake slice
    Volts min_voltage{0.1};
  };

  explicit PerturbObserve(Params params);
  PerturbObserve() : PerturbObserve(Params{}) {}

  [[nodiscard]] std::string_view name() const override { return "P&O"; }
  Volts update(const harvest::Harvester& harvester, Volts present) override;
  [[nodiscard]] Joules overhead_per_update() const override {
    return params_.overhead_per_update;
  }

 private:
  Params params_;
  double last_power_{0.0};
  double direction_{1.0};
};

/// Fractional open-circuit-voltage tracker: periodically disconnects the
/// harvester, samples Voc, and sets V = k * Voc. Cheap but loses harvest
/// time during the sample and is only near-optimal for PV-like curves.
class FractionalVoc final : public MpptController {
 public:
  struct Params {
    double fraction{0.76};              ///< PV MPP sits near 0.76 Voc
    Joules overhead_per_update{8e-6};
    Seconds sample_time{2e-3};
  };

  explicit FractionalVoc(Params params);
  FractionalVoc() : FractionalVoc(Params{}) {}

  [[nodiscard]] std::string_view name() const override { return "frac-Voc"; }
  Volts update(const harvest::Harvester& harvester, Volts present) override;
  [[nodiscard]] Joules overhead_per_update() const override {
    return params_.overhead_per_update;
  }
  [[nodiscard]] Seconds harvest_interruption() const override {
    return params_.sample_time;
  }

 private:
  Params params_;
};

/// Fixed operating point — System B's per-module compromise. Zero overhead,
/// no adaptation.
class FixedPoint final : public MpptController {
 public:
  explicit FixedPoint(Volts setpoint);

  [[nodiscard]] std::string_view name() const override { return "fixed"; }
  Volts update(const harvest::Harvester& harvester, Volts present) override;
  [[nodiscard]] Joules overhead_per_update() const override { return Joules{0.0}; }
  [[nodiscard]] bool adaptive() const override { return false; }

 private:
  Volts setpoint_;
};

/// Incremental-conductance tracker: compares the incremental conductance
/// dI/dV against the instantaneous conductance -I/V; at the MPP they are
/// equal, so (unlike P&O) it can *hold* the operating point without
/// oscillating and distinguishes "I moved the point" from "the source
/// changed". Costs a current measurement on top of the voltage sample.
class IncrementalConductance final : public MpptController {
 public:
  struct Params {
    Volts step{0.05};
    Joules overhead_per_update{40e-6};  ///< V and I sample + arithmetic
    Volts min_voltage{0.1};
    double tolerance{0.25};  ///< conductance match band (relative); must cover
                             ///< the swing one step away from the MPP
  };

  explicit IncrementalConductance(Params params);
  IncrementalConductance() : IncrementalConductance(Params{}) {}

  [[nodiscard]] std::string_view name() const override { return "inc-cond"; }
  Volts update(const harvest::Harvester& harvester, Volts present) override;
  [[nodiscard]] Joules overhead_per_update() const override {
    return params_.overhead_per_update;
  }

 private:
  Params params_;
  double last_v_{-1.0};
  double last_i_{0.0};
};

/// Ideal tracker that jumps straight to the true MPP — the upper bound used
/// by benches to normalize tracking efficiency.
class OracleMppt final : public MpptController {
 public:
  [[nodiscard]] std::string_view name() const override { return "oracle"; }
  Volts update(const harvest::Harvester& harvester, Volts present) override;
  [[nodiscard]] Joules overhead_per_update() const override { return Joules{0.0}; }
};

}  // namespace msehsim::power
