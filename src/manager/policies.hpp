// Energy-management policies.
//
// Survey Sec. II.3: "Intelligent features allow the system to ... respond
// by, for example, adjusting its duty cycle to conserve energy when
// resources are limited, or selecting auxiliary storage such as the fuel
// cell." These policies are the executable version of that sentence.
#pragma once

#include <optional>

#include "core/units.hpp"
#include "manager/monitor.hpp"
#include "node/sensor_node.hpp"
#include "storage/fuel_cell.hpp"

namespace msehsim::manager {

/// Duty-cycle adaptation toward a state-of-charge target (energy-neutral
/// operation): below target, slow down; above target, speed up.
/// Multiplicative update with clamped step keeps the loop stable.
class DutyCycleController {
 public:
  static constexpr double kTargetSoc = 0.6;
  /// Aggressiveness of the multiplicative step.
  static constexpr double kGain = 1.5;
  /// No action within +-kDeadband of the target.
  static constexpr double kDeadband = 0.05;

  /// One control step: adjusts @p node's task period from the monitor's
  /// belief. A blind system (invalid estimate) cannot adapt — the node
  /// keeps whatever period it was deployed with.
  void update(const EnergyEstimate& estimate, node::SensorNode& node);

  [[nodiscard]] std::uint64_t adjustments() const { return adjustments_; }

 private:
  std::uint64_t adjustments_{0};
};

/// Failover from the ambient (primary) sources to the backup store (System
/// A's hydrogen fuel cell) when the primaries *fail*, not merely when the
/// buffer is low. The SoC hysteresis of FuelCellPolicy reacts only after the
/// buffer has drained; this policy also watches the input power itself, so a
/// faulted harvester bank (src/fault) triggers the backup while the buffer
/// still holds charge. Failback requires both sustained primary recovery and
/// a recovered buffer.
class FailoverPolicy {
 public:
  struct Params {
    /// Primary sources count as dead while their combined delivered power
    /// stays below this.
    Watts primary_dead_below{5e-6};
    /// Outage must persist this long before the backup switches in
    /// (debounce: clouds are not faults).
    Seconds dead_time{600.0};
    /// Recovery must persist this long before the backup switches out.
    Seconds recovery_time{1800.0};
    /// Regardless of source health, switch in below this SoC ...
    double enable_below_soc{0.25};
    /// ... and never switch out before the buffer is back above this.
    double disable_above_soc{0.50};
  };

  explicit FailoverPolicy(Params params);
  FailoverPolicy() : FailoverPolicy(Params{}) {}

  /// One control step. @p primary_power combined delivered power of the
  /// ambient input chains over the last step; @p ambient_soc state of charge
  /// of the environmentally fed stores.
  void update(Seconds now, Watts primary_power, double ambient_soc,
              storage::FuelCell& cell);

  /// Times the backup was switched in / back out.
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  [[nodiscard]] std::uint64_t failbacks() const { return failbacks_; }

  /// True while the policy considers the primary sources dead.
  [[nodiscard]] bool primary_down() const { return primary_down_; }

  // ---- Failover latency (the ROADMAP mean-time-to-failover metric) --------
  // Measured from fault onset — the first update that saw the primaries
  // dead — to the switch-in that covered it. Pure-SoC switch-ins (buffer
  // drained with healthy sources) have no onset and are excluded from the
  // mean (RunResult's faults.mean_time_to_failover_s), so the metric
  // isolates how fast the *fault* path reacts.

  /// Total onset-to-switch-in latency across counted failovers.
  [[nodiscard]] Seconds failover_latency_total() const {
    return failover_latency_total_;
  }
  /// Failovers with a measurable onset (outage-triggered).
  [[nodiscard]] std::uint64_t failover_latency_count() const {
    return failover_latency_count_;
  }

 private:
  Params params_;
  std::optional<Seconds> outage_since_;
  std::optional<Seconds> recovery_since_;
  bool primary_down_{false};
  std::uint64_t failovers_{0};
  std::uint64_t failbacks_{0};
  Seconds failover_latency_total_{0.0};
  std::uint64_t failover_latency_count_{0};
};

/// Fuel-cell fallback with hysteresis (System A): switch the stack in when
/// ambient-fed storage runs low, back out once it recovers.
class FuelCellPolicy {
 public:
  struct Params {
    double enable_below_soc{0.25};
    double disable_above_soc{0.50};
  };

  explicit FuelCellPolicy(Params params);
  FuelCellPolicy() : FuelCellPolicy(Params{}) {}

  /// @p ambient_soc state of charge of the environmentally charged stores.
  void update(double ambient_soc, storage::FuelCell& cell);

  [[nodiscard]] std::uint64_t switch_ins() const { return switch_ins_; }

 private:
  Params params_;
  std::uint64_t switch_ins_{0};
};

}  // namespace msehsim::manager
