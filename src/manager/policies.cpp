#include "manager/policies.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace msehsim::manager {

void DutyCycleController::update(const EnergyEstimate& estimate,
                                 node::SensorNode& node) {
  if (!estimate.valid || estimate.capacity.value() <= 0.0) return;
  const double error = kTargetSoc - estimate.soc();
  if (std::fabs(error) <= kDeadband) return;
  // error > 0 (store below target): lengthen the period; error < 0: shorten.
  const double factor = std::clamp(1.0 + kGain * error, 0.5, 2.0);
  node.set_task_period(node.task_period() * factor);
  ++adjustments_;
}

FailoverPolicy::FailoverPolicy(Params params) : params_(params) {
  require_spec(params_.primary_dead_below.value() >= 0.0,
               "failover dead-power threshold must be >= 0");
  require_spec(params_.dead_time.value() > 0.0, "failover dead time must be > 0");
  require_spec(params_.recovery_time.value() > 0.0,
               "failover recovery time must be > 0");
  require_spec(params_.enable_below_soc < params_.disable_above_soc,
               "failover hysteresis window inverted");
  require_spec(params_.enable_below_soc >= 0.0 && params_.disable_above_soc <= 1.0,
               "failover thresholds must be in [0,1]");
}

void FailoverPolicy::update(Seconds now, Watts primary_power, double ambient_soc,
                            storage::FuelCell& cell) {
  const bool alive = primary_power > params_.primary_dead_below;
  if (alive) {
    outage_since_.reset();
    if (!recovery_since_.has_value()) recovery_since_ = now;
  } else {
    recovery_since_.reset();
    if (!outage_since_.has_value()) outage_since_ = now;
  }
  primary_down_ = outage_since_.has_value() &&
                  now - *outage_since_ >= params_.dead_time;

  const bool low_soc = ambient_soc < params_.enable_below_soc;
  if (!cell.enabled() && (primary_down_ || low_soc)) {
    cell.set_enabled(true);
    ++failovers_;
    if (outage_since_.has_value()) {
      failover_latency_total_ += now - *outage_since_;
      ++failover_latency_count_;
    }
    return;
  }
  const bool recovered = recovery_since_.has_value() &&
                         now - *recovery_since_ >= params_.recovery_time;
  if (cell.enabled() && recovered && ambient_soc > params_.disable_above_soc) {
    cell.set_enabled(false);
    ++failbacks_;
  }
}

FuelCellPolicy::FuelCellPolicy(Params params) : params_(params) {
  require_spec(params_.enable_below_soc < params_.disable_above_soc,
               "fuel-cell hysteresis window inverted");
  require_spec(params_.enable_below_soc >= 0.0 && params_.disable_above_soc <= 1.0,
               "fuel-cell thresholds must be in [0,1]");
}

void FuelCellPolicy::update(double ambient_soc, storage::FuelCell& cell) {
  if (!cell.enabled() && ambient_soc < params_.enable_below_soc) {
    cell.set_enabled(true);
    ++switch_ins_;
  } else if (cell.enabled() && ambient_soc > params_.disable_above_soc) {
    cell.set_enabled(false);
  }
}

}  // namespace msehsim::manager
