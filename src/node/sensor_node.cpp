#include "node/sensor_node.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace msehsim::node {

SensorNode::SensorNode(std::string name, McuParams mcu, RadioParams radio,
                       WorkloadParams work)
    : name_(std::move(name)), mcu_(mcu), radio_(radio), work_(work) {
  require_spec(mcu_.sleep_current.value() >= 0.0, "MCU sleep current must be >= 0");
  require_spec(mcu_.active_current > mcu_.sleep_current,
               "MCU active current must exceed sleep current");
  require_spec(mcu_.boot_time.value() >= 0.0, "MCU boot time must be >= 0");
  require_spec(radio_.bitrate_bps > 0.0, "radio bitrate must be > 0");
  require_spec(work_.min_period.value() > 0.0, "workload min period must be > 0");
  require_spec(work_.max_period >= work_.min_period,
               "workload max period must be >= min period");
  require_spec(work_.task_period >= work_.min_period &&
                   work_.task_period <= work_.max_period,
               "workload period outside [min, max]");
}

bool SensorNode::deliver_query(Volts rail_voltage) {
  ++queries_received_;
  // Without a wake-up receiver the main radio is off between duty cycles:
  // the query is lost. With one, an up node detects and answers it.
  if (radio_.wake_up_rx_current.value() <= 0.0) return false;
  if (state_ != State::kUp) return false;
  const Seconds tx_time{work_.query_response_bytes * 8.0 / radio_.bitrate_bps};
  pending_response_energy_ +=
      rail_voltage * radio_.tx_current * radio_pa_factor_ * tx_time;
  ++queries_answered_;
  return true;
}

void SensorNode::set_task_period(Seconds period) {
  work_.task_period = std::clamp(period, work_.min_period, work_.max_period);
}

void SensorNode::inject_flash_wear(double factor) {
  require_spec(factor >= 1.0, "flash wear factor must be >= 1");
  flash_wear_factor_ *= factor;
}

void SensorNode::inject_radio_pa_degradation(double factor) {
  require_spec(factor >= 1.0, "radio PA degradation factor must be >= 1");
  radio_pa_factor_ *= factor;
}

Joules SensorNode::cycle_energy(Volts rail_voltage) const {
  const Seconds tx_time{work_.packet_bytes * 8.0 / radio_.bitrate_bps};
  const Seconds rx_time{work_.rx_ack_bytes * 8.0 / radio_.bitrate_bps};
  const Joules processing = rail_voltage * mcu_.active_current * work_.processing_time;
  const Joules tx = rail_voltage * radio_.tx_current * radio_pa_factor_ * tx_time;
  const Joules rx = rail_voltage * radio_.rx_current * rx_time;
  return processing + tx + rx + work_.sensor_energy * flash_wear_factor_;
}

Watts SensorNode::average_power(Volts rail_voltage) const {
  const Watts base = rail_voltage * (mcu_.sleep_current + radio_.wake_up_rx_current);
  return base + cycle_energy(rail_voltage) / work_.task_period;
}

Watts SensorNode::floor_power(Volts rail_voltage) const {
  const Watts base = rail_voltage * (mcu_.sleep_current + radio_.wake_up_rx_current);
  return base + cycle_energy(rail_voltage) / work_.max_period;
}

double SensorNode::availability() const {
  const double total = (uptime_ + downtime_).value();
  return total > 0.0 ? uptime_.value() / total : 0.0;
}

Watts SensorNode::step(bool rail_on, Volts rail_voltage, Seconds dt) {
  require_spec(dt.value() > 0.0, "SensorNode step dt must be > 0");
  if (!rail_on || rail_voltage < mcu_.min_voltage) {
    if (state_ != State::kDown) {
      state_ = State::kDown;
      cycle_accumulator_ = 0.0;  // in-flight work is lost on brownout
    }
    downtime_ += dt;
    return Watts{0.0};
  }

  if (state_ == State::kDown) {
    state_ = State::kBooting;
    boot_remaining_ = mcu_.boot_time;
    ++reboots_;
  }

  Watts draw{0.0};
  if (state_ == State::kBooting) {
    const Seconds booting = std::min(boot_remaining_, dt);
    boot_remaining_ -= booting;
    draw += rail_voltage * mcu_.active_current * (booting / dt);
    downtime_ += booting;  // boot time is not useful service time
    if (boot_remaining_.value() <= 0.0) state_ = State::kUp;
    const Seconds productive = dt - booting;
    if (productive.value() <= 0.0) {
      consumed_ += draw * dt;
      return draw;
    }
    // Fall through and run the remainder of the step as "up".
    const double frac = productive / dt;
    draw += average_power(rail_voltage) * frac;
    uptime_ += productive;
    cycle_accumulator_ += productive / work_.task_period;
  } else {
    draw = average_power(rail_voltage);
    uptime_ += dt;
    cycle_accumulator_ += dt / work_.task_period;
  }

  while (cycle_accumulator_ >= 1.0) {
    cycle_accumulator_ -= 1.0;
    ++packets_sent_;
  }
  // Drain any pending query-response energy into this step's draw.
  if (pending_response_energy_.value() > 0.0) {
    draw += pending_response_energy_ / dt;
    pending_response_energy_ = Joules{0.0};
  }
  consumed_ += draw * dt;
  return draw;
}

}  // namespace msehsim::node
