// Embedded wireless sensor node load model.
//
// The survey's target load: a duty-cycled sensing + radio device with
// "bursty" consumption (Sec. II.1). Within the quasi-static step model the
// node presents its cycle-averaged power, while packet and reboot counts
// are tracked discretely. Brownout semantics follow deployed practice: if
// the regulated rail disappears the node is down, and regaining the rail
// costs a reboot (boot time at active current) before useful work resumes.
#pragma once

#include <cstdint>
#include <string>

#include "core/units.hpp"

namespace msehsim::node {

/// MCU current draw per state (MSP430/CC2530 class defaults).
struct McuParams {
  Amps sleep_current{1.0e-6};
  Amps active_current{3.0e-3};
  Seconds boot_time{2.0};       ///< time at active current after power-up
  Volts min_voltage{1.8};
};

/// Radio energy model (802.15.4 class).
struct RadioParams {
  Amps tx_current{17.0e-3};
  Amps rx_current{19.0e-3};
  double bitrate_bps{250e3};
  /// Ultra-low-power wake-up receiver (the Smart Power Unit's signature
  /// feature, Magno et al. [6]); zero if absent.
  Amps wake_up_rx_current{0.0};
};

/// Periodic sense-process-transmit workload.
struct WorkloadParams {
  Seconds task_period{30.0};
  Seconds min_period{5.0};
  Seconds max_period{3600.0};
  Seconds processing_time{5e-3};   ///< MCU active per cycle
  double packet_bytes{32.0};
  double rx_ack_bytes{8.0};
  Joules sensor_energy{50e-6};     ///< transducer sampling cost per cycle
  double query_response_bytes{24.0};  ///< reply to an asynchronous query
};

class SensorNode {
 public:
  SensorNode(std::string name, McuParams mcu, RadioParams radio, WorkloadParams work);

  /// Advances one step. @p rail_on tells whether the output conditioning
  /// chain can supply the rail; @p rail_voltage is the regulated voltage.
  /// Returns the average power the node draws from the rail this step.
  Watts step(bool rail_on, Volts rail_voltage, Seconds dt);

  /// Delivers an asynchronous over-the-air query (the Smart Power Unit's
  /// "ultra low power radio trigger" use case, Magno et al. [6]). A node
  /// with a wake-up receiver answers whenever it is up, paying the response
  /// transmission energy; a node without one sleeps through the query and
  /// misses it. Returns true if the query was answered.
  bool deliver_query(Volts rail_voltage);

  [[nodiscard]] std::uint64_t queries_received() const { return queries_received_; }
  [[nodiscard]] std::uint64_t queries_answered() const { return queries_answered_; }

  /// Energy-aware duty-cycle knob (clamped to [min_period, max_period]).
  void set_task_period(Seconds period);
  [[nodiscard]] Seconds task_period() const { return work_.task_period; }

  /// Average power at the present duty cycle with the rail up.
  [[nodiscard]] Watts average_power(Volts rail_voltage) const;

  /// Lowest possible average power (max period, no wake-up radio losses
  /// excluded — the survey's "adjust duty cycle to conserve energy" floor).
  [[nodiscard]] Watts floor_power(Volts rail_voltage) const;

  // -- Observability --------------------------------------------------------

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] std::uint64_t reboots() const { return reboots_; }
  [[nodiscard]] double availability() const;
  [[nodiscard]] bool is_up() const { return state_ == State::kUp; }
  [[nodiscard]] Joules consumed_energy() const { return consumed_; }

  [[nodiscard]] const WorkloadParams& workload() const { return work_; }

  // -- Fault hooks (fault::Schedule) ----------------------------------------

  /// Worn log flash: each sense cycle's sampling/logging write costs
  /// @p factor times the nominal sensor energy (>= 1; multiplicative, so
  /// repeated injections compound like real wear).
  void inject_flash_wear(double factor);
  [[nodiscard]] double flash_wear_factor() const { return flash_wear_factor_; }

  /// Aged radio power amplifier: every transmission (packets and query
  /// responses) draws @p factor times the nominal TX current.
  void inject_radio_pa_degradation(double factor);
  [[nodiscard]] double radio_pa_factor() const { return radio_pa_factor_; }

 private:
  enum class State { kDown, kBooting, kUp };

  /// Energy of one sense-process-transmit cycle at @p rail_voltage.
  [[nodiscard]] Joules cycle_energy(Volts rail_voltage) const;

  std::string name_;
  McuParams mcu_;
  RadioParams radio_;
  WorkloadParams work_;
  State state_{State::kDown};
  double flash_wear_factor_{1.0};
  double radio_pa_factor_{1.0};
  Seconds boot_remaining_{0.0};
  double cycle_accumulator_{0.0};  ///< fractional task cycles completed
  std::uint64_t packets_sent_{0};
  std::uint64_t reboots_{0};
  Seconds uptime_{0.0};
  Seconds downtime_{0.0};
  Joules consumed_{0.0};
  Joules pending_response_energy_{0.0};  ///< drained into the next step's draw
  std::uint64_t queries_received_{0};
  std::uint64_t queries_answered_{0};
};

}  // namespace msehsim::node
