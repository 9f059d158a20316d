// Energy monitors — one per capability level of the survey's Axis 3.
//
// The crucial semantic (Sec. III.2): monitors estimate energy through an
// *assumed* hardware model. Analog monitors bake the assumption in at build
// time, so swapping the storage device silently corrupts their estimates;
// the digital monitor re-reads electronic datasheets and stays correct —
// exactly the System B property the survey singles out.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/i2c.hpp"
#include "bus/module_port.hpp"
#include "bus/sense.hpp"
#include "core/units.hpp"
#include "storage/storage.hpp"
#include "taxonomy/taxonomy.hpp"

namespace msehsim::manager {

/// What a monitor believes about the energy subsystem.
struct EnergyEstimate {
  bool valid{false};
  Joules stored{0.0};
  Joules capacity{0.0};
  Watts incoming{0.0};
  bool incoming_known{false};

  [[nodiscard]] double soc() const {
    return capacity.value() > 0.0 ? stored.value() / capacity.value() : 0.0;
  }
};

class EnergyMonitor {
 public:
  virtual ~EnergyMonitor() = default;

  [[nodiscard]] virtual taxonomy::MonitoringCapability capability() const = 0;

  /// Performs one monitoring action and returns the belief. Invalid
  /// estimate = the system is blind. The energy the sensing or bus traffic
  /// itself costs is not modelled.
  virtual EnergyEstimate estimate() = 0;

  /// Invoked by the platform after an energy-device change. Monitors that
  /// can re-recognize hardware refresh their model here; the others ignore
  /// it (and drift, per survey Sec. III.2).
  virtual void notify_hardware_change() {}
};

/// No monitoring at all (AmbiMax, MAX17710 Eval, EH-Link).
class NullMonitor final : public EnergyMonitor {
 public:
  [[nodiscard]] taxonomy::MonitoringCapability capability() const override {
    return taxonomy::MonitoringCapability::kNone;
  }
  EnergyEstimate estimate() override { return EnergyEstimate{}; }
};

/// Analog store-voltage line + ADC (MPWiNode's "Limited" monitoring).
/// Converts voltage to energy through a frozen assumed device model.
class AnalogVoltageMonitor final : public EnergyMonitor {
 public:
  /// The voltage-to-energy model assumed by the firmware.
  struct AssumedDevice {
    enum class Model { kCapacitor, kBattery } model{Model::kCapacitor};
    Farads capacitance{10.0};   ///< kCapacitor
    Joules capacity{0.0};       ///< kBattery: energy between vmin and vmax
    Volts min_voltage{0.0};
    Volts max_voltage{5.0};

    [[nodiscard]] Joules energy_at(Volts v) const;
    [[nodiscard]] Joules full_energy() const;
  };

  /// @p voltage_source reads the monitored terminal. It models the analog
  /// line soldered to the storage *slot*: after a hardware swap it reads
  /// the new device, while the assumed model stays frozen (claim C5).
  AnalogVoltageMonitor(std::function<Volts()> voltage_source, AssumedDevice assumed,
                       bus::AdcLine::Params adc, std::uint64_t seed);

  [[nodiscard]] taxonomy::MonitoringCapability capability() const override {
    return taxonomy::MonitoringCapability::kStoreVoltageOnly;
  }
  EnergyEstimate estimate() override;

  /// Firmware update: tell the monitor about new hardware explicitly
  /// (what a *person* must do on non-plug-and-play systems).
  void reconfigure(AssumedDevice assumed) { assumed_ = assumed; }

  [[nodiscard]] const AssumedDevice& assumed() const { return assumed_; }

 private:
  std::function<Volts()> voltage_source_;
  AssumedDevice assumed_;
  bus::AdcLine adc_;
};

/// Digital monitor reading electronic datasheets + live telemetry over the
/// bus (System A on-power-unit MCU; System B node-side driver).
class DigitalBusMonitor final : public EnergyMonitor {
 public:
  struct ModuleRecord {
    std::uint8_t address{0};
    bus::ElectronicDatasheet datasheet;
  };

  /// Tries per bus transaction, including the first, before the firmware
  /// declares the value unknown.
  static constexpr int kMaxAttempts = 3;

  /// @p addresses the module sockets to scan.
  DigitalBusMonitor(bus::I2cBus& bus, std::vector<std::uint8_t> addresses);

  [[nodiscard]] taxonomy::MonitoringCapability capability() const override {
    return taxonomy::MonitoringCapability::kFull;
  }
  EnergyEstimate estimate() override;

  /// Re-enumerates the bus: hot-swapped modules are recognized from their
  /// datasheets (the System B property).
  void notify_hardware_change() override { enumerate(); }

  void enumerate();
  [[nodiscard]] const std::vector<ModuleRecord>& inventory() const {
    return inventory_;
  }

  // Retry bookkeeping for the fault report.
  [[nodiscard]] std::uint64_t attempts() const { return attempts_; }
  /// Attempts beyond the first of each transaction.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Transactions that failed all kMaxAttempts tries.
  [[nodiscard]] std::uint64_t give_ups() const { return give_ups_; }

 private:
  /// Runs @p attempt (a callable returning bool) up to kMaxAttempts times
  /// until it succeeds. Bus faults (NAK bursts, EMI, a stuck bus) surface
  /// as failed attempts. A ladder of a few ms is far shorter than a step,
  /// so the quasi-static model does not advance the clock by it. A template,
  /// so the per-poll lambda is called directly, not through a std::function.
  template <typename Attempt>
  bool retry(Attempt&& attempt) {
    for (int i = 0; i < kMaxAttempts; ++i) {
      ++attempts_;
      if (i > 0) ++retries_;
      if (attempt()) return true;
    }
    ++give_ups_;
    return false;
  }

  /// Polls one live register through the retry ladder; empty on give-up.
  std::optional<std::uint32_t> poll_u32(std::uint8_t address,
                                        std::uint8_t base_reg);

  bus::I2cBus* bus_;
  std::vector<std::uint8_t> addresses_;
  std::vector<ModuleRecord> inventory_;
  std::uint64_t attempts_{0};
  std::uint64_t retries_{0};
  std::uint64_t give_ups_{0};
};

/// Activity-flag monitor (Cymbet EVAL-09): "allows the system to see which
/// devices are active" — boolean flags only, no energy quantification.
class ActivityFlagMonitor final : public EnergyMonitor {
 public:
  /// @p probes one callback per input, true when that source is producing.
  explicit ActivityFlagMonitor(std::vector<std::function<bool()>> probes);

  [[nodiscard]] taxonomy::MonitoringCapability capability() const override {
    return taxonomy::MonitoringCapability::kActivityFlags;
  }
  EnergyEstimate estimate() override;

  /// Flags from the most recent estimate() call.
  [[nodiscard]] const std::vector<bool>& flags() const { return flags_; }

 private:
  std::vector<std::function<bool()>> probes_;
  std::vector<bool> flags_;
};

}  // namespace msehsim::manager
