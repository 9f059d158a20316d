#include "manager/monitor.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace msehsim::manager {

// ---------------------------------------------------------------------------
// AnalogVoltageMonitor
// ---------------------------------------------------------------------------

Joules AnalogVoltageMonitor::AssumedDevice::energy_at(Volts v) const {
  switch (model) {
    case Model::kCapacitor: {
      const Joules at_v = capacitor_energy(capacitance, v);
      const Joules at_floor = capacitor_energy(capacitance, min_voltage);
      return Joules{std::max(0.0, (at_v - at_floor).value())};
    }
    case Model::kBattery: {
      const double span = (max_voltage - min_voltage).value();
      if (span <= 0.0) return Joules{0.0};
      const double frac =
          std::clamp((v - min_voltage).value() / span, 0.0, 1.0);
      return capacity * frac;
    }
  }
  return Joules{0.0};
}

Joules AnalogVoltageMonitor::AssumedDevice::full_energy() const {
  return energy_at(max_voltage);
}

AnalogVoltageMonitor::AnalogVoltageMonitor(std::function<Volts()> voltage_source,
                                           AssumedDevice assumed,
                                           bus::AdcLine::Params adc,
                                           std::uint64_t seed)
    : voltage_source_(std::move(voltage_source)), assumed_(assumed), adc_(adc, seed) {
  require_spec(static_cast<bool>(voltage_source_),
               "AnalogVoltageMonitor needs a voltage source");
  require_spec(assumed.max_voltage > assumed.min_voltage,
               "assumed device voltage window invalid");
}

EnergyEstimate AnalogVoltageMonitor::estimate() {
  EnergyEstimate e;
  e.valid = true;
  const Volts measured = adc_.sample(voltage_source_());
  e.stored = assumed_.energy_at(measured);
  e.capacity = assumed_.full_energy();
  return e;  // incoming power is unobservable over one analog line
}

// ---------------------------------------------------------------------------
// DigitalBusMonitor
// ---------------------------------------------------------------------------

DigitalBusMonitor::DigitalBusMonitor(bus::I2cBus& bus,
                                     std::vector<std::uint8_t> addresses)
    : bus_(&bus), addresses_(std::move(addresses)) {
  require_spec(!addresses_.empty(), "DigitalBusMonitor needs at least one socket");
  enumerate();
}

void DigitalBusMonitor::enumerate() {
  inventory_.clear();
  for (const auto addr : addresses_) {
    // A datasheet read is long (66 bytes) and CRC-protected, so bit errors
    // surface as CRC failures here; retry until a clean image or give-up.
    std::optional<bus::ElectronicDatasheet> ds;
    retry([&] {
      ds = bus::read_datasheet(*bus_, addr);
      return ds.has_value();
    });
    if (ds) inventory_.push_back(ModuleRecord{addr, std::move(*ds)});
  }
}

std::optional<std::uint32_t> DigitalBusMonitor::poll_u32(std::uint8_t address,
                                                         std::uint8_t base_reg) {
  std::optional<std::uint32_t> value;
  retry([&] {
    value = bus::read_live_u32(*bus_, address, base_reg);
    return value.has_value();
  });
  return value;
}

EnergyEstimate DigitalBusMonitor::estimate() {
  EnergyEstimate e;
  e.valid = true;
  e.incoming_known = true;
  for (const auto& record : inventory_) {
    if (record.datasheet.device_class == bus::DeviceClass::kStorage) {
      const auto mj = poll_u32(record.address, bus::ModulePort::kRegEnergyMj);
      if (mj) e.stored += Joules{static_cast<double>(*mj) * 1e-3};
      e.capacity += record.datasheet.capacity;
    } else {
      const auto uw = poll_u32(record.address, bus::ModulePort::kRegPowerUw);
      if (uw) e.incoming += Watts{static_cast<double>(*uw) * 1e-6};
    }
  }
  return e;
}

// ---------------------------------------------------------------------------
// ActivityFlagMonitor
// ---------------------------------------------------------------------------

ActivityFlagMonitor::ActivityFlagMonitor(std::vector<std::function<bool()>> probes)
    : probes_(std::move(probes)) {
  require_spec(!probes_.empty(), "ActivityFlagMonitor needs at least one probe");
}

EnergyEstimate ActivityFlagMonitor::estimate() {
  flags_.clear();
  flags_.reserve(probes_.size());
  for (const auto& probe : probes_) flags_.push_back(probe && probe());
  // Flags alone cannot quantify energy: the estimate stays invalid, which
  // is precisely why System F cannot drive duty-cycle adaptation.
  return EnergyEstimate{};
}

}  // namespace msehsim::manager
