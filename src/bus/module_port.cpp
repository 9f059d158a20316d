#include "bus/module_port.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/error.hpp"

namespace msehsim::bus {

ModulePort::ModulePort(std::uint8_t address, const ElectronicDatasheet& datasheet,
                       Telemetry telemetry)
    : address_(address), eeprom_(datasheet.encode()), telemetry_(std::move(telemetry)) {
  require_spec(eeprom_.size() == ElectronicDatasheet::kEncodedSize,
               "ModulePort: bad datasheet image");
}

std::uint32_t ModulePort::live_u32(std::uint8_t base_reg) const {
  auto to_u32 = [](double v) {
    return static_cast<std::uint32_t>(
        std::clamp(std::llround(v), 0LL, 0xFFFFFFFFLL));
  };
  switch (base_reg) {
    case kRegPowerUw:
      return telemetry_.output_power ? to_u32(telemetry_.output_power().value() * 1e6)
                                     : 0u;
    case kRegEnergyMj:
      return telemetry_.stored_energy
                 ? to_u32(telemetry_.stored_energy().value() * 1e3)
                 : 0u;
    case kRegVoltageMv:
      return telemetry_.terminal_voltage
                 ? to_u32(telemetry_.terminal_voltage().value() * 1e3)
                 : 0u;
    default:
      return 0u;
  }
}

namespace {

/// Base register of the live u32 field holding @p reg, or 0 if none does
/// (the three fields are contiguous, 4 bytes each, from kRegPowerUw).
std::uint8_t live_field_base(std::uint8_t reg) {
  if (reg < ModulePort::kRegPowerUw || reg >= ModulePort::kRegVoltageMv + 4) return 0;
  return static_cast<std::uint8_t>(reg - (reg - ModulePort::kRegPowerUw) % 4);
}

}  // namespace

std::optional<std::uint8_t> ModulePort::read_register(std::uint8_t reg) {
  if (reg < ElectronicDatasheet::kEncodedSize) return eeprom_[reg];
  if (reg == kRegStatus)
    return static_cast<std::uint8_t>(telemetry_.active && telemetry_.active() ? 1 : 0);
  if (const std::uint8_t base = live_field_base(reg); base != 0)
    return static_cast<std::uint8_t>(live_u32(base) >> (8 * (reg - base)));
  if (reg == kRegControl) return control_;
  return std::nullopt;
}

std::size_t ModulePort::read_block(std::uint8_t start, std::uint8_t* out,
                                   std::size_t count) {
  std::size_t i = 0;
  while (i < count) {
    const auto reg = static_cast<std::uint8_t>(start + i);
    const std::uint8_t base = live_field_base(reg);
    if (base == 0) {
      const auto value = read_register(reg);
      if (!value) return i;
      out[i++] = *value;
      continue;
    }
    const std::uint32_t field = live_u32(base);
    for (int b = reg - base; b < 4 && i < count; ++b)
      out[i++] = static_cast<std::uint8_t>(field >> (8 * b));
  }
  return count;
}

bool ModulePort::write_register(std::uint8_t reg, std::uint8_t value) {
  if (reg == kRegControl) {
    control_ = value;
    if (telemetry_.set_enabled) telemetry_.set_enabled((value & 1) != 0);
    return true;
  }
  return false;  // datasheet EEPROM and telemetry are read-only over the bus
}

std::optional<ElectronicDatasheet> read_datasheet(I2cBus& bus, std::uint8_t address) {
  const auto raw = bus.read(address, ModulePort::kRegDatasheet,
                            ElectronicDatasheet::kEncodedSize);
  if (!raw) return std::nullopt;
  return ElectronicDatasheet::decode(*raw);
}

std::optional<std::uint32_t> read_live_u32(I2cBus& bus, std::uint8_t address,
                                           std::uint8_t base_reg) {
  std::array<std::uint8_t, 4> raw;
  if (!bus.read_into(address, base_reg, raw.data(), raw.size())) return std::nullopt;
  return static_cast<std::uint32_t>(raw[0]) |
         (static_cast<std::uint32_t>(raw[1]) << 8) |
         (static_cast<std::uint32_t>(raw[2]) << 16) |
         (static_cast<std::uint32_t>(raw[3]) << 24);
}

}  // namespace msehsim::bus
