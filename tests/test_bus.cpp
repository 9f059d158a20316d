// I2C emulation and ADC sense lines.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "bus/i2c.hpp"
#include "bus/module_port.hpp"
#include "bus/sense.hpp"
#include "core/error.hpp"

namespace msehsim::bus {
namespace {

/// Simple RAM-backed slave for protocol tests.
class RamSlave final : public I2cSlave {
 public:
  explicit RamSlave(std::uint8_t address) : address_(address) {}

  [[nodiscard]] std::uint8_t address() const override { return address_; }
  std::optional<std::uint8_t> read_register(std::uint8_t reg) override {
    if (reg >= 16) return std::nullopt;
    return ram_[reg];
  }
  bool write_register(std::uint8_t reg, std::uint8_t value) override {
    if (reg >= 16) return false;
    ram_[reg] = value;
    return true;
  }

 private:
  std::uint8_t address_;
  std::uint8_t ram_[16] = {};
};

TEST(I2cBus, ReadWriteRoundTrip) {
  I2cBus bus;
  RamSlave dev(0x42);
  bus.attach(dev);
  EXPECT_TRUE(bus.write(0x42, 0, {1, 2, 3}));
  const auto got = bus.read(0x42, 0, 3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 1);
  EXPECT_EQ((*got)[2], 3);
  EXPECT_EQ(bus.transactions(), 2u);  // one per burst, not one per byte
}

TEST(I2cBus, AbsentAddressNaks) {
  I2cBus bus;
  EXPECT_FALSE(bus.read(0x50, 0, 1).has_value());
  EXPECT_FALSE(bus.write(0x50, 0, {1}));
  EXPECT_EQ(bus.nak_count(), 2u);
}

TEST(I2cBus, InvalidRegisterNaksMidBurst) {
  I2cBus bus;
  RamSlave dev(0x42);
  bus.attach(dev);
  EXPECT_FALSE(bus.read(0x42, 14, 4).has_value());  // runs past register 15
  EXPECT_FALSE(bus.write(0x42, 15, {1, 2}));
}

TEST(I2cBus, AddressCollisionRejected) {
  I2cBus bus;
  RamSlave a(0x42);
  RamSlave b(0x42);
  bus.attach(a);
  EXPECT_THROW(bus.attach(b), msehsim::SpecError);
}

TEST(I2cBus, DetachMakesAddressNak) {
  I2cBus bus;
  RamSlave dev(0x42);
  bus.attach(dev);
  EXPECT_TRUE(bus.present(0x42));
  bus.detach(0x42);
  EXPECT_FALSE(bus.present(0x42));
  EXPECT_FALSE(bus.read(0x42, 0, 1).has_value());
}

TEST(I2cBus, DetachAbsentIsNoOp) {
  I2cBus bus;
  bus.detach(0x01);  // hot-unplug of an empty socket
  EXPECT_FALSE(bus.present(0x01));
}

TEST(I2cBus, ScanListsAddressesAscending) {
  I2cBus bus;
  RamSlave a(0x30);
  RamSlave b(0x10);
  RamSlave c(0x20);
  bus.attach(a);
  bus.attach(b);
  bus.attach(c);
  const auto found = bus.scan();
  ASSERT_EQ(found.size(), 3u);
  EXPECT_EQ(found[0], 0x10);
  EXPECT_EQ(found[1], 0x20);
  EXPECT_EQ(found[2], 0x30);
}

/// Forwards register reads and writes to a ModulePort but keeps the
/// default, one-register-at-a-time I2cSlave::read_block.
class PerRegisterSlave final : public I2cSlave {
 public:
  explicit PerRegisterSlave(ModulePort& port) : port_(&port) {}

  [[nodiscard]] std::uint8_t address() const override { return port_->address(); }
  std::optional<std::uint8_t> read_register(std::uint8_t reg) override {
    return port_->read_register(reg);
  }
  bool write_register(std::uint8_t reg, std::uint8_t value) override {
    return port_->write_register(reg, value);
  }

 private:
  ModulePort* port_;
};

TEST(I2cBus, BlockReadMatchesPerRegisterReads) {
  // ModulePort's block read evaluates each live field once; the bus must
  // still deliver, count, NAK-count and corrupt every byte exactly as the
  // per-register path does: same bytes, same transactions, same fault
  // stream.
  double power = 1.25e-3;
  double energy = 40.0;
  double voltage = 3.3;
  ModulePort::Telemetry t;
  t.active = [&] { return power > 1e-3; };
  t.output_power = [&] { return Watts{power}; };
  t.stored_energy = [&] { return Joules{energy}; };
  t.terminal_voltage = [&] { return Volts{voltage}; };
  ElectronicDatasheet ds;
  ds.device_class = DeviceClass::kStorage;
  ds.model = "SC";
  ds.capacity = Joules{120.0};
  ModulePort block(0x10, ds, t);
  ModulePort inner(0x10, ds, t);
  PerRegisterSlave per_register(inner);
  I2cBus block_bus;
  I2cBus per_register_bus;
  block_bus.attach(block);
  per_register_bus.attach(per_register);

  struct Read {
    std::uint8_t start;
    std::size_t count;
  };
  // Whole fields, unaligned spans across fields, datasheet-to-telemetry
  // spans, a read that NAKs mid-burst at the unmapped 0x4D, one that runs
  // past the control register, and an absent address.
  const std::vector<Read> reads = {
      {ModulePort::kRegPowerUw, 4}, {ModulePort::kRegEnergyMj, 4},
      {ModulePort::kRegVoltageMv, 4}, {0x43, 5}, {0x42, 11}, {0x3C, 17},
      {0x00, 64}, {0x4A, 8}, {ModulePort::kRegControl, 2}, {0x40, 13}};
  const auto run_all = [&](const char* phase) {
    for (const auto& r : reads) {
      for (const std::uint8_t address : {std::uint8_t{0x10}, std::uint8_t{0x11}}) {
        std::array<std::uint8_t, 80> got_block{};
        std::array<std::uint8_t, 80> got_per_register{};
        const bool ok_block =
            block_bus.read_into(address, r.start, got_block.data(), r.count);
        const bool ok_per_register = per_register_bus.read_into(
            address, r.start, got_per_register.data(), r.count);
        const auto where = std::string(phase) + " start=" + std::to_string(r.start) +
                           " count=" + std::to_string(r.count) +
                           " address=" + std::to_string(address);
        EXPECT_EQ(ok_block, ok_per_register) << where;
        EXPECT_EQ(got_block, got_per_register) << where;
        EXPECT_EQ(block_bus.transactions(), per_register_bus.transactions()) << where;
        EXPECT_EQ(block_bus.nak_count(), per_register_bus.nak_count()) << where;
        EXPECT_EQ(block_bus.fault_hits(), per_register_bus.fault_hits()) << where;
      }
      // Live telemetry moves between transactions on both sides alike.
      power *= 1.37;
      energy -= 0.731;
      voltage += 0.0123;
    }
  };

  run_all("clean");
  block_bus.set_bit_error_rate(0.02);
  per_register_bus.set_bit_error_rate(0.02);
  for (int round = 0; round < 20; ++round) run_all("bit errors");
  EXPECT_GT(block_bus.fault_hits(), 0u);
  block_bus.inject_nak_burst(7);
  per_register_bus.inject_nak_burst(7);
  run_all("NAK burst");

  // The mid-burst NAK happened, and the successful reads decoded alike.
  EXPECT_GT(block_bus.nak_count(), 7u);
  EXPECT_EQ(read_live_u32(block_bus, 0x10, ModulePort::kRegEnergyMj),
            read_live_u32(per_register_bus, 0x10, ModulePort::kRegEnergyMj));
}

TEST(AdcLine, QuantizesToLsb) {
  AdcLine::Params p;
  p.bits = 10;
  p.full_scale = Volts{3.3};
  p.noise_lsb = 0.0;
  AdcLine adc(p, 1);
  const double lsb = adc.lsb().value();
  const Volts got = adc.sample(Volts{1.234});
  EXPECT_NEAR(got.value(), 1.234, lsb);
  // Quantized output is an integer multiple of the LSB.
  const double code = got.value() / lsb;
  EXPECT_NEAR(code, std::round(code), 1e-9);
}

TEST(AdcLine, ClampsToFullScale) {
  AdcLine::Params p;
  p.noise_lsb = 0.0;
  AdcLine adc(p, 2);
  EXPECT_LE(adc.sample(Volts{10.0}).value(), p.full_scale.value());
  EXPECT_GE(adc.sample(Volts{-2.0}).value(), 0.0);
}

TEST(AdcLine, NoiseBoundedByConfiguredLsbs) {
  AdcLine::Params p;
  p.bits = 12;
  p.noise_lsb = 1.0;
  AdcLine adc(p, 4);
  const double lsb = adc.lsb().value();
  double worst = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double err = std::fabs(adc.sample(Volts{1.65}).value() - 1.65);
    worst = std::max(worst, err);
  }
  EXPECT_LT(worst, 6.0 * lsb);  // 5-sigma plus quantization
}

TEST(AdcLine, HigherResolutionSmallerError) {
  AdcLine::Params coarse;
  coarse.bits = 6;
  coarse.noise_lsb = 0.0;
  AdcLine::Params fine;
  fine.bits = 14;
  fine.noise_lsb = 0.0;
  AdcLine a(coarse, 5);
  AdcLine b(fine, 5);
  const double err_a = std::fabs(a.sample(Volts{1.111}).value() - 1.111);
  const double err_b = std::fabs(b.sample(Volts{1.111}).value() - 1.111);
  EXPECT_LT(err_b, err_a);
}

TEST(AdcLine, RejectsBadSpecs) {
  AdcLine::Params p;
  p.bits = 0;
  EXPECT_THROW(AdcLine(p, 1), msehsim::SpecError);
  AdcLine::Params q;
  q.full_scale = Volts{0.0};
  EXPECT_THROW(AdcLine(q, 1), msehsim::SpecError);
}

}  // namespace
}  // namespace msehsim::bus
