#include "bus/i2c.hpp"

#include "core/error.hpp"

namespace msehsim::bus {

void I2cBus::attach(I2cSlave& slave) {
  const auto [it, inserted] = slaves_.emplace(slave.address(), &slave);
  (void)it;
  require_spec(inserted, "I2C address collision");
}

void I2cBus::detach(std::uint8_t address) { slaves_.erase(address); }

bool I2cBus::present(std::uint8_t address) const {
  return slaves_.contains(address);
}

void I2cBus::inject_nak_burst(std::uint32_t transactions) {
  nak_burst_remaining_ += transactions;
}

void I2cBus::set_bit_error_rate(double rate) {
  require_spec(rate >= 0.0 && rate <= 1.0, "I2C bit-error rate must be in [0,1]");
  bit_error_rate_ = rate;
}

void I2cBus::set_stuck(bool stuck) { stuck_ = stuck; }

bool I2cBus::injected_failure() {
  if (stuck_) {
    ++transactions_;
    ++naks_;
    ++fault_hits_;
    return true;
  }
  if (nak_burst_remaining_ > 0) {
    --nak_burst_remaining_;
    ++transactions_;
    ++naks_;
    ++fault_hits_;
    return true;
  }
  return false;
}

std::uint8_t I2cBus::corrupt(std::uint8_t value) {
  if (bit_error_rate_ <= 0.0 || !fault_rng_.bernoulli(bit_error_rate_)) return value;
  ++fault_hits_;
  return value ^ static_cast<std::uint8_t>(1u << fault_rng_.next_below(8));
}

std::size_t I2cSlave::read_block(std::uint8_t start, std::uint8_t* out,
                                std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto value = read_register(static_cast<std::uint8_t>(start + i));
    if (!value) return i;
    out[i] = *value;
  }
  return count;
}

bool I2cBus::read_into(std::uint8_t address, std::uint8_t start_register,
                       std::uint8_t* out, std::size_t count) {
  if (injected_failure()) return false;
  const auto it = slaves_.find(address);
  if (it == slaves_.end()) {
    ++transactions_;
    ++naks_;
    return false;
  }
  // Bytes delivered before a mid-burst NAK are still clocked and exposed to
  // bit errors, in register order.
  const std::size_t delivered = it->second->read_block(start_register, out, count);
  for (std::size_t i = 0; i < delivered; ++i) out[i] = corrupt(out[i]);
  ++transactions_;
  if (delivered < count) {
    ++naks_;
    return false;
  }
  return true;
}

std::optional<std::vector<std::uint8_t>> I2cBus::read(std::uint8_t address,
                                                      std::uint8_t start_register,
                                                      std::size_t count) {
  std::vector<std::uint8_t> out(count);
  if (!read_into(address, start_register, out.data(), count)) return std::nullopt;
  return out;
}

bool I2cBus::write(std::uint8_t address, std::uint8_t start_register,
                   const std::vector<std::uint8_t>& data) {
  if (injected_failure()) return false;
  const auto it = slaves_.find(address);
  if (it == slaves_.end()) {
    ++transactions_;
    ++naks_;
    return false;
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!it->second->write_register(static_cast<std::uint8_t>(start_register + i),
                                    corrupt(data[i]))) {
      ++transactions_;
      ++naks_;
      return false;
    }
  }
  ++transactions_;
  return true;
}

std::vector<std::uint8_t> I2cBus::scan() const {
  std::vector<std::uint8_t> out;
  if (stuck_) return out;  // nothing ACKs while the bus is held low
  out.reserve(slaves_.size());
  for (const auto& [addr, slave] : slaves_) {
    (void)slave;
    out.push_back(addr);
  }
  return out;
}

}  // namespace msehsim::bus
