// I2C bus emulation.
//
// Survey Sec. II.3: System A's power-unit microcontroller "communicates via
// an I2C bus, allowing the energy status to be monitored and controlled";
// System B modules "communicate via a digital interface to the embedded
// system". The emulation models the protocol-visible behaviour — addressed
// register reads/writes, NAK for absent devices — and counts transactions.
// The energy the bus traffic costs is not modelled: no rail draws it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/random.hpp"

namespace msehsim::bus {

/// A device that answers on the bus.
class I2cSlave {
 public:
  virtual ~I2cSlave() = default;

  [[nodiscard]] virtual std::uint8_t address() const = 0;
  /// Register read; returns nullopt to NAK an invalid register.
  virtual std::optional<std::uint8_t> read_register(std::uint8_t reg) = 0;
  /// Register write; returns false to NAK.
  virtual bool write_register(std::uint8_t reg, std::uint8_t value) = 0;

  /// Burst read of @p count registers from @p start into @p out; returns how
  /// many were read before the first NAK (== @p count when none NAKs). The
  /// default reads one register at a time; a slave may override it to
  /// evaluate a multi-byte field once instead of once per byte, provided
  /// the bytes are the ones read_register would return.
  virtual std::size_t read_block(std::uint8_t start, std::uint8_t* out,
                                 std::size_t count);
};

class I2cBus {
 public:
  /// Seeds the bit-error stream (src/fault); consumed only while a nonzero
  /// bit-error rate is active, so fault-free runs are unaffected by it.
  static constexpr std::uint64_t kFaultSeed = 0x12c;

  /// Attaches @p slave (non-owning). Throws SpecError on address collision.
  void attach(I2cSlave& slave);

  /// Detaches whatever answers at @p address; no-op if absent (hot-unplug).
  void detach(std::uint8_t address);

  [[nodiscard]] bool present(std::uint8_t address) const;

  /// Burst register read. nullopt if the address NAKs (absent device) or a
  /// register NAKs mid-burst.
  std::optional<std::vector<std::uint8_t>> read(std::uint8_t address,
                                                std::uint8_t start_register,
                                                std::size_t count);

  /// read() into caller storage (no allocation): fills @p out[0, count) and
  /// returns true, or returns false on a NAK. Counts the transaction and
  /// NAKs, and corrupts each delivered byte, exactly as read() does.
  bool read_into(std::uint8_t address, std::uint8_t start_register,
                 std::uint8_t* out, std::size_t count);

  /// Burst register write; false on NAK.
  bool write(std::uint8_t address, std::uint8_t start_register,
             const std::vector<std::uint8_t>& data);

  /// Addresses that currently ACK, ascending (bus scan).
  [[nodiscard]] std::vector<std::uint8_t> scan() const;

  [[nodiscard]] std::uint64_t transactions() const { return transactions_; }
  [[nodiscard]] std::uint64_t nak_count() const { return naks_; }

  // ---- Fault injection (src/fault) ---------------------------------------
  // Runtime bus anomalies are modelled behaviour (core/error.hpp): injected
  // faults surface as NAKs and corrupted payloads through the normal return
  // paths, never as exceptions.

  /// The next @p transactions read/write calls NAK regardless of target
  /// (EMI burst, contention). Cumulative with any burst still pending.
  void inject_nak_burst(std::uint32_t transactions);

  /// Each transferred payload byte is corrupted (one bit flipped) with
  /// probability @p rate, drawn from the bus's seeded fault stream. Reads
  /// deliver the corrupted byte; writes store it. Zero disables.
  void set_bit_error_rate(double rate);

  /// Holds the bus electrically stuck: every transaction fails until
  /// released. Models a slave clamping SDA low.
  void set_stuck(bool stuck);
  [[nodiscard]] bool stuck() const { return stuck_; }

  /// Transactions NAKed and bytes corrupted by injected faults.
  [[nodiscard]] std::uint64_t fault_hits() const { return fault_hits_; }

 private:
  /// True if an injected condition (stuck bus / NAK burst) fails this
  /// transaction; consumes one burst token and books the NAK.
  bool injected_failure();
  [[nodiscard]] std::uint8_t corrupt(std::uint8_t value);

  std::map<std::uint8_t, I2cSlave*> slaves_;
  std::uint64_t transactions_{0};
  std::uint64_t naks_{0};
  std::uint32_t nak_burst_remaining_{0};
  double bit_error_rate_{0.0};
  bool stuck_{false};
  std::uint64_t fault_hits_{0};
  Pcg32 fault_rng_{kFaultSeed, stream_key("i2c.fault")};
};

}  // namespace msehsim::bus
