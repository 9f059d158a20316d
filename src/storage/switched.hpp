// Gated storage module — a store behind a manager-controlled switch.
//
// System B's hot-swap bays and System A's auxiliary reserves put a power
// switch between the cell and the energy bus: the chemistry is always
// present (and always self-discharging), but it neither charges nor feeds
// the bus until the energy manager closes the switch. This decorator wraps
// any StorageDevice with that gate so a prioritized backup chain
// (manager::BackupChain) can hold a primary lithium cell in reserve the way
// FuelCell::set_enabled holds the hydrogen stack.
#pragma once

#include <memory>

#include "storage/storage.hpp"

namespace msehsim::storage {

class SwitchedStorage final : public StorageDevice {
 public:
  /// Takes ownership of @p inner; the switch starts @p connected (default
  /// open — a reserve waits for the manager).
  explicit SwitchedStorage(std::unique_ptr<StorageDevice> inner,
                           bool connected = false);

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] StorageKind kind() const override { return inner_->kind(); }
  [[nodiscard]] bool rechargeable() const override {
    return inner_->rechargeable();
  }
  [[nodiscard]] Volts voltage() const override { return inner_->voltage(); }
  [[nodiscard]] Joules stored_energy() const override {
    return inner_->stored_energy();
  }
  [[nodiscard]] Joules capacity() const override { return inner_->capacity(); }

  /// Bus-facing flows pass only while the switch is closed.
  Watts charge(Watts power, Seconds dt) override;
  Watts discharge(Watts power, Seconds dt) override;
  [[nodiscard]] Watts max_discharge_power() const override;

  /// Chemistry leaks whether gated or not.
  void apply_leakage(Seconds dt) override { inner_->apply_leakage(dt); }

  void inject_capacity_fade(double fraction) override {
    inner_->inject_capacity_fade(fraction);
  }
  void set_leakage_multiplier(double multiplier) override {
    inner_->set_leakage_multiplier(multiplier);
  }
  [[nodiscard]] double leakage_multiplier() const override {
    return inner_->leakage_multiplier();
  }

  /// The manager's gate: a disconnected store delivers and accepts nothing.
  void set_connected(bool connected) {
    if (connected && !connected_) ++connect_count_;
    connected_ = connected;
  }

  /// Times the switch was closed.
  [[nodiscard]] std::uint64_t connect_count() const { return connect_count_; }

  [[nodiscard]] StorageDevice& inner() { return *inner_; }
  [[nodiscard]] const StorageDevice& inner() const { return *inner_; }

 private:
  std::unique_ptr<StorageDevice> inner_;
  bool connected_{false};
  std::uint64_t connect_count_{0};
};

}  // namespace msehsim::storage
