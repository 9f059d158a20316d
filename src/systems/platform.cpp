#include "systems/platform.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "fault/schedule.hpp"
#include "storage/switched.hpp"

namespace msehsim::systems {

Platform::Platform(PlatformSpec spec) : spec_(std::move(spec)) {
  require_spec(!spec_.name.empty(), "Platform needs a name");
  require_spec(spec_.quiescent_current.value() >= 0.0,
               "Platform quiescent current must be >= 0");
}

std::size_t Platform::add_input(std::unique_ptr<power::InputChain> chain) {
  require_spec(chain != nullptr, "add_input: null chain");
  inputs_.push_back(std::move(chain));
  return inputs_.size() - 1;
}

std::size_t Platform::add_storage(std::unique_ptr<storage::StorageDevice> device,
                                  int priority) {
  require_spec(device != nullptr, "add_storage: null device");
  stores_.push_back(StorageSlot{std::move(device), priority, stores_.size()});
  // push_back may reallocate: rebuild the cached order from scratch.
  priority_order_.clear();
  priority_order_.reserve(stores_.size());
  for (auto& slot : stores_) priority_order_.push_back(&slot);
  std::stable_sort(priority_order_.begin(), priority_order_.end(),
                   [](const StorageSlot* a, const StorageSlot* b) {
                     return a->priority < b->priority;
                   });
  return stores_.size() - 1;
}

void Platform::set_output(power::OutputChain output) { output_.emplace(std::move(output)); }

void Platform::set_node(std::unique_ptr<node::SensorNode> node) {
  node_ = std::move(node);
}

void Platform::set_monitor(std::unique_ptr<manager::EnergyMonitor> monitor) {
  monitor_ = std::move(monitor);
}

void Platform::set_duty_cycle_controller(manager::DutyCycleController controller) {
  duty_controller_.emplace(controller);
}

void Platform::set_fuel_cell_policy(manager::FuelCellPolicy policy,
                                    std::size_t fuel_cell_slot) {
  require_spec(fuel_cell_slot < stores_.size(), "fuel cell slot out of range");
  require_spec(stores_[fuel_cell_slot].device->kind() ==
                   storage::StorageKind::kFuelCell,
               "fuel cell slot does not hold a fuel cell");
  fuel_cell_policy_.emplace(policy);
  fuel_cell_slot_ = fuel_cell_slot;
}

void Platform::set_failover_policy(manager::FailoverPolicy policy,
                                   std::size_t backup_slot) {
  require_spec(!backup_chain_.has_value(),
               "set_failover_policy: a backup chain already drives the switch");
  require_spec(backup_slot < stores_.size(), "failover backup slot out of range");
  require_spec(stores_[backup_slot].device->kind() ==
                   storage::StorageKind::kFuelCell,
               "failover backup slot does not hold a fuel cell");
  failover_policy_.emplace(policy);
  backup_slot_ = backup_slot;
}

void Platform::set_backup_chain(manager::BackupChain::Params params) {
  require_spec(!failover_policy_.has_value(),
               "set_backup_chain: a failover policy already drives the switch");
  // Resolve every stage's target up front so a bad spec leaves no chain.
  struct Binding {
    storage::FuelCell* cell{nullptr};
    storage::SwitchedStorage* switched{nullptr};
    node::SensorNode* node{nullptr};
  };
  std::vector<Binding> bindings;
  bindings.reserve(params.stages.size());
  for (const auto& sp : params.stages) {
    Binding b;
    switch (sp.kind) {
      case manager::BackupStageKind::kFuelCell: {
        require_spec(sp.storage_slot < stores_.size(),
                     "backup stage storage slot out of range");
        b.cell = dynamic_cast<storage::FuelCell*>(
            stores_[sp.storage_slot].device.get());
        require_spec(b.cell != nullptr,
                     "backup fuel-cell stage slot does not hold a FuelCell");
        break;
      }
      case manager::BackupStageKind::kSwitchedStorage: {
        require_spec(sp.storage_slot < stores_.size(),
                     "backup stage storage slot out of range");
        b.switched = dynamic_cast<storage::SwitchedStorage*>(
            stores_[sp.storage_slot].device.get());
        require_spec(
            b.switched != nullptr,
            "backup switched-storage stage slot does not hold a SwitchedStorage");
        break;
      }
      case manager::BackupStageKind::kLoadShed:
        require_spec(node_ != nullptr,
                     "backup load-shed stage requires a fitted node");
        b.node = node_.get();
        break;
    }
    bindings.push_back(b);
  }
  backup_chain_.emplace(std::move(params));
  for (std::size_t i = 0; i < bindings.size(); ++i)
    backup_chain_->bind_stage(i, bindings[i].cell, bindings[i].switched,
                              bindings[i].node);
}

void Platform::add_module_port(std::unique_ptr<bus::ModulePort> port) {
  require_spec(port != nullptr, "add_module_port: null port");
  i2c_.attach(*port);
  ports_.push_back(std::move(port));
}

const std::vector<Platform::StorageSlot*>& Platform::by_priority() {
  // Rebuilt by add_storage; slot swaps (hot-swap) keep the pointers valid.
  return priority_order_;
}

Volts Platform::bus_voltage() const {
  return bus_voltage_with(GenericStepOps{});
}

Volts Platform::rail_voltage() const {
  return output_.has_value() ? output_->rail_voltage() : Volts{0.0};
}

double Platform::ambient_soc() const {
  double stored = 0.0;
  double capacity = 0.0;
  for (const auto& slot : stores_) {
    if (!slot.device->rechargeable()) continue;
    stored += slot.device->stored_energy().value();
    capacity += slot.device->capacity().value();
  }
  return capacity > 0.0 ? stored / capacity : 0.0;
}

Joules Platform::total_stored() const {
  Joules total{0.0};
  for (const auto& slot : stores_) total += slot.device->stored_energy();
  return total;
}

Joules Platform::harvested_energy() const {
  Joules total{0.0};
  for (const auto& chain : inputs_) total += chain->delivered_energy();
  return total;
}

void Platform::management_tick(Seconds now) {
  if (monitor_ != nullptr) last_estimate_ = monitor_->estimate();
  if (node_ != nullptr && duty_controller_.has_value())
    duty_controller_->update(last_estimate_, *node_);
  // One driver per switch: the backup chain supersedes both single-stage
  // policies, and the failover policy subsumes the plain SoC hysteresis (it
  // carries its own SoC window); running two would have them fight.
  if (backup_chain_.has_value()) {
    // After the duty controller, so an engaged load-shed stage wins the
    // period decision.
    backup_chain_->update(now, last_input_power_, ambient_soc());
    return;
  }
  if (fuel_cell_policy_.has_value() && !failover_policy_.has_value()) {
    auto* cell = dynamic_cast<storage::FuelCell*>(stores_[fuel_cell_slot_].device.get());
    if (cell != nullptr) fuel_cell_policy_->update(ambient_soc(), *cell);
  }
  if (failover_policy_.has_value()) {
    auto* cell = dynamic_cast<storage::FuelCell*>(stores_[backup_slot_].device.get());
    if (cell != nullptr)
      failover_policy_->update(now, last_input_power_, ambient_soc(), *cell);
  }
}

fault::ScheduleTargets Platform::fault_targets() {
  fault::ScheduleTargets targets;
  targets.inputs.reserve(inputs_.size());
  for (auto& chain : inputs_) targets.inputs.push_back(chain.get());
  targets.stores.reserve(stores_.size());
  for (auto& slot : stores_) targets.stores.push_back(slot.device.get());
  targets.bus = &i2c_;
  targets.node = node_.get();
  return targets;
}

std::unique_ptr<storage::StorageDevice> Platform::swap_storage(
    std::size_t slot, std::unique_ptr<storage::StorageDevice> replacement,
    std::unique_ptr<bus::ModulePort> new_port, std::uint8_t old_port_address) {
  require_spec(slot < stores_.size(), "swap_storage: slot out of range");
  require_spec(replacement != nullptr, "swap_storage: null replacement");
  std::swap(stores_[slot].device, replacement);
  if (old_port_address != 0) {
    i2c_.detach(old_port_address);
    std::erase_if(ports_, [old_port_address](const auto& p) {
      return p->address() == old_port_address;
    });
  }
  if (new_port != nullptr) {
    add_module_port(std::move(new_port));
    // A self-announcing module lets capable monitors re-recognize hardware.
    if (monitor_ != nullptr) monitor_->notify_hardware_change();
  }
  return replacement;
}

taxonomy::Classification Platform::classify() const {
  taxonomy::Classification c;
  c.device_name = spec_.name;
  c.reference = spec_.reference;
  c.commercial = spec_.commercial;
  c.conditioning = spec_.conditioning;
  c.swappability = spec_.swappability;
  c.intelligence = spec_.intelligence;
  c.digital_interface = spec_.digital_interface;
  c.swappable_sensor_node = spec_.swappable_sensor_node;
  c.swappable_storage = spec_.swappable_storage_desc;
  c.swappable_harvesters = spec_.swappable_harvesters_desc;
  c.quiescent_current = spec_.quiescent_current;
  c.quiescent_is_bound = spec_.quiescent_is_bound;
  c.shared_ports = spec_.shared_ports;
  c.harvester_count = static_cast<int>(inputs_.size());
  c.storage_count = static_cast<int>(stores_.size());

  for (const auto& chain : inputs_) {
    const auto kind = chain->harvester().kind();
    if (std::find(c.harvester_kinds.begin(), c.harvester_kinds.end(), kind) ==
        c.harvester_kinds.end()) {
      c.harvester_kinds.push_back(kind);
      c.harvester_types.emplace_back(harvest::to_string(kind));
    }
    if (chain->mppt().adaptive()) c.uses_mppt = true;
  }
  for (const auto& slot : stores_) {
    const auto kind = slot.device->kind();
    if (std::find(c.storage_kinds.begin(), c.storage_kinds.end(), kind) ==
        c.storage_kinds.end()) {
      c.storage_kinds.push_back(kind);
      c.storage_types.emplace_back(storage::to_string(kind));
    }
  }

  switch (monitor_ != nullptr ? monitor_->capability()
                              : taxonomy::MonitoringCapability::kNone) {
    case taxonomy::MonitoringCapability::kNone:
      c.monitoring = taxonomy::MonitoringCapability::kNone;
      c.energy_monitoring = "No";
      break;
    case taxonomy::MonitoringCapability::kStoreVoltageOnly:
      c.monitoring = taxonomy::MonitoringCapability::kStoreVoltageOnly;
      c.energy_monitoring = "Limited";
      break;
    case taxonomy::MonitoringCapability::kActivityFlags:
      c.monitoring = taxonomy::MonitoringCapability::kActivityFlags;
      c.energy_monitoring = "Yes";
      break;
    case taxonomy::MonitoringCapability::kFull:
      c.monitoring = taxonomy::MonitoringCapability::kFull;
      c.energy_monitoring = "Yes";
      break;
  }
  return c;
}

}  // namespace msehsim::systems
