// Platform — a complete multi-source energy harvesting system.
//
// A Platform assembles the substrate layers exactly the way Figs. 1 and 2
// of the survey wire their block diagrams: input chains (harvester +
// operating-point control + converter) feed a storage bank over an energy
// bus; an output chain regulates a rail for the sensor node; managers
// (monitor, duty-cycle controller, fuel-cell policy) observe and steer.
//
// The per-step power flow is quasi-static: the storage bank's front store
// sets the bus voltage; surplus bus power charges stores in priority
// order, deficits discharge them in priority order, and an unserviceable
// deficit latches a brownout that drops the rail on the next step.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/i2c.hpp"
#include "bus/module_port.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "env/conditions.hpp"
#include "manager/backup_chain.hpp"
#include "manager/monitor.hpp"
#include "manager/policies.hpp"
#include "node/sensor_node.hpp"
#include "power/chain.hpp"
#include "storage/fuel_cell.hpp"
#include "storage/storage.hpp"
#include "taxonomy/taxonomy.hpp"

namespace msehsim::fault {
struct ScheduleTargets;
}  // namespace msehsim::fault

namespace msehsim::systems {

/// Structural facts that describe a platform's position in the taxonomy —
/// things that are properties of the *board*, not of the running model.
struct PlatformSpec {
  std::string name;
  std::string reference;
  bool commercial{false};
  taxonomy::ConditioningLocation conditioning{
      taxonomy::ConditioningLocation::kPowerUnit};
  taxonomy::Swappability swappability{taxonomy::Swappability::kFixed};
  taxonomy::IntelligenceLocation intelligence{taxonomy::IntelligenceLocation::kNone};
  bool digital_interface{false};
  bool swappable_sensor_node{false};
  bool shared_ports{false};
  std::string swappable_storage_desc{"No"};
  std::string swappable_harvesters_desc{"No"};
  /// Power-unit overhead current (Table I row), drawn from the bus always.
  Amps quiescent_current{0.0};
  bool quiescent_is_bound{false};
};

/// Dispatch policy for Platform::step_with, and the one step() runs: every
/// component call goes through the abstract interface. The per-call slot or
/// chain index is there for derived policies that observe the step (a
/// recorder logging the storage flows, say); this policy ignores it.
struct GenericStepOps {
  Watts chain_step(std::size_t /*chain*/, power::InputChain& chain,
                   const env::AmbientConditions& c, Volts bus_v, Seconds now,
                   Seconds dt) const {
    return chain.step(c, bus_v, now, dt);
  }
  storage::StorageKind kind(std::size_t /*slot*/,
                            const storage::StorageDevice& d) const {
    return d.kind();
  }
  Volts voltage(std::size_t /*slot*/, const storage::StorageDevice& d) const {
    return d.voltage();
  }
  Watts max_discharge_power(std::size_t /*slot*/,
                            const storage::StorageDevice& d) const {
    return d.max_discharge_power();
  }
  Watts charge(std::size_t /*slot*/, storage::StorageDevice& d, Watts p,
               Seconds dt) const {
    return d.charge(p, dt);
  }
  Watts discharge(std::size_t /*slot*/, storage::StorageDevice& d, Watts p,
                  Seconds dt) const {
    return d.discharge(p, dt);
  }
  void apply_leakage(std::size_t /*slot*/, storage::StorageDevice& d,
                     Seconds dt) const {
    d.apply_leakage(dt);
  }
  /// The refill pass asks every slot every step; the kind() test keeps the
  /// dynamic_cast off the slots that cannot be a cell.
  storage::FuelCell* fuel_cell(std::size_t /*slot*/,
                               storage::StorageDevice& d) const {
    if (d.kind() != storage::StorageKind::kFuelCell) return nullptr;
    return dynamic_cast<storage::FuelCell*>(&d);
  }
};

class Platform {
 public:
  explicit Platform(PlatformSpec spec);

  // Monitors and module ports hold pointers into this object (the I2C bus
  // lives by value), so a Platform must stay put: build it behind a
  // unique_ptr, as the catalog builders do.
  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;
  Platform(Platform&&) = delete;
  Platform& operator=(Platform&&) = delete;

  // ---- Assembly -----------------------------------------------------------

  /// Adds an input conditioning chain; returns its index.
  std::size_t add_input(std::unique_ptr<power::InputChain> chain);

  /// Adds a storage device; lower @p priority discharges (and charges)
  /// first. Returns the slot index.
  std::size_t add_storage(std::unique_ptr<storage::StorageDevice> device,
                          int priority);

  void set_output(power::OutputChain output);
  void set_node(std::unique_ptr<node::SensorNode> node);
  void set_monitor(std::unique_ptr<manager::EnergyMonitor> monitor);
  void set_duty_cycle_controller(manager::DutyCycleController controller);
  /// @p fuel_cell_slot index of the FuelCell in the storage bank.
  void set_fuel_cell_policy(manager::FuelCellPolicy policy,
                            std::size_t fuel_cell_slot);
  /// Failover to the backup store when the primary (ambient) sources die —
  /// e.g. under injected harvester faults — not merely when SoC is low.
  /// Takes precedence over set_fuel_cell_policy (its SoC window subsumes
  /// the plain hysteresis; only one policy drives the switch).
  /// @p backup_slot index of the FuelCell acting as the backup source.
  void set_failover_policy(manager::FailoverPolicy policy,
                           std::size_t backup_slot);
  [[nodiscard]] const manager::FailoverPolicy* failover_policy() const {
    return failover_policy_.has_value() ? &*failover_policy_ : nullptr;
  }

  /// Prioritized multi-stage backup (fuel cell -> reserve cell -> load
  /// shed), the generalization of set_failover_policy. Each stage's
  /// storage_slot must hold a device of the matching type (FuelCell /
  /// SwitchedStorage); a load-shed stage requires the node to be fitted.
  /// Mutually exclusive with set_failover_policy, and while a chain is set
  /// it also supersedes set_fuel_cell_policy (one driver per switch).
  void set_backup_chain(manager::BackupChain::Params params);
  [[nodiscard]] const manager::BackupChain* backup_chain() const {
    return backup_chain_.has_value() ? &*backup_chain_ : nullptr;
  }

  /// The platform's module bus (System B sockets, System A telemetry).
  [[nodiscard]] bus::I2cBus& i2c() { return i2c_; }

  /// Registers a plug-and-play port on the bus; the platform owns it.
  void add_module_port(std::unique_ptr<bus::ModulePort> port);

  // ---- Simulation ---------------------------------------------------------

  /// Advances the electrical state one step under @p conditions.
  void step(const env::AmbientConditions& conditions, Seconds now, Seconds dt) {
    step_with(GenericStepOps{}, conditions, now, dt);
  }

  /// Body of step(), parameterized on the component-dispatch policy (see
  /// GenericStepOps). A policy may observe each component call; the
  /// statement sequence, iteration order, and every floating-point operation
  /// are the same for all policies.
  template <typename Ops>
  void step_with(const Ops& ops, const env::AmbientConditions& conditions,
                 Seconds now, Seconds dt) {
    const Volts bus_v = bus_voltage_with(ops);

    // 1. Input chains deliver into the bus.
    Watts p_in{0.0};
    for (std::size_t i = 0; i < inputs_.size(); ++i)
      p_in += ops.chain_step(i, *inputs_[i], conditions, bus_v, now, dt);
    last_input_power_ = p_in;

    // 2. Power-unit overhead (monitoring MCU, gating logic — the Table I
    //    quiescent row).
    const Watts p_q = bus_v * spec_.quiescent_current;
    quiescent_energy_ += p_q * dt;

    // 3. Load: decide whether the rail is up, then let the node draw.
    Watts p_bus_load{0.0};
    if (node_ != nullptr && output_.has_value()) {
      const bool rail_feasible =
          output_->rail_available(bus_v) && !brownout_latch_;
      Watts supply_cap = p_in;
      for (const auto& slot : stores_)
        supply_cap += ops.max_discharge_power(slot.index, *slot.device);
      const Watts avg_rail =
          rail_feasible ? node_->average_power(output_->rail_voltage())
                        : Watts{0.0};
      const Watts demand_estimate =
          rail_feasible ? output_->required_bus_power(avg_rail, bus_v)
                        : Watts{0.0};
      const bool rail_on = rail_feasible && demand_estimate.value() > 0.0 &&
                           demand_estimate + p_q <= supply_cap;
      const Watts p_rail = node_->step(rail_on, output_->rail_voltage(), dt);
      if (rail_on) {
        // A node that is steadily up draws exactly its average power, so
        // this call hits the chain's memo of the estimate's inversion.
        p_bus_load = output_->required_bus_power(p_rail, bus_v);
        load_energy_ += p_rail * dt;
        bus_load_energy_ += p_bus_load * dt;
      }
    }

    // 4. Energy balance against the storage bank.
    brownout_latch_ = false;
    const double net = p_in.value() - p_q.value() - p_bus_load.value();
    if (net >= 0.0) {
      energy_neutral_time_ += dt;  // harvest covered the whole step's demand
      Watts surplus{net};
      for (auto* slot : by_priority()) {
        if (surplus.value() <= 0.0) break;
        surplus -= ops.charge(slot->index, *slot->device, surplus, dt);
      }
      storage_charged_energy_ += Watts{net - surplus.value()} * dt;
      wasted_energy_ += surplus * dt;  // nothing could absorb it
    } else {
      Watts deficit{-net};
      for (auto* slot : by_priority()) {
        if (deficit.value() <= 1e-12) break;
        deficit -= ops.discharge(slot->index, *slot->device, deficit, dt);
      }
      storage_discharged_energy_ += Watts{-net - deficit.value()} * dt;
      unserved_energy_ += deficit * dt;
      if (deficit.value() > 1e-12 && first_unserved_time_.value() < 0.0)
        first_unserved_time_ = now;  // same epsilon as the discharge loop
      if (deficit.value() > 1e-9) {
        unmet_energy_ += deficit * dt;
        brownout_latch_ = true;  // rail drops next step
        ++brownouts_;
        if (first_brownout_time_.value() < 0.0) first_brownout_time_ = now;
      }
    }

    // 5. Enabled fuel cells refill the ambient-fed stores (System A: the
    //    stack "starts to work when the stored energy coming from the
    //    environmental sources is running out" — it feeds the buffer, not
    //    the load directly).
    for (auto& slot : stores_) {
      auto* cell = ops.fuel_cell(slot.index, *slot.device);
      if (cell == nullptr || !cell->enabled()) continue;
      Watts offer = cell->max_discharge_power();
      if (offer.value() <= 0.0) continue;
      const Watts drawn = cell->discharge(offer, dt);
      storage_discharged_energy_ += drawn * dt;
      Watts remaining = drawn;
      for (auto* target : by_priority()) {
        if (target->device.get() == slot.device.get()) continue;
        if (remaining.value() <= 0.0) break;
        remaining -= ops.charge(target->index, *target->device, remaining, dt);
      }
      storage_charged_energy_ += (drawn - remaining) * dt;
      wasted_energy_ += remaining * dt;
    }

    // 6. Leakage.
    for (auto& slot : stores_) ops.apply_leakage(slot.index, *slot.device, dt);
  }

  /// One management tick: monitor poll + policies. Schedule at the
  /// platform's management period (slower than step()).
  void management_tick(Seconds now);

  // ---- Hot swap (survey Sec. III.2) --------------------------------------

  /// Replaces the storage device in @p slot. If @p new_port is non-null the
  /// replacement announces itself on the bus (plug-and-play modules);
  /// otherwise the swap is electrically silent and only monitors that are
  /// explicitly reconfigured will notice. Returns the old device.
  std::unique_ptr<storage::StorageDevice> swap_storage(
      std::size_t slot, std::unique_ptr<storage::StorageDevice> replacement,
      std::unique_ptr<bus::ModulePort> new_port = nullptr,
      std::uint8_t old_port_address = 0);

  // ---- Introspection ------------------------------------------------------

  [[nodiscard]] const PlatformSpec& spec() const { return spec_; }
  [[nodiscard]] taxonomy::Classification classify() const;

  [[nodiscard]] std::size_t input_count() const { return inputs_.size(); }
  [[nodiscard]] std::size_t storage_count() const { return stores_.size(); }
  [[nodiscard]] power::InputChain& input(std::size_t i) { return *inputs_.at(i); }
  [[nodiscard]] const power::InputChain& input(std::size_t i) const {
    return *inputs_.at(i);
  }
  [[nodiscard]] storage::StorageDevice& store(std::size_t i) {
    return *stores_.at(i).device;
  }
  [[nodiscard]] const storage::StorageDevice& store(std::size_t i) const {
    return *stores_.at(i).device;
  }
  [[nodiscard]] node::SensorNode* node() { return node_.get(); }
  [[nodiscard]] const node::SensorNode* node() const { return node_.get(); }
  [[nodiscard]] manager::EnergyMonitor* monitor() { return monitor_.get(); }

  /// Bus voltage (front store's terminal voltage).
  [[nodiscard]] Volts bus_voltage() const;

  /// Regulated rail voltage (zero when no output chain is fitted).
  [[nodiscard]] Volts rail_voltage() const;

  /// SoC across rechargeable, environmentally charged stores (0..1).
  [[nodiscard]] double ambient_soc() const;

  /// Total usable energy in all stores.
  [[nodiscard]] Joules total_stored() const;

  /// Power delivered into the bus by all chains on the last step.
  [[nodiscard]] Watts last_input_power() const { return last_input_power_; }

  /// Last monitor belief (after the most recent management tick).
  [[nodiscard]] const manager::EnergyEstimate& last_estimate() const {
    return last_estimate_;
  }

  // ---- Accumulated accounting --------------------------------------------

  [[nodiscard]] Joules harvested_energy() const;     ///< delivered to the bus
  [[nodiscard]] Joules quiescent_energy() const { return quiescent_energy_; }
  [[nodiscard]] Joules load_energy() const { return load_energy_; }
  [[nodiscard]] Joules wasted_energy() const { return wasted_energy_; }
  [[nodiscard]] Joules unmet_energy() const { return unmet_energy_; }
  [[nodiscard]] std::uint64_t brownouts() const { return brownouts_; }

  // ---- Energy-flow ledger probes (obs::EnergyLedger) ----------------------
  // Every bus-boundary flow, integrated per step so the run-end ledger
  // balances exactly: harvested + discharged + unserved ==
  // quiescent + bus_load + charged + wasted (modulo FP summation order).

  /// Energy the output conditioner drew from the bus for the rail.
  [[nodiscard]] Joules bus_load_energy() const { return bus_load_energy_; }
  /// Output-converter loss: bus_load_energy() minus load_energy().
  [[nodiscard]] Joules output_loss_energy() const {
    return bus_load_energy_ - load_energy_;
  }
  /// Energy the bus pushed into stores (charging, incl. fuel-cell refills).
  [[nodiscard]] Joules storage_charged_energy() const {
    return storage_charged_energy_;
  }
  /// Energy stores delivered into the bus (discharge, incl. the fuel cell).
  [[nodiscard]] Joules storage_discharged_energy() const {
    return storage_discharged_energy_;
  }
  /// Untruncated unserved deficit. unmet_energy() drops leftovers below the
  /// brownout threshold (1e-9 W); this row keeps them so the ledger's bus
  /// identity stays exact.
  [[nodiscard]] Joules unserved_energy() const { return unserved_energy_; }
  /// Simulation time of the first brownout, or negative when none occurred
  /// (the ROADMAP time-to-first-brownout metric).
  [[nodiscard]] Seconds first_brownout_time() const {
    return first_brownout_time_;
  }

  // ---- Survivability accumulators (systems::SurvivabilityReport) ----------

  /// Time spent energy-neutral: steps where the chains covered quiescent +
  /// bus load without touching the stores (net >= 0) — the EnHANTs-style
  /// energy-neutral-operation fraction's numerator.
  [[nodiscard]] Seconds energy_neutral_time() const {
    return energy_neutral_time_;
  }
  /// Simulation time of the first unserved deficit (however small — the
  /// bus identity's epsilon, not the brownout threshold), or negative when
  /// demand was always met.
  [[nodiscard]] Seconds first_unserved_time() const {
    return first_unserved_time_;
  }

  /// The injectable targets this platform exposes, for
  /// fault::Schedule::build_injector. Pointers borrow from the platform and
  /// stay valid for its lifetime (storage slots are stable across hot swap).
  [[nodiscard]] fault::ScheduleTargets fault_targets();

  /// The output conditioning chain, or null when none is fitted.
  [[nodiscard]] const power::OutputChain* output_chain() const {
    return output_.has_value() ? &*output_ : nullptr;
  }

 private:
  struct StorageSlot {
    std::unique_ptr<storage::StorageDevice> device;
    int priority{0};
    std::size_t index{0};  ///< position in stores_ — the Ops policies' key
  };

  /// Storage slots in discharge/charge order. Cached: add_storage rebuilds
  /// it, and in-place device swaps leave the slot addresses stable.
  [[nodiscard]] const std::vector<StorageSlot*>& by_priority();

  /// bus_voltage() under a dispatch policy (see step_with).
  template <typename Ops>
  [[nodiscard]] Volts bus_voltage_with(const Ops& ops) const {
    // The bus rides on the highest-priority store that holds any charge;
    // an empty bank leaves the bus collapsed.
    const StorageSlot* best = nullptr;
    for (const auto& slot : stores_) {
      if (ops.kind(slot.index, *slot.device) == storage::StorageKind::kFuelCell)
        continue;
      if (best == nullptr || slot.priority < best->priority) best = &slot;
    }
    if (best == nullptr) return Volts{0.0};
    return ops.voltage(best->index, *best->device);
  }

  PlatformSpec spec_;
  std::vector<std::unique_ptr<power::InputChain>> inputs_;
  std::vector<StorageSlot> stores_;
  std::vector<StorageSlot*> priority_order_;  ///< stores_ sorted by priority
  std::optional<power::OutputChain> output_;
  std::unique_ptr<node::SensorNode> node_;
  std::unique_ptr<manager::EnergyMonitor> monitor_;
  std::optional<manager::DutyCycleController> duty_controller_;
  std::optional<manager::FuelCellPolicy> fuel_cell_policy_;
  std::size_t fuel_cell_slot_{0};
  std::optional<manager::FailoverPolicy> failover_policy_;
  std::size_t backup_slot_{0};
  std::optional<manager::BackupChain> backup_chain_;
  bus::I2cBus i2c_;
  std::vector<std::unique_ptr<bus::ModulePort>> ports_;

  bool brownout_latch_{false};
  Watts last_input_power_{0.0};
  manager::EnergyEstimate last_estimate_;
  Joules quiescent_energy_{0.0};
  Joules load_energy_{0.0};
  Joules wasted_energy_{0.0};
  Joules unmet_energy_{0.0};
  Joules bus_load_energy_{0.0};
  Joules storage_charged_energy_{0.0};
  Joules storage_discharged_energy_{0.0};
  Joules unserved_energy_{0.0};
  Seconds first_brownout_time_{-1.0};
  Seconds energy_neutral_time_{0.0};
  Seconds first_unserved_time_{-1.0};
  std::uint64_t brownouts_{0};
};

}  // namespace msehsim::systems
