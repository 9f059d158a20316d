#include "fault/injector.hpp"

#include <cmath>
#include <utility>

#include "core/error.hpp"

namespace msehsim::fault {

namespace {

/// Placeholder swapped into a chain for the instant between extracting its
/// harvester and handing back the wrapped one.
class NullHarvester final : public harvest::Harvester {
 public:
  [[nodiscard]] std::string_view name() const override { return "null"; }
  [[nodiscard]] harvest::HarvesterKind kind() const override {
    return harvest::HarvesterKind::kPhotovoltaic;
  }
 protected:
  void do_set_conditions(const env::AmbientConditions&) override {}

 public:
  [[nodiscard]] Amps current_at(Volts) const override { return Amps{0.0}; }
  [[nodiscard]] Volts open_circuit_voltage() const override { return Volts{0.0}; }
};

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed) : seed_(seed) {}

FaultyHarvester& FaultInjector::ensure_faulty(power::InputChain& chain) {
  if (auto* already = dynamic_cast<FaultyHarvester*>(&chain.harvester()))
    return *already;
  // Derive the wrapper's stream from the harvester's name so every chain
  // gets an independent, reproducible intermittence pattern.
  const std::uint64_t derived = seed_ ^ stream_key(chain.harvester().name());
  auto inner = chain.replace_harvester(std::make_unique<NullHarvester>());
  auto wrapper = std::make_unique<FaultyHarvester>(std::move(inner), derived);
  FaultyHarvester& ref = *wrapper;
  chain.replace_harvester(std::move(wrapper));
  return ref;
}

void FaultInjector::add(Seconds when, FaultKind kind, std::function<void()> apply) {
  require_spec(!armed_, "FaultInjector: schedule is frozen once armed");
  require_spec(when.value() >= 0.0, "fault time must be >= 0");
  schedule_.push_back(Entry{when, kind, std::move(apply)});
}

FaultyHarvester& FaultInjector::harvester_degrade(Seconds when,
                                                  power::InputChain& chain,
                                                  double output_fraction) {
  require_spec(output_fraction >= 0.0 && output_fraction <= 1.0,
               "degradation fraction must be in [0,1]");
  FaultyHarvester& h = ensure_faulty(chain);
  add(when, FaultKind::kHarvesterDegraded, [this, &h, output_fraction] {
    h.degrade(output_fraction);
    ++counters_.harvester;
  });
  return h;
}

FaultyHarvester& FaultInjector::harvester_intermittent(Seconds when,
                                                       power::InputChain& chain,
                                                       double open_probability) {
  require_spec(open_probability >= 0.0 && open_probability <= 1.0,
               "open probability must be in [0,1]");
  FaultyHarvester& h = ensure_faulty(chain);
  add(when, FaultKind::kHarvesterIntermittentOpen, [this, &h, open_probability] {
    h.set_intermittent(open_probability);
    ++counters_.harvester;
  });
  return h;
}

FaultyHarvester& FaultInjector::harvester_stuck_short(Seconds when,
                                                      power::InputChain& chain) {
  FaultyHarvester& h = ensure_faulty(chain);
  add(when, FaultKind::kHarvesterStuckShort, [this, &h] {
    h.stick_short();
    ++counters_.harvester;
  });
  return h;
}

FaultyHarvester& FaultInjector::harvester_heal(Seconds when,
                                               power::InputChain& chain) {
  FaultyHarvester& h = ensure_faulty(chain);
  // Healing is a repair, not a fault: it does not count toward the tally.
  add(when, FaultKind::kHarvesterHealed, [&h] { h.heal(); });
  return h;
}

void FaultInjector::converter_droop(Seconds when, power::InputChain& chain,
                                    double factor) {
  require_spec(factor > 0.0 && factor <= 1.0,
               "efficiency droop factor must be in (0,1]");
  add(when, FaultKind::kConverterDroop, [this, &chain, factor] {
    chain.set_efficiency_droop(factor);
    ++counters_.converter;
  });
}

void FaultInjector::converter_thermal_shutdown(Seconds when,
                                               power::InputChain& chain,
                                               Seconds duration) {
  require_spec(duration.value() > 0.0, "thermal shutdown duration must be > 0");
  add(when, FaultKind::kConverterThermalShutdown, [this, &chain] {
    chain.set_thermal_shutdown(true);
    ++counters_.converter;
  });
  add(when + duration, FaultKind::kConverterThermalShutdown,
      [&chain] { chain.set_thermal_shutdown(false); });
}

void FaultInjector::storage_capacity_fade(Seconds when,
                                          storage::StorageDevice& device,
                                          double fraction) {
  require_spec(fraction >= 0.0 && fraction < 1.0,
               "capacity fade fraction must be in [0,1)");
  add(when, FaultKind::kStorageCapacityFade, [this, &device, fraction] {
    device.inject_capacity_fade(fraction);
    ++counters_.storage;
  });
}

void FaultInjector::storage_leakage_spike(Seconds when,
                                          storage::StorageDevice& device,
                                          double multiplier, Seconds duration) {
  require_spec(multiplier >= 1.0, "leakage spike multiplier must be >= 1");
  require_spec(duration.value() > 0.0, "leakage spike duration must be > 0");
  add(when, FaultKind::kStorageLeakageSpike, [this, &device, multiplier] {
    device.set_leakage_multiplier(multiplier);
    ++counters_.storage;
  });
  add(when + duration, FaultKind::kStorageLeakageSpike,
      [&device] { device.set_leakage_multiplier(1.0); });
}

void FaultInjector::bus_nak_burst(Seconds when, bus::I2cBus& bus,
                                  std::uint32_t transactions) {
  require_spec(transactions > 0, "NAK burst must cover at least one transaction");
  add(when, FaultKind::kBusNakBurst, [this, &bus, transactions] {
    bus.inject_nak_burst(transactions);
    ++counters_.bus;
  });
}

void FaultInjector::bus_bit_errors(Seconds when, bus::I2cBus& bus, double rate,
                                   Seconds duration) {
  require_spec(rate > 0.0 && rate <= 1.0, "bit-error rate must be in (0,1]");
  require_spec(duration.value() > 0.0, "bit-error duration must be > 0");
  add(when, FaultKind::kBusBitErrors, [this, &bus, rate] {
    bus.set_bit_error_rate(rate);
    ++counters_.bus;
  });
  add(when + duration, FaultKind::kBusBitErrors,
      [&bus] { bus.set_bit_error_rate(0.0); });
}

void FaultInjector::bus_stuck(Seconds when, bus::I2cBus& bus, Seconds duration) {
  require_spec(duration.value() > 0.0, "stuck-bus duration must be > 0");
  add(when, FaultKind::kBusStuck, [this, &bus] {
    bus.set_stuck(true);
    ++counters_.bus;
  });
  add(when + duration, FaultKind::kBusStuck, [&bus] { bus.set_stuck(false); });
}

void FaultInjector::node_flash_wear(Seconds when, node::SensorNode& node,
                                    double factor) {
  require_spec(factor >= 1.0, "flash wear factor must be >= 1");
  add(when, FaultKind::kNodeFlashWear, [this, &node, factor] {
    node.inject_flash_wear(factor);
    ++counters_.node;
  });
}

void FaultInjector::node_radio_pa_degrade(Seconds when, node::SensorNode& node,
                                          double factor) {
  require_spec(factor >= 1.0, "radio PA degradation factor must be >= 1");
  add(when, FaultKind::kNodeRadioPaDegradation, [this, &node, factor] {
    node.inject_radio_pa_degradation(factor);
    ++counters_.node;
  });
}

void FaultInjector::sensor_drift(Seconds when, power::InputChain& chain,
                                 double gain, Seconds duration) {
  require_spec(std::isfinite(gain) && gain > 0.0,
               "sensor drift gain must be finite and > 0");
  require_spec(duration.value() >= 0.0, "sensor drift duration must be >= 0");
  const bool is_heal = gain == 1.0;
  add(when, FaultKind::kSensorDrift, [this, &chain, gain, is_heal] {
    chain.set_sense_gain(gain);
    if (!is_heal) ++counters_.environment;
  });
  if (duration.value() > 0.0 && !is_heal) {
    // Self-clearing drift: the recalibration is a repair, not a fault.
    add(when + duration, FaultKind::kSensorDrift,
        [&chain] { chain.set_sense_gain(1.0); });
  }
}

void FaultInjector::arm(EventQueue& events) {
  require_spec(!armed_, "FaultInjector: already armed");
  armed_ = true;
  for (auto& entry : schedule_) {
    // The schedule owns the callables; the event queue borrows them, which
    // is safe because the injector must outlive the queue.
    auto* apply = &entry.apply;
    events.at(entry.when, [apply](Seconds) { (*apply)(); });
  }
}

}  // namespace msehsim::fault
