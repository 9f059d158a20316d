#include "fault/injector.hpp"

#include <memory>
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

void FaultInjector::arm(EventQueue& events) {
  require_spec(!armed_, "FaultInjector: already armed");
  armed_ = true;
  for (auto& entry : schedule_) {
    // The schedule owns the callables; the event queue borrows them, which
    // is safe because the injector must outlive the queue.
    events.at(entry.when, [this, fire = &entry](Seconds) {
      fire->apply();
      if (fire->counter != nullptr) ++(counters_.*(fire->counter));
    });
  }
}

}  // namespace msehsim::fault
