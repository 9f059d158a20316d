#include "power/chain.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace msehsim::power {

InputChain::InputChain(std::unique_ptr<harvest::Harvester> harvester,
                       std::unique_ptr<MpptController> mppt, Converter converter,
                       Seconds mppt_period)
    : harvester_(std::move(harvester)),
      mppt_(std::move(mppt)),
      converter_(std::move(converter)),
      mppt_period_(mppt_period) {
  require_spec(harvester_ != nullptr, "InputChain requires a harvester");
  require_spec(mppt_ != nullptr, "InputChain requires an operating-point controller");
  require_spec(mppt_period_.value() > 0.0, "MPPT period must be > 0");
}

std::unique_ptr<harvest::Harvester> InputChain::replace_harvester(
    std::unique_ptr<harvest::Harvester> replacement) {
  require_spec(replacement != nullptr, "replace_harvester: null replacement");
  std::swap(harvester_, replacement);
  return replacement;
}

void InputChain::set_efficiency_droop(double factor) {
  require_spec(factor > 0.0 && factor <= 1.0,
               "efficiency droop factor must be in (0,1]");
  droop_factor_ = factor;
}

void InputChain::set_thermal_shutdown(bool on) {
  if (on && !thermal_shutdown_) ++shutdown_events_;
  thermal_shutdown_ = on;
}

void InputChain::set_sense_gain(double gain) {
  require_spec(std::isfinite(gain) && gain > 0.0,
               "sense gain must be finite and > 0");
  sense_gain_ = gain;
}

double InputChain::tracking_efficiency() const {
  if (harvestable_at_mpp_.value() <= 0.0) return 1.0;
  return harvested_at_setpoint_.value() / harvestable_at_mpp_.value();
}

OutputChain::OutputChain(Converter converter, Volts rail_voltage)
    : converter_(std::move(converter)), rail_voltage_(rail_voltage) {
  require_spec(rail_voltage_.value() > 0.0, "rail voltage must be > 0");
}

Watts OutputChain::solve_bus_power(Watts load_power, Volts bus_voltage) const {
  if (!rail_available(bus_voltage)) return Watts{0.0};
  return converter_.required_input(load_power, bus_voltage, rail_voltage_);
}

bool OutputChain::rail_available(Volts bus_voltage) const {
  return converter_.can_convert(bus_voltage, rail_voltage_);
}

}  // namespace msehsim::power
