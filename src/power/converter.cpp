#include "power/converter.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace msehsim::power {

std::string_view to_string(Topology t) {
  switch (t) {
    case Topology::kDiode: return "diode";
    case Topology::kLdo: return "LDO";
    case Topology::kBuck: return "buck";
    case Topology::kBoost: return "boost";
    case Topology::kBuckBoost: return "buck-boost";
  }
  return "?";
}

Converter::Converter(std::string name, Params params)
    : name_(std::move(name)), params_(params) {
  require_spec(params_.peak_efficiency > 0.0 && params_.peak_efficiency <= 1.0,
               "converter peak efficiency must be in (0,1]");
  require_spec(params_.rated_power.value() > 0.0, "converter rated power must be > 0");
  require_spec(params_.quiescent_current.value() >= 0.0,
               "converter quiescent current must be >= 0");
  require_spec(params_.min_input.value() >= 0.0 &&
                   params_.max_input > params_.min_input,
               "converter input voltage window invalid");
  require_spec(params_.conduction_loss_fraction >= 0.0 &&
                   params_.conduction_loss_fraction < 1.0,
               "converter conduction loss fraction must be in [0,1)");
}

Watts Converter::required_input(Watts output, Volts vin, Volts vout) const {
  return Watts{with_topology([&](auto t) {
    return required_input_as<decltype(t)::value>(output.value(), vin.value(),
                                                 vout.value());
  })};
}

double Converter::efficiency(Watts input, Volts vin, Volts vout) const {
  if (input.value() <= 0.0) return 0.0;
  return transfer(input, vin, vout).value() / input.value();
}

Converter Converter::smart_buck_boost(std::string name) {
  Params p;
  p.topology = Topology::kBuckBoost;
  p.peak_efficiency = 0.90;
  p.rated_power = Watts{50e-3};
  p.quiescent_current = Amps{1.5e-6};
  p.min_input = Volts{0.8};
  p.max_input = Volts{5.5};
  return Converter(std::move(name), p);
}

Converter Converter::nano_ldo(std::string name) {
  Params p;
  p.topology = Topology::kLdo;
  p.peak_efficiency = 1.0;  // series pass device; losses come from headroom
  p.rated_power = Watts{10e-3};
  p.quiescent_current = Amps{0.5e-6};
  p.min_input = Volts{1.8};
  p.max_input = Volts{5.5};
  return Converter(std::move(name), p);
}

Converter Converter::schottky_diode(std::string name) {
  Params p;
  p.topology = Topology::kDiode;
  p.peak_efficiency = 1.0;
  p.rated_power = Watts{100e-3};
  p.quiescent_current = Amps{0.0};
  p.min_input = Volts{0.0};
  p.max_input = Volts{25.0};
  p.diode_drop = Volts{0.3};
  return Converter(std::move(name), p);
}

Converter Converter::boost_frontend(std::string name) {
  Params p;
  p.topology = Topology::kBoost;
  p.peak_efficiency = 0.85;
  p.rated_power = Watts{20e-3};
  p.quiescent_current = Amps{1.0e-6};
  p.min_input = Volts{0.1};
  p.max_input = Volts{5.0};
  return Converter(std::move(name), p);
}

}  // namespace msehsim::power
