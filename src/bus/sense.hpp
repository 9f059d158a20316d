// Analog sensing — the minimal energy-monitoring capability.
//
// Survey Sec. II.3: "At their most basic, energy-aware systems may provide
// an analog line to allow the microcontroller to monitor the store
// voltage." AdcLine models that path: an ADC with finite resolution and
// quantization noise, so analog monitoring has an accuracy limit. The
// energy a sample costs is not modelled.
#pragma once

#include <cstdint>

#include "core/random.hpp"
#include "core/units.hpp"

namespace msehsim::bus {

class AdcLine {
 public:
  struct Params {
    int bits{10};
    Volts full_scale{3.3};
    double noise_lsb{0.5};  ///< RMS input-referred noise in LSBs
  };

  AdcLine(Params params, std::uint64_t seed);

  /// Samples @p actual: adds noise, quantizes, clamps to full scale.
  Volts sample(Volts actual);

  [[nodiscard]] Volts lsb() const;

 private:
  Params params_;
  Pcg32 rng_;
};

}  // namespace msehsim::bus
