#include "harvest/harvester.hpp"

#include <atomic>

#include "core/solve.hpp"

namespace msehsim::harvest {

namespace {
// Relaxed is enough: the flag is configuration, set before simulations run,
// and only read from campaign worker threads.
std::atomic<bool> g_mpp_cache_enabled{true};
}  // namespace

void Harvester::set_mpp_cache_enabled(bool enabled) {
  g_mpp_cache_enabled.store(enabled, std::memory_order_relaxed);
}

bool Harvester::mpp_cache_enabled() {
  return g_mpp_cache_enabled.load(std::memory_order_relaxed);
}

std::string_view to_string(HarvesterKind kind) {
  switch (kind) {
    case HarvesterKind::kPhotovoltaic: return "Light";
    case HarvesterKind::kWind: return "Wind";
    case HarvesterKind::kThermoelectric: return "Thermal";
    case HarvesterKind::kPiezo: return "Vibration";
    case HarvesterKind::kInductive: return "Inductive";
    case HarvesterKind::kRf: return "Radio";
    case HarvesterKind::kWaterFlow: return "Water Flow";
    case HarvesterKind::kAcDc: return "AC/DC";
  }
  return "?";
}

OperatingPoint Harvester::compute_mpp() const {
  const Volts voc = open_circuit_voltage();
  if (voc.value() <= 0.0) return OperatingPoint{};
  const double v_star = golden_max_fn(
      [this](double v) { return power_at(Volts{v}).value(); }, 0.0, voc.value());
  OperatingPoint mpp;
  mpp.v = Volts{v_star};
  mpp.i = current_at(mpp.v);
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

OperatingPoint Harvester::shifted_mpp(Volts shift) const {
  const Volts voc = open_circuit_voltage();
  const double s = shift.value();
  if (voc.value() <= s) return OperatingPoint{};
  // Search over the source voltage u in [s, Voc]; the combiner terminal sees
  // v = u - s while the source conducts I(u).
  const double u_star = golden_max_fn(
      [this, s](double u) {
        return (u - s) * current_at(Volts{u}).value();
      },
      s, voc.value());
  OperatingPoint mpp;
  mpp.v = Volts{u_star - s};
  mpp.i = current_at(Volts{u_star});
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

}  // namespace msehsim::harvest
