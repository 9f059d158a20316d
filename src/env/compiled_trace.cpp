#include "env/compiled_trace.hpp"

#include <cmath>
#include <utility>

#include "core/error.hpp"

namespace msehsim::env {

namespace {

/// True only for bit-exact +0.0: eliding -0.0 would swap the sign of a
/// stored zero and could leak into a "-0"-vs-"0" byte difference in a
/// round-trip-exact text report downstream.
bool positive_zero(double x) { return x == 0.0 && !std::signbit(x); }

}  // namespace

const std::array<const char*, CompiledTrace::kChannelCount>&
CompiledTrace::channel_names() {
  static const std::array<const char*, kChannelCount> names = {
      "solar_irradiance", "illuminance",    "wind_speed",
      "thermal_gradient", "vibration_rms",  "vibration_freq",
      "rf_power_density", "water_flow"};
  return names;
}

CompiledTrace::CompiledTrace(EnvironmentModel& source, Seconds dt,
                             Seconds duration)
    : dt_(dt), duration_(duration), description_(source.description()) {
  require_spec(dt.value() > 0.0, "CompiledTrace: dt must be > 0");
  require_spec(duration.value() > 0.0, "CompiledTrace: duration must be > 0");
  const auto reserve =
      static_cast<std::size_t>(duration.value() / dt.value()) + 1;
  // A channel gets storage only at its first value that is not +0.0, with
  // the +0.0 prefix filled in then; a channel that never leaves +0.0 is
  // elided without ever being allocated.
  const auto record = [&](std::size_t ch, double x) {
    std::vector<double>& v = owned_[ch];
    if (v.empty()) {
      if (positive_zero(x)) return;
      v.reserve(reserve);
      v.assign(steps_, 0.0);
    }
    v.push_back(x);
  };
  // Exactly systems::BatchRunner::run's stepping scheme (starting at
  // now = 0): repeated accumulation, half-step end tolerance. Any deviation
  // here would desynchronize playback from a live run.
  for (Seconds now{0.0}; now + dt * 0.5 < duration; now += dt) {
    const AmbientConditions c = source.advance(now, dt);
    record(0, c.solar_irradiance.value());
    record(1, c.illuminance.value());
    record(2, c.wind_speed.value());
    record(3, c.thermal_gradient.value());
    record(4, c.vibration_rms.value());
    record(5, c.vibration_freq.value());
    record(6, c.rf_power_density.value());
    record(7, c.water_flow.value());
    ++steps_;
  }
  require_spec(steps_ > 0, "CompiledTrace: zero-step timeline");
  for (std::size_t ch = 0; ch < kChannelCount; ++ch)
    view_[ch] = owned_[ch].empty() ? nullptr : owned_[ch].data();
}

std::shared_ptr<const CompiledTrace> CompiledTrace::compile(
    EnvironmentModel& source, Seconds dt, Seconds duration) {
  return std::make_shared<const CompiledTrace>(source, dt, duration);
}

AmbientConditions CompiledTrace::at(std::size_t step) const {
  require_spec(step < steps_, "CompiledTrace::at: step out of range");
  AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{slot(0, step)};
  c.illuminance = Lux{slot(1, step)};
  c.wind_speed = MetersPerSecond{slot(2, step)};
  c.thermal_gradient = Kelvin{slot(3, step)};
  c.vibration_rms = MetersPerSecondSquared{slot(4, step)};
  c.vibration_freq = Hertz{slot(5, step)};
  c.rf_power_density = WattsPerSquareMeter{slot(6, step)};
  c.water_flow = MetersPerSecond{slot(7, step)};
  return c;
}

std::size_t CompiledTrace::memory_bytes() const {
  if (backing_ != nullptr) return mapped_bytes_;
  std::size_t bytes = 0;
  for (const auto& v : owned_) bytes += v.capacity() * sizeof(double);
  return bytes;
}

int CompiledTrace::stored_channels() const {
  int n = 0;
  for (const auto* v : view_)
    if (v != nullptr) ++n;
  return n;
}

CompiledEnvironment::CompiledEnvironment(
    std::shared_ptr<const CompiledTrace> trace)
    : trace_(std::move(trace)) {
  require_spec(trace_ != nullptr, "CompiledEnvironment needs a trace");
}

AmbientConditions CompiledEnvironment::advance(Seconds now, Seconds dt) {
  if (dt.value() != trace_->dt().value())
    throw SpecError("CompiledEnvironment: dt " + std::to_string(dt.value()) +
                    " does not match compiled dt " +
                    std::to_string(trace_->dt().value()));
  // now is the run's accumulated k-fold sum of dt, so now/dt sits within
  // rounding noise of the integer slot index; round, then wrap for playback
  // past the compiled horizon.
  const auto idx = static_cast<std::size_t>(
      std::llround(now.value() / trace_->dt().value()));
  return trace_->at(idx % trace_->step_count());
}

std::string CompiledEnvironment::description() const {
  return "compiled:" + trace_->description();
}

}  // namespace msehsim::env
