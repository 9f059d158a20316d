// Environment generators: determinism, physical plausibility, presets,
// trace playback, compiled-trace snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numbers>

#include "core/error.hpp"
#include "core/random.hpp"
#include "env/channels.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "env/trace_cache.hpp"

namespace msehsim::env {
namespace {

constexpr Seconds kStep{60.0};
constexpr double kDay = 86400.0;

TEST(SolarChannel, ClearSkyZeroAtNightPositiveAtNoon) {
  SolarChannel solar({}, 1);
  EXPECT_DOUBLE_EQ(solar.clear_sky(Seconds{0.0}).value(), 0.0);  // midnight
  EXPECT_GT(solar.clear_sky(Seconds{kDay / 2}).value(), 400.0);  // noon, summer
}

TEST(SolarChannel, ClearSkyPeaksAtNoon) {
  SolarChannel solar({}, 1);
  const double at9 = solar.clear_sky(Seconds{9.0 * 3600}).value();
  const double at12 = solar.clear_sky(Seconds{12.0 * 3600}).value();
  const double at17 = solar.clear_sky(Seconds{17.0 * 3600}).value();
  EXPECT_GT(at12, at9);
  EXPECT_GT(at12, at17);
}

TEST(SolarChannel, CloudsOnlyAttenuate) {
  SolarChannel cloudy({}, 7);
  SolarChannel reference({}, 7);
  for (double t = 0.0; t < kDay; t += kStep.value()) {
    const auto got = cloudy.advance(Seconds{t}, kStep);
    const auto clear = reference.clear_sky(Seconds{t});
    EXPECT_LE(got.value(), clear.value() + 1e-9);
    EXPECT_GE(got.value(), 0.0);
  }
}

TEST(SolarChannel, DeterministicAcrossRuns) {
  SolarChannel a({}, 99);
  SolarChannel b({}, 99);
  for (double t = 0.0; t < kDay; t += kStep.value())
    EXPECT_EQ(a.advance(Seconds{t}, kStep).value(),
              b.advance(Seconds{t}, kStep).value());
}

TEST(SolarChannel, RejectsBadSpec) {
  SolarChannel::Params p;
  p.cloud_attenuation = 1.5;
  EXPECT_THROW(SolarChannel(p, 1), msehsim::SpecError);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Hour of day in [0, 24) and 0-based day index of a timestamp, written out
/// for the reference channels below (the channels' own helpers are private
/// to channels.cpp).
double reference_hour(Seconds now) {
  double t = std::fmod(now.value(), kDay);
  if (t < 0.0) t += kDay;
  return t / 3600.0;
}
int reference_day(Seconds now) {
  return static_cast<int>(std::floor(now.value() / kDay));
}

/// SolarChannel::clear_sky as written before it cached the per-day
/// sin(lat)*sin(decl) and cos(lat)*cos(decl): everything per call.
double reference_clear_sky(const SolarChannel::Params& p, Seconds now) {
  constexpr double kDeg2Rad = std::numbers::pi / 180.0;
  const int doy = p.day_of_year + reference_day(now);
  const double declination =
      -23.44 * kDeg2Rad * std::cos(2.0 * std::numbers::pi * (doy + 10) / 365.0);
  const double hour_angle = (reference_hour(now) - 12.0) * 15.0 * kDeg2Rad;
  const double lat = p.latitude_deg * kDeg2Rad;
  const double sin_elev = std::sin(lat) * std::sin(declination) +
                          std::cos(lat) * std::cos(declination) * std::cos(hour_angle);
  if (sin_elev <= 0.0) return 0.0;
  const double air_mass = 1.0 / std::max(sin_elev, 0.05);
  const double atten = std::pow(0.7, std::pow(air_mass, 0.678));
  return (p.clear_sky_peak * (sin_elev * atten / std::pow(0.7, 1.0))).value();
}

TEST(SolarChannel, ClearSkyMatchesThePerCallFormulaBitForBit) {
  SolarChannel::Params p;
  p.latitude_deg = -33.9;  // southern site: the declination sign matters
  p.day_of_year = 364;     // crosses the year end inside the sweep
  SolarChannel solar(p, 5);
  int checked = 0;
  // Three days forward at 60 s, then a jump back to day 0 (a stale cached
  // day must not leak into an earlier one).
  for (double t = 0.0; t < 3.0 * kDay; t += kStep.value(), ++checked)
    ASSERT_EQ(bits(solar.clear_sky(Seconds{t}).value()),
              bits(reference_clear_sky(p, Seconds{t})))
        << "t=" << t;
  for (const double t : {0.5 * kDay, 2.5 * kDay, 0.4 * kDay, -0.5 * kDay})
    EXPECT_EQ(bits(solar.clear_sky(Seconds{t}).value()),
              bits(reference_clear_sky(p, Seconds{t})))
        << "t=" << t;
  EXPECT_EQ(checked, 3 * 1440);
}

/// WindChannel as written before it cached rho and the innovation scale on
/// dt: the same seeded stream, both recomputed every step.
class ReferenceWind {
 public:
  ReferenceWind(WindChannel::Params p, std::uint64_t seed)
      : p_(p), rng_(seed, stream_key("wind")) {
    z_ = rng_.normal();
  }

  double advance(Seconds now, Seconds dt) {
    const double rho = std::exp(-dt.value() / p_.correlation_time.value());
    z_ = rho * z_ + std::sqrt(std::max(0.0, 1.0 - rho * rho)) * rng_.normal();
    const double phi = 0.5 * (1.0 + std::erf(z_ / std::numbers::sqrt2));
    const double u = std::clamp(phi, 1e-9, 1.0 - 1e-9);
    double speed = p_.weibull_scale.value() *
                   std::pow(-std::log(1.0 - u), 1.0 / p_.weibull_shape);
    const double h = reference_hour(now);
    speed *= 1.0 + p_.diurnal_amplitude *
                       std::cos(2.0 * std::numbers::pi * (h - 15.0) / 24.0);
    return std::max(0.0, speed);
  }

 private:
  WindChannel::Params p_;
  Pcg32 rng_;
  double z_{0.0};
};

TEST(WindChannel, AdvanceMatchesThePerStepFormulaBitForBit) {
  WindChannel wind({}, 21);
  ReferenceWind reference({}, 21);
  // Three days with dt changing mid-stream, including a return to an
  // earlier dt, so a cache keyed on the wrong step would show.
  double t = 0.0;
  int checked = 0;
  for (const double dt : {60.0, 30.0, 60.0, 17.5}) {
    const double end = t + 0.75 * kDay;
    for (; t < end; t += dt, ++checked)
      ASSERT_EQ(bits(wind.advance(Seconds{t}, Seconds{dt}).value()),
                bits(reference.advance(Seconds{t}, Seconds{dt})))
          << "t=" << t << " dt=" << dt;
  }
  EXPECT_GT(checked, 3 * 1440);
}

TEST(IndoorLightChannel, FollowsOfficeSchedule) {
  IndoorLightChannel light({}, 3);
  // 3 AM on a weekday: off level.
  const auto night = light.advance(Seconds{3.0 * 3600}, kStep);
  EXPECT_LT(night.value(), 50.0);
  // 11 AM on day 0 (weekday): on level.
  const auto day = light.advance(Seconds{11.0 * 3600}, kStep);
  EXPECT_GT(day.value(), 300.0);
}

TEST(IndoorLightChannel, NeverNegative) {
  IndoorLightChannel::Params p;
  p.noise_fraction = 0.8;  // absurd noise still must clamp
  IndoorLightChannel light(p, 4);
  for (double t = 0.0; t < kDay; t += kStep.value())
    EXPECT_GE(light.advance(Seconds{t}, kStep).value(), 0.0);
}

TEST(WindChannel, MeanNearWeibullMean) {
  WindChannel wind({}, 11);
  double sum = 0.0;
  int n = 0;
  for (double t = 0.0; t < 30.0 * kDay; t += 300.0) {
    sum += wind.advance(Seconds{t}, Seconds{300.0}).value();
    ++n;
  }
  // Weibull(k=2, lambda=4.5) mean ~ 3.99 m/s; diurnal modulation averages out.
  EXPECT_NEAR(sum / n, 4.0, 0.6);
}

TEST(WindChannel, TemporalCorrelation) {
  // Adjacent 1-minute samples should be much closer than independent draws.
  WindChannel wind({}, 12);
  double prev = wind.advance(Seconds{0.0}, kStep).value();
  double sum_abs_diff = 0.0;
  int n = 0;
  for (double t = kStep.value(); t < kDay; t += kStep.value()) {
    const double cur = wind.advance(Seconds{t}, kStep).value();
    sum_abs_diff += std::fabs(cur - prev);
    prev = cur;
    ++n;
  }
  EXPECT_LT(sum_abs_diff / n, 1.0);  // independent Weibull pairs differ by ~2
}

TEST(WindChannel, NonNegative) {
  WindChannel wind({}, 13);
  for (double t = 0.0; t < kDay; t += kStep.value())
    EXPECT_GE(wind.advance(Seconds{t}, kStep).value(), 0.0);
}

TEST(HvacFlowChannel, OffOutsideSchedule) {
  HvacFlowChannel hvac({}, 5);
  EXPECT_DOUBLE_EQ(hvac.advance(Seconds{2.0 * 3600}, kStep).value(), 0.0);
  EXPECT_GT(hvac.advance(Seconds{12.0 * 3600}, kStep).value(), 0.5);
}

TEST(ThermalChannel, GradientBoundedByTargets) {
  ThermalChannel thermal({}, 21);
  ThermalChannel::Params def;
  for (double t = 0.0; t < 7.0 * kDay; t += kStep.value()) {
    const double g = thermal.advance(Seconds{t}, kStep).value();
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, def.gradient_on.value() + 1e-9);
  }
}

TEST(ThermalChannel, ReachesOnGradientEventually) {
  ThermalChannel thermal({}, 22);
  double peak = 0.0;
  for (double t = 0.0; t < 7.0 * kDay; t += kStep.value())
    peak = std::max(peak, thermal.advance(Seconds{t}, kStep).value());
  EXPECT_GT(peak, 8.0);  // approaches gradient_on = 12 K
}

TEST(VibrationChannel, TogglesBetweenLevels) {
  VibrationChannel vib({}, 31);
  bool saw_on = false;
  bool saw_off = false;
  for (double t = 0.0; t < 7.0 * kDay; t += kStep.value()) {
    const auto s = vib.advance(Seconds{t}, kStep);
    EXPECT_GT(s.frequency.value(), 0.0);
    if (s.rms.value() > 1.0) saw_on = true;
    if (s.rms.value() < 0.2) saw_off = true;
  }
  EXPECT_TRUE(saw_on);
  EXPECT_TRUE(saw_off);
}

TEST(RfChannel, BackgroundPlusBursts) {
  RfChannel rf({}, 41);
  RfChannel::Params def;
  bool saw_burst = false;
  for (double t = 0.0; t < 7.0 * kDay; t += kStep.value()) {
    const double s = rf.advance(Seconds{t}, kStep).value();
    EXPECT_GE(s, def.background.value() - 1e-12);
    if (s > def.background.value() * 2) saw_burst = true;
  }
  EXPECT_TRUE(saw_burst);
}

TEST(WaterFlowChannel, FlowsOnlyInIrrigationWindows) {
  WaterFlowChannel water({}, 51);
  // 03:00 — outside both windows.
  EXPECT_DOUBLE_EQ(water.advance(Seconds{3.0 * 3600}, kStep).value(), 0.0);
  // 06:30 — inside the morning window.
  EXPECT_GT(water.advance(Seconds{6.5 * 3600}, kStep).value(), 0.5);
  // 17:30 — inside the evening window.
  EXPECT_GT(water.advance(Seconds{17.5 * 3600}, kStep).value(), 0.5);
}

TEST(Environment, OutdoorPresetHasSunAndWind) {
  auto e = Environment::outdoor(1);
  bool saw_sun = false;
  bool saw_wind = false;
  for (double t = 0.0; t < kDay; t += kStep.value()) {
    const auto c = e.advance(Seconds{t}, kStep);
    if (c.solar_irradiance.value() > 100.0) saw_sun = true;
    if (c.wind_speed.value() > 1.0) saw_wind = true;
    EXPECT_DOUBLE_EQ(c.illuminance.value(), 0.0);
    EXPECT_DOUBLE_EQ(c.water_flow.value(), 0.0);
  }
  EXPECT_TRUE(saw_sun);
  EXPECT_TRUE(saw_wind);
}

TEST(Environment, IndoorIndustrialPresetChannels) {
  auto e = Environment::indoor_industrial(2);
  bool saw_lux = false;
  bool saw_vib = false;
  bool saw_dt = false;
  for (double t = 0.0; t < 3.0 * kDay; t += kStep.value()) {
    const auto c = e.advance(Seconds{t}, kStep);
    EXPECT_DOUBLE_EQ(c.solar_irradiance.value(), 0.0);
    if (c.illuminance.value() > 100.0) saw_lux = true;
    if (c.vibration_rms.value() > 1.0) saw_vib = true;
    if (c.thermal_gradient.value() > 5.0) saw_dt = true;
  }
  EXPECT_TRUE(saw_lux);
  EXPECT_TRUE(saw_vib);
  EXPECT_TRUE(saw_dt);
}

TEST(Environment, AgriculturalPresetHasWater) {
  auto e = Environment::agricultural(3);
  bool saw_water = false;
  for (double t = 0.0; t < kDay; t += kStep.value())
    if (e.advance(Seconds{t}, kStep).water_flow.value() > 0.5) saw_water = true;
  EXPECT_TRUE(saw_water);
}

TEST(Environment, DeterministicWithSameSeed) {
  auto a = Environment::indoor_industrial(77);
  auto b = Environment::indoor_industrial(77);
  for (double t = 0.0; t < kDay; t += kStep.value()) {
    const auto ca = a.advance(Seconds{t}, kStep);
    const auto cb = b.advance(Seconds{t}, kStep);
    EXPECT_EQ(ca.illuminance.value(), cb.illuminance.value());
    EXPECT_EQ(ca.vibration_rms.value(), cb.vibration_rms.value());
    EXPECT_EQ(ca.rf_power_density.value(), cb.rf_power_density.value());
  }
}

TEST(TraceEnvironment, PlaysBackAndLoops) {
  const auto csv = msehsim::parse_csv(
      "time,solar_irradiance,wind_speed\n0,100,2\n10,200,3\n20,300,4\n");
  TraceEnvironment trace(csv);
  EXPECT_DOUBLE_EQ(trace.duration().value(), 20.0);
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{0.0}, Seconds{1.0}).solar_irradiance.value(),
                   100.0);
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{12.0}, Seconds{1.0}).solar_irradiance.value(),
                   200.0);
  // Wraps modulo duration: t = 25 -> trace time 5 -> still row 0.
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{25.0}, Seconds{1.0}).solar_irradiance.value(),
                   100.0);
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{12.0}, Seconds{1.0}).wind_speed.value(), 3.0);
}

TEST(TraceEnvironment, MissingColumnsReadZero) {
  const auto csv = msehsim::parse_csv("time,illuminance\n0,400\n100,500\n");
  TraceEnvironment trace(csv);
  const auto c = trace.advance(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(c.illuminance.value(), 400.0);
  EXPECT_DOUBLE_EQ(c.solar_irradiance.value(), 0.0);
  EXPECT_DOUBLE_EQ(c.vibration_rms.value(), 0.0);
}

TEST(TraceEnvironment, RequiresTimeColumn) {
  const auto csv = msehsim::parse_csv("x,y\n1,2\n3,4\n");
  EXPECT_THROW(TraceEnvironment{csv}, msehsim::SpecError);
}

TEST(TraceEnvironment, LoopBoundaryRoundingPlaysFirstRowNotEndMarker) {
  // fl(0.4 - 0.1) rounds the duration UP to 0.30000000000000004, so for
  // now = 0.3 (mathematically exactly one full loop, phase 0) the sampler
  // used to compute t = 0.1 + fmod(0.3, 0.30000000000000004) = 0.4 and
  // binary-search onto the end-marker row — playing the final sample for a
  // step that should restart the loop.
  const auto csv = msehsim::parse_csv(
      "time,solar_irradiance\n0.1,100\n0.25,200\n0.4,300\n");
  TraceEnvironment trace(csv);
  EXPECT_DOUBLE_EQ(
      trace.advance(Seconds{0.3}, Seconds{0.1}).solar_irradiance.value(),
      100.0);
  // now == duration() exactly is the same phase-zero case.
  EXPECT_DOUBLE_EQ(trace.advance(Seconds{trace.duration().value()}, Seconds{0.1})
                       .solar_irradiance.value(),
                   100.0);
  // Mid-loop samples are untouched by the clamp.
  EXPECT_DOUBLE_EQ(
      trace.advance(Seconds{0.2}, Seconds{0.1}).solar_irradiance.value(),
      200.0);
  EXPECT_DOUBLE_EQ(
      trace.advance(Seconds{0.05}, Seconds{0.1}).solar_irradiance.value(),
      100.0);
}

TEST(TraceEnvironment, MmapBackedPlaybackWrapsBitIdenticallyAtTheBoundary) {
  // The same fl(0.4 - 0.1) boundary as above, now through the full
  // compile -> persist -> mmap pipeline: CSV playback is compiled into a
  // CompiledTrace (one slot per dt step, clamp applied at compile time),
  // round-tripped through the on-disk TraceCache, and replayed from the
  // mapping. The wrap at now = 3 * fl(0.1) (llround(now/dt) % steps) must
  // reproduce the clamped first row, bit for bit, from the mapped doubles.
  const auto csv = msehsim::parse_csv(
      "time,solar_irradiance\n0.1,100\n0.25,200\n0.4,300\n");
  const Seconds dt{0.1};
  TraceEnvironment live(csv);
  const Seconds duration = live.duration();

  TraceEnvironment source(csv);
  const auto compiled = CompiledTrace::compile(source, dt, duration);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "msehsim_env_wrap_cache";
  std::filesystem::remove_all(dir);
  TraceCache cache(dir.string());
  const TraceCacheKey key{"wrap-trace", 0, dt, duration};
  cache.store(key, *compiled);
  const auto mapped = cache.load(key);
  ASSERT_NE(mapped, nullptr);
  ASSERT_TRUE(mapped->mapped());
  ASSERT_EQ(mapped->step_count(), compiled->step_count());

  CompiledEnvironment playback(mapped);
  // Two full loops of the accumulated-time stepping scheme. Step 3 lands on
  // now = 0.30000000000000004 — the searched boundary constant — where the
  // clamp must yield row 0's 100, not the end marker's 300.
  TraceEnvironment fresh(csv);
  std::size_t step = 0;
  for (Seconds now{0.0}; step < 2 * mapped->step_count(); now += dt, ++step) {
    const auto a = fresh.advance(now, dt);
    const auto b = playback.advance(now, dt);
    EXPECT_TRUE(a == b) << "step " << step << " now=" << now.value();
  }
  EXPECT_DOUBLE_EQ(
      playback.advance(Seconds{0.1 + 0.1 + 0.1}, dt).solar_irradiance.value(),
      100.0);
}

TEST(CompiledTrace, PlaybackMatchesLiveSynthesisBitForBit) {
  const Seconds dt{60.0};
  const Seconds duration{6.0 * 3600.0};
  auto live = Environment::indoor_industrial(42);
  auto source = Environment::indoor_industrial(42);
  const auto trace = CompiledTrace::compile(source, dt, duration);
  CompiledEnvironment playback(trace);
  // Exactly BatchRunner::run's clock (the k-fold accumulated sum of dt),
  // which is what campaigns replay through.
  std::size_t steps = 0;
  for (Seconds now{0.0}; now + dt * 0.5 < duration; now += dt) {
    const auto a = live.advance(now, dt);
    const auto b = playback.advance(now, dt);
    EXPECT_TRUE(a == b) << "step " << steps;
    ++steps;
  }
  EXPECT_EQ(trace->step_count(), steps);
  EXPECT_DOUBLE_EQ(trace->dt().value(), dt.value());
  EXPECT_DOUBLE_EQ(trace->duration().value(), duration.value());
  EXPECT_EQ(playback.description(),
            "compiled:" + live.description());
}

TEST(CompiledTrace, ElidesIdenticallyZeroChannels) {
  // The outdoor preset drives only sun + wind; the other six channels are
  // identically zero and must not be stored per step.
  auto source = Environment::outdoor(7);
  const auto trace =
      CompiledTrace::compile(source, Seconds{60.0}, Seconds{86400.0});
  EXPECT_EQ(trace->stored_channels(), 2);
  EXPECT_LT(trace->memory_bytes(),
            3 * trace->step_count() * sizeof(double));
  // Elided channels still read back as exactly +0.0.
  const auto c = trace->at(0);
  EXPECT_EQ(c.illuminance.value(), 0.0);
  EXPECT_FALSE(std::signbit(c.illuminance.value()));
  EXPECT_EQ(c.water_flow.value(), 0.0);
}

TEST(CompiledEnvironment, WrapsPastTheCompiledHorizon) {
  auto source = Environment::outdoor(3);
  const Seconds dt{30.0};
  const Seconds duration{3600.0};
  const auto trace = CompiledTrace::compile(source, dt, duration);
  CompiledEnvironment playback(trace);
  const auto n = trace->step_count();
  // Keep accumulating past the horizon: slot k wraps to k mod n.
  Seconds now{0.0};
  for (std::size_t k = 0; k < 2 * n + 5; ++k, now += dt) {
    const auto c = playback.advance(now, dt);
    EXPECT_TRUE(c == trace->at(k % n)) << k;
  }
}

TEST(CompiledEnvironment, RejectsMismatchedDt) {
  auto source = Environment::outdoor(5);
  const auto trace =
      CompiledTrace::compile(source, Seconds{60.0}, Seconds{3600.0});
  CompiledEnvironment playback(trace);
  EXPECT_THROW(playback.advance(Seconds{0.0}, Seconds{30.0}),
               msehsim::SpecError);
}

TEST(CompiledTrace, RejectsBadSpec) {
  auto source = Environment::outdoor(1);
  EXPECT_THROW(CompiledTrace::compile(source, Seconds{0.0}, Seconds{100.0}),
               msehsim::SpecError);
  EXPECT_THROW(CompiledTrace::compile(source, Seconds{1.0}, Seconds{0.0}),
               msehsim::SpecError);
  EXPECT_THROW(CompiledEnvironment{nullptr}, msehsim::SpecError);
}

}  // namespace
}  // namespace msehsim::env
