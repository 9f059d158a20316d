// Transducer models: I-V curve properties, MPP behaviour, parameterized
// physical-invariant sweeps.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/error.hpp"
#include "core/random.hpp"
#include "core/solve.hpp"
#include "harvest/transducers.hpp"

namespace msehsim::harvest {
namespace {

env::AmbientConditions sunny(double irradiance = 800.0) {
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{irradiance};
  return c;
}

env::AmbientConditions windy(double speed) {
  env::AmbientConditions c;
  c.wind_speed = MetersPerSecond{speed};
  return c;
}

env::AmbientConditions hot(double dt) {
  env::AmbientConditions c;
  c.thermal_gradient = Kelvin{dt};
  return c;
}

env::AmbientConditions shaking(double rms, double freq = 50.0) {
  env::AmbientConditions c;
  c.vibration_rms = MetersPerSecondSquared{rms};
  c.vibration_freq = Hertz{freq};
  return c;
}

// ---------------------------------------------------------------------------
// TheveninSource
// ---------------------------------------------------------------------------

TEST(Thevenin, CurrentLinearInVoltage) {
  TheveninSource s{Volts{4.0}, Ohms{2.0}};
  EXPECT_DOUBLE_EQ(s.current_at(Volts{0.0}).value(), 2.0);
  EXPECT_DOUBLE_EQ(s.current_at(Volts{2.0}).value(), 1.0);
  EXPECT_DOUBLE_EQ(s.current_at(Volts{4.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(s.current_at(Volts{5.0}).value(), 0.0);
}

TEST(Thevenin, MaxPowerAtHalfVoc) {
  TheveninSource s{Volts{4.0}, Ohms{2.0}};
  EXPECT_DOUBLE_EQ(s.max_power().value(), 2.0);
  const Watts at_half = Volts{2.0} * s.current_at(Volts{2.0});
  EXPECT_DOUBLE_EQ(at_half.value(), s.max_power().value());
}

// ---------------------------------------------------------------------------
// PvPanel
// ---------------------------------------------------------------------------

TEST(PvPanel, DarkProducesNothing) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(0.0));
  EXPECT_DOUBLE_EQ(pv.open_circuit_voltage().value(), 0.0);
  EXPECT_DOUBLE_EQ(pv.power_at(Volts{2.0}).value(), 0.0);
}

TEST(PvPanel, VocAtStcMatchesSpec) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(1000.0));
  EXPECT_NEAR(pv.open_circuit_voltage().value(), 4.2, 0.01);
}

TEST(PvPanel, ShortCircuitCurrentScalesWithIrradiance) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(1000.0));
  const double isc_full = pv.current_at(Volts{0.0}).value();
  pv.set_conditions(sunny(500.0));
  const double isc_half = pv.current_at(Volts{0.0}).value();
  EXPECT_NEAR(isc_half, isc_full / 2.0, 1e-9);
}

TEST(PvPanel, CurrentMonotoneNonIncreasingInVoltage) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(700.0));
  double prev = pv.current_at(Volts{0.0}).value();
  for (double v = 0.05; v < 4.5; v += 0.05) {
    const double i = pv.current_at(Volts{v}).value();
    EXPECT_LE(i, prev + 1e-12);
    EXPECT_GE(i, 0.0);
    prev = i;
  }
}

TEST(PvPanel, NanConditionsNeitherThrashTheMppCacheNorPoisonTheCurve) {
  // NaN != NaN, so an unsanitized NaN channel would make the memo key
  // compare unequal to itself: every repeated set_conditions would
  // invalidate, every maximum_power_point would recompute (hit counter
  // flat), and the NaN would flow into the curve. set_conditions must
  // normalize NaN channels to +0.0 — "channel absent" — before keying.
  PvPanel pv("pv", {});
  env::AmbientConditions nan_sun;
  nan_sun.solar_irradiance =
      WattsPerSquareMeter{std::numeric_limits<double>::quiet_NaN()};

  pv.set_conditions(nan_sun);
  const auto first = pv.maximum_power_point();
  EXPECT_FALSE(std::isnan(first.p.value()));
  EXPECT_FALSE(std::isnan(first.v.value()));
  const auto recomputes_after_first = pv.mpp_recomputes();

  // Re-applying the identical NaN conditions must key as identical: no
  // further recomputes, hits climbing instead.
  for (int i = 0; i < 5; ++i) {
    pv.set_conditions(nan_sun);
    (void)pv.maximum_power_point();
  }
  EXPECT_EQ(pv.mpp_recomputes(), recomputes_after_first);
  EXPECT_GE(pv.mpp_cache_hits(), 5u);

  // A NaN channel means "absent", so the curve equals the zero-input curve.
  pv.set_conditions(sunny(0.0));
  EXPECT_EQ(pv.maximum_power_point().p.value(), first.p.value());

  // NaN in an unused channel must not disturb a live channel's curve either.
  auto sun = sunny(800.0);
  pv.set_conditions(sun);
  const auto clean = pv.maximum_power_point();
  auto sun_nan = sun;
  sun_nan.water_flow =
      MetersPerSecond{std::numeric_limits<double>::quiet_NaN()};
  pv.set_conditions(sun_nan);
  const auto with_nan = pv.maximum_power_point();
  EXPECT_EQ(clean.p.value(), with_nan.p.value());
  EXPECT_EQ(clean.v.value(), with_nan.v.value());
}

TEST(PvPanel, MppNearFractionOfVoc) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(800.0));
  const auto mpp = pv.maximum_power_point();
  const double k = mpp.v.value() / pv.open_circuit_voltage().value();
  EXPECT_GT(k, 0.65);
  EXPECT_LT(k, 0.92);
  EXPECT_GT(mpp.p.value(), 0.0);
}

// Twin panels attached to one curve share must answer every question with
// the bits an unshared panel computes, whether the share hits (equal photo
// current or voltage bits) or misses (the twins' photo currents diverge).
TEST(PvPanel, CurveShareAnswersAreBitIdenticalToUnsharedSolves) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto same_point = [&](const OperatingPoint& a, const OperatingPoint& b) {
    return bits(a.v.value()) == bits(b.v.value()) &&
           bits(a.i.value()) == bits(b.i.value()) &&
           bits(a.p.value()) == bits(b.p.value());
  };
  PvCurveShare share;
  PvPanel twin_a("a", {});
  PvPanel twin_b("b", {});
  PvPanel ref_a("ra", {});
  PvPanel ref_b("rb", {});
  twin_a.set_curve_share(&share);
  twin_b.set_curve_share(&share);
  ASSERT_EQ(twin_a.curve_share(), &share);
  ASSERT_EQ(ref_a.curve_share(), nullptr);

  // Few distinct irradiances and voltages, so keys repeat across twins and
  // across iterations; b sometimes sees its own irradiance (a miss).
  const double irradiance[] = {0.0, 120.0, 430.5, 800.0, 1000.0};
  const double volts[] = {-0.1, 0.0, 1.5, 3.1, 3.3, 4.0, 9.0};
  Pcg32 rng(2013, 7);
  const auto pick = [&](const auto& values) {
    return values[rng.next_below(static_cast<std::uint32_t>(std::size(values)))];
  };
  for (int step = 0; step < 4000; ++step) {
    const double ga = pick(irradiance);
    const double gb = rng.bernoulli(0.3)
                          ? pick(irradiance)
                          : ga;
    twin_a.set_conditions(sunny(ga));
    ref_a.set_conditions(sunny(ga));
    twin_b.set_conditions(sunny(gb));
    ref_b.set_conditions(sunny(gb));
    ASSERT_TRUE(same_point(twin_a.maximum_power_point(),
                           ref_a.maximum_power_point()))
        << "step " << step;
    ASSERT_TRUE(same_point(twin_b.maximum_power_point(),
                           ref_b.maximum_power_point()))
        << "step " << step;
    for (int q = 0; q < 3; ++q) {
      const double v = rng.bernoulli(0.5)
                           ? pick(volts)
                           : rng.uniform(0.0, 4.5);
      ASSERT_EQ(bits(twin_a.current_at(Volts{v}).value()),
                bits(ref_a.current_at(Volts{v}).value()))
          << "step " << step << " v " << v;
      ASSERT_EQ(bits(twin_b.current_at(Volts{v}).value()),
                bits(ref_b.current_at(Volts{v}).value()))
          << "step " << step << " v " << v;
    }
    for (const double shift : {0.0, 0.3}) {
      ASSERT_TRUE(same_point(twin_a.shifted_mpp(Volts{shift}),
                             ref_a.shifted_mpp(Volts{shift})))
          << "step " << step << " shift " << shift;
      ASSERT_TRUE(same_point(twin_b.shifted_mpp(Volts{shift}),
                             ref_b.shifted_mpp(Volts{shift})))
          << "step " << step << " shift " << shift;
    }
  }
  EXPECT_TRUE(share.mpp_set);
  EXPECT_EQ(share.filled, PvCurveShare::kVoltageSlots);

  twin_a.set_curve_share(nullptr);
  EXPECT_EQ(twin_a.curve_share(), nullptr);
}

TEST(PvPanel, IndoorModeReadsIlluminance) {
  PvPanel::Params p;
  p.indoor = true;
  PvPanel pv("pv", p);
  env::AmbientConditions c;
  c.illuminance = Lux{500.0};
  pv.set_conditions(c);
  EXPECT_GT(pv.maximum_power_point().p.value(), 0.0);
  // Outdoor-mode irradiance must be ignored indoors.
  env::AmbientConditions c2;
  c2.solar_irradiance = WattsPerSquareMeter{1000.0};
  pv.set_conditions(c2);
  EXPECT_DOUBLE_EQ(pv.maximum_power_point().p.value(), 0.0);
}

TEST(PvPanel, IndoorPowerIsSubMilliwattAtOfficeLight) {
  PvPanel::Params p;
  p.indoor = true;
  PvPanel pv("pv", p);
  env::AmbientConditions c;
  c.illuminance = Lux{500.0};
  pv.set_conditions(c);
  const double mpp = pv.maximum_power_point().p.value();
  EXPECT_GT(mpp, 10e-6);
  EXPECT_LT(mpp, 5e-3);
}

TEST(PvPanel, RejectsBadSpecs) {
  PvPanel::Params p;
  p.voc_stc = Volts{0.0};
  EXPECT_THROW(PvPanel("x", p), SpecError);
  PvPanel::Params q;
  q.diode_ideality = 5.0;
  EXPECT_THROW(PvPanel("x", q), SpecError);
  PvPanel::Params r;
  r.series_cells = 0;
  EXPECT_THROW(PvPanel("x", r), SpecError);
}

// ---------------------------------------------------------------------------
// WindTurbine
// ---------------------------------------------------------------------------

TEST(WindTurbine, BelowCutInNoPower) {
  WindTurbine wt("wt", {});
  wt.set_conditions(windy(1.0));
  EXPECT_DOUBLE_EQ(wt.available_power().value(), 0.0);
  EXPECT_DOUBLE_EQ(wt.maximum_power_point().p.value(), 0.0);
}

TEST(WindTurbine, PowerGrowsWithCube) {
  WindTurbine wt("wt", {});
  wt.set_conditions(windy(4.0));
  const double p4 = wt.available_power().value();
  wt.set_conditions(windy(8.0));
  const double p8 = wt.available_power().value();
  EXPECT_NEAR(p8 / p4, 8.0, 0.01);
}

TEST(WindTurbine, SaturatesAtRatedSpeed) {
  WindTurbine wt("wt", {});
  wt.set_conditions(windy(10.0));
  const double rated = wt.available_power().value();
  wt.set_conditions(windy(25.0));
  EXPECT_DOUBLE_EQ(wt.available_power().value(), rated);
}

TEST(WindTurbine, ElectricalPowerNeverExceedsAerodynamic) {
  WindTurbine wt("wt", {});
  for (double v = 2.0; v <= 12.0; v += 1.0) {
    wt.set_conditions(windy(v));
    const auto mpp = wt.maximum_power_point();
    EXPECT_LE(mpp.p.value(), wt.available_power().value() + 1e-9);
  }
}

TEST(WindTurbine, WaterVariantReadsWaterChannel) {
  auto turbine = WindTurbine::water_turbine("hydro");
  EXPECT_EQ(turbine.kind(), HarvesterKind::kWaterFlow);
  env::AmbientConditions c;
  c.water_flow = MetersPerSecond{1.2};
  turbine.set_conditions(c);
  EXPECT_GT(turbine.available_power().value(), 0.0);
  // Wind channel must be ignored.
  turbine.set_conditions(windy(10.0));
  EXPECT_DOUBLE_EQ(turbine.available_power().value(), 0.0);
}

TEST(WindTurbine, RejectsBadSpecs) {
  WindTurbine::Params p;
  p.power_coefficient = 0.7;  // beyond Betz
  EXPECT_THROW(WindTurbine("x", p), SpecError);
  WindTurbine::Params q;
  q.rated = q.cut_in;
  EXPECT_THROW(WindTurbine("x", q), SpecError);
}

// ---------------------------------------------------------------------------
// Teg
// ---------------------------------------------------------------------------

TEST(Teg, VocProportionalToGradient) {
  Teg teg("teg", {});
  teg.set_conditions(hot(10.0));
  const double v10 = teg.open_circuit_voltage().value();
  teg.set_conditions(hot(5.0));
  EXPECT_NEAR(teg.open_circuit_voltage().value(), v10 / 2.0, 1e-12);
}

TEST(Teg, PowerQuadraticInGradient) {
  Teg teg("teg", {});
  teg.set_conditions(hot(6.0));
  const double p6 = teg.maximum_power_point().p.value();
  teg.set_conditions(hot(12.0));
  EXPECT_NEAR(teg.maximum_power_point().p.value() / p6, 4.0, 0.01);
}

TEST(Teg, NoGradientNoOutput) {
  Teg teg("teg", {});
  teg.set_conditions(hot(0.0));
  EXPECT_DOUBLE_EQ(teg.maximum_power_point().p.value(), 0.0);
}

// ---------------------------------------------------------------------------
// VibrationHarvester
// ---------------------------------------------------------------------------

TEST(Vibration, SilentWhenStill) {
  auto h = VibrationHarvester::piezo("pz");
  h.set_conditions(shaking(0.0));
  EXPECT_DOUBLE_EQ(h.maximum_power_point().p.value(), 0.0);
}

TEST(Vibration, PowerQuadraticInAcceleration) {
  auto h = VibrationHarvester::piezo("pz");
  h.set_conditions(shaking(1.0));
  const double p1 = h.maximum_power_point().p.value();
  h.set_conditions(shaking(2.0));
  EXPECT_NEAR(h.maximum_power_point().p.value() / p1, 4.0, 0.02);
}

TEST(Vibration, DetuningReducesPower) {
  auto h = VibrationHarvester::piezo("pz");
  h.set_conditions(shaking(2.0, 50.0));
  const double on_res = h.maximum_power_point().p.value();
  h.set_conditions(shaking(2.0, 53.0));
  const double off_res = h.maximum_power_point().p.value();
  EXPECT_LT(off_res, on_res * 0.5);
}

TEST(Vibration, MppSitsNearOptimalVoltage) {
  auto h = VibrationHarvester::piezo("pz");
  h.set_conditions(shaking(3.0));
  const auto mpp = h.maximum_power_point();
  EXPECT_NEAR(mpp.v.value(), 3.3, 0.1);
}

TEST(Vibration, ElectromagneticVariantIsLowVoltage) {
  auto h = VibrationHarvester::electromagnetic("em");
  EXPECT_EQ(h.kind(), HarvesterKind::kInductive);
  h.set_conditions(shaking(3.0));
  EXPECT_NEAR(h.maximum_power_point().v.value(), 1.2, 0.1);
}

TEST(Vibration, RejectsBadDamping) {
  VibrationHarvester::Params p;
  p.damping_ratio = 0.0;
  EXPECT_THROW(VibrationHarvester::piezo("x", p), SpecError);
}

// ---------------------------------------------------------------------------
// RfHarvester
// ---------------------------------------------------------------------------

TEST(Rf, BelowSensitivityNoOutput) {
  RfHarvester rf("rf", {});
  env::AmbientConditions c;
  c.rf_power_density = WattsPerSquareMeter{1e-5};  // 50 nW on 5 cm^2 aperture
  rf.set_conditions(c);
  EXPECT_DOUBLE_EQ(rf.maximum_power_point().p.value(), 0.0);
}

TEST(Rf, StrongFieldYieldsOutput) {
  RfHarvester rf("rf", {});
  env::AmbientConditions c;
  c.rf_power_density = WattsPerSquareMeter{5e-3};
  rf.set_conditions(c);
  const double p = rf.maximum_power_point().p.value();
  EXPECT_GT(p, 1e-6);
  // Output power never exceeds incident power.
  EXPECT_LT(p, 5e-3 * 0.005);
}

TEST(Rf, EfficiencyImprovesWithInputPower) {
  RfHarvester rf("rf", {});
  env::AmbientConditions weak;
  weak.rf_power_density = WattsPerSquareMeter{1e-3};
  env::AmbientConditions strong;
  strong.rf_power_density = WattsPerSquareMeter{100e-3};
  rf.set_conditions(weak);
  const double eff_weak =
      rf.maximum_power_point().p.value() / (1e-3 * 0.005);
  rf.set_conditions(strong);
  const double eff_strong =
      rf.maximum_power_point().p.value() / (100e-3 * 0.005);
  EXPECT_GT(eff_strong, eff_weak);
}

// ---------------------------------------------------------------------------
// AcDcSource
// ---------------------------------------------------------------------------

TEST(AcDc, KeyedToMachineryVibration) {
  AcDcSource src("acdc", {});
  src.set_conditions(shaking(0.1));  // machinery off
  EXPECT_DOUBLE_EQ(src.open_circuit_voltage().value(), 0.0);
  src.set_conditions(shaking(2.0));  // machinery energized
  EXPECT_GT(src.open_circuit_voltage().value(), 5.0);
  EXPECT_GT(src.maximum_power_point().p.value(), 1e-3);
}

TEST(AcDc, RequiresAboveFiveVolts) {
  AcDcSource::Params p;
  p.rectified_voc = Volts{4.0};
  EXPECT_THROW(AcDcSource("x", p), SpecError);
}

// ---------------------------------------------------------------------------
// Generic harvester properties, parameterized across the whole zoo
// ---------------------------------------------------------------------------

struct Sample {
  const char* name;
  std::function<std::unique_ptr<Harvester>()> make;
  env::AmbientConditions conditions;
};

class HarvesterInvariants : public ::testing::TestWithParam<int> {
 public:
  static std::vector<Sample> samples() {
    std::vector<Sample> out;
    out.push_back({"pv", [] { return std::make_unique<PvPanel>("pv", PvPanel::Params{}); },
                   sunny(600.0)});
    out.push_back(
        {"wind",
         [] { return std::make_unique<WindTurbine>("wt", WindTurbine::Params{}); },
         windy(6.0)});
    out.push_back({"teg", [] { return std::make_unique<Teg>("teg", Teg::Params{}); },
                   hot(10.0)});
    out.push_back({"piezo",
                   [] {
                     return std::make_unique<VibrationHarvester>(
                         VibrationHarvester::piezo("pz"));
                   },
                   shaking(3.0)});
    out.push_back({"rf",
                   [] {
                     return std::make_unique<RfHarvester>("rf",
                                                          RfHarvester::Params{});
                   },
                   [] {
                     env::AmbientConditions c;
                     c.rf_power_density = WattsPerSquareMeter{5e-3};
                     return c;
                   }()});
    out.push_back({"acdc",
                   [] {
                     return std::make_unique<AcDcSource>("ac", AcDcSource::Params{});
                   },
                   shaking(2.0)});
    return out;
  }
};

TEST_P(HarvesterInvariants, PowerNonNegativeEverywhere) {
  const auto s = samples()[static_cast<std::size_t>(GetParam())];
  auto h = s.make();
  h->set_conditions(s.conditions);
  const double voc = h->open_circuit_voltage().value();
  for (double v = 0.0; v <= voc * 1.2 + 0.1; v += std::max(0.01, voc / 50.0))
    EXPECT_GE(h->power_at(Volts{v}).value(), 0.0) << s.name << " at " << v;
}

TEST_P(HarvesterInvariants, ZeroCurrentAtOrAboveVoc) {
  const auto s = samples()[static_cast<std::size_t>(GetParam())];
  auto h = s.make();
  h->set_conditions(s.conditions);
  const double voc = h->open_circuit_voltage().value();
  EXPECT_NEAR(h->current_at(Volts{voc}).value(), 0.0, 1e-6) << s.name;
  EXPECT_DOUBLE_EQ(h->current_at(Volts{voc + 1.0}).value(), 0.0) << s.name;
}

TEST_P(HarvesterInvariants, MppDominatesSampledCurve) {
  const auto s = samples()[static_cast<std::size_t>(GetParam())];
  auto h = s.make();
  h->set_conditions(s.conditions);
  const auto mpp = h->maximum_power_point();
  const double voc = h->open_circuit_voltage().value();
  for (double v = 0.01; v < voc; v += voc / 37.0)
    EXPECT_LE(h->power_at(Volts{v}).value(), mpp.p.value() * (1.0 + 1e-6))
        << s.name << " at " << v;
}

TEST_P(HarvesterInvariants, NegativeTerminalVoltageBlocked) {
  const auto s = samples()[static_cast<std::size_t>(GetParam())];
  auto h = s.make();
  h->set_conditions(s.conditions);
  EXPECT_DOUBLE_EQ(h->current_at(Volts{-1.0}).value(), 0.0) << s.name;
}

INSTANTIATE_TEST_SUITE_P(AllHarvesters, HarvesterInvariants,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               HarvesterInvariants::samples()
                                   [static_cast<std::size_t>(info.param)]
                                       .name);
                         });

// ---------------------------------------------------------------------------
// MPP memoization (conditions-keyed cache on the Harvester base)
// ---------------------------------------------------------------------------

TEST(MppCache, IdenticalConditionsReuseTheCachedPoint) {
  PvPanel pv("pv", PvPanel::Params{});
  pv.set_conditions(sunny());
  EXPECT_EQ(pv.mpp_recomputes(), 0u);

  const auto first = pv.maximum_power_point();
  EXPECT_EQ(pv.mpp_recomputes(), 1u);
  EXPECT_EQ(pv.mpp_cache_hits(), 0u);

  const auto again = pv.maximum_power_point();
  EXPECT_EQ(pv.mpp_recomputes(), 1u);
  EXPECT_EQ(pv.mpp_cache_hits(), 1u);
  EXPECT_EQ(again.v.value(), first.v.value());
  EXPECT_EQ(again.i.value(), first.i.value());
  EXPECT_EQ(again.p.value(), first.p.value());

  // Re-applying *equal* conditions keeps the key and thus the cache.
  pv.set_conditions(sunny());
  (void)pv.maximum_power_point();
  EXPECT_EQ(pv.mpp_recomputes(), 1u);
  EXPECT_EQ(pv.mpp_cache_hits(), 2u);
}

TEST(MppCache, AnyChangedConditionsFieldRecomputes) {
  // The key compares every AmbientConditions field exactly, so mutating any
  // one of them must miss — even fields this transducer does not read (a
  // cheap, conservative rule that can never serve a stale curve).
  env::AmbientConditions base = sunny();
  const std::vector<std::function<void(env::AmbientConditions&)>> mutations = {
      [](auto& c) { c.solar_irradiance = WattsPerSquareMeter{801.0}; },
      [](auto& c) { c.illuminance = Lux{500.0}; },
      [](auto& c) { c.wind_speed = MetersPerSecond{1.0}; },
      [](auto& c) { c.thermal_gradient = Kelvin{2.0}; },
      [](auto& c) { c.vibration_rms = MetersPerSecondSquared{0.1}; },
      [](auto& c) { c.vibration_freq = Hertz{10.0}; },
      [](auto& c) { c.rf_power_density = WattsPerSquareMeter{1e-6}; },
      [](auto& c) { c.water_flow = MetersPerSecond{0.2}; },
  };
  PvPanel pv("pv", PvPanel::Params{});
  pv.set_conditions(base);
  (void)pv.maximum_power_point();
  std::uint64_t expected = 1;
  for (const auto& mutate : mutations) {
    env::AmbientConditions changed = base;
    mutate(changed);
    pv.set_conditions(changed);
    (void)pv.maximum_power_point();
    EXPECT_EQ(pv.mpp_recomputes(), ++expected);
    pv.set_conditions(base);
    (void)pv.maximum_power_point();
    EXPECT_EQ(pv.mpp_recomputes(), ++expected);
  }
}

TEST(MppCache, DisabledCacheRecomputesEveryCallWithIdenticalResults) {
  PvPanel cached("pv", PvPanel::Params{});
  PvPanel uncached("pv", PvPanel::Params{});
  cached.set_conditions(sunny());
  uncached.set_conditions(sunny());

  const auto hot = cached.maximum_power_point();
  (void)cached.maximum_power_point();

  Harvester::set_mpp_cache_enabled(false);
  const auto cold1 = uncached.maximum_power_point();
  const auto cold2 = uncached.maximum_power_point();
  Harvester::set_mpp_cache_enabled(true);

  EXPECT_EQ(uncached.mpp_recomputes(), 2u);
  EXPECT_EQ(uncached.mpp_cache_hits(), 0u);
  // Bit-identical: the cache must be invisible in every reported value.
  EXPECT_EQ(cold1.v.value(), hot.v.value());
  EXPECT_EQ(cold1.i.value(), hot.i.value());
  EXPECT_EQ(cold1.p.value(), hot.p.value());
  EXPECT_EQ(cold2.v.value(), hot.v.value());
  EXPECT_EQ(cold2.p.value(), hot.p.value());
}

TEST(MppCache, CachesAcrossAllTransducerKinds) {
  // Every concrete transducer inherits the memoization; two calls under one
  // set_conditions must cost exactly one compute_mpp.
  const env::AmbientConditions all = [] {
    env::AmbientConditions c;
    c.solar_irradiance = WattsPerSquareMeter{600.0};
    c.wind_speed = MetersPerSecond{5.0};
    c.thermal_gradient = Kelvin{10.0};
    c.vibration_rms = MetersPerSecondSquared{2.0};
    c.vibration_freq = Hertz{50.0};
    c.rf_power_density = WattsPerSquareMeter{1e-3};
    return c;
  }();
  std::vector<std::unique_ptr<Harvester>> hs;
  hs.push_back(std::make_unique<PvPanel>("pv", PvPanel::Params{}));
  hs.push_back(std::make_unique<WindTurbine>("w", WindTurbine::Params{}));
  hs.push_back(std::make_unique<Teg>("t", Teg::Params{}));
  hs.push_back(std::make_unique<VibrationHarvester>(
      VibrationHarvester::piezo("pz")));
  hs.push_back(std::make_unique<RfHarvester>("rf", RfHarvester::Params{}));
  for (auto& h : hs) {
    h->set_conditions(all);
    (void)h->maximum_power_point();
    (void)h->maximum_power_point();
    EXPECT_EQ(h->mpp_recomputes(), 1u) << h->name();
    EXPECT_EQ(h->mpp_cache_hits(), 1u) << h->name();
  }
}

/// Golden-section oracle for the shifted objective (u - s) I(u) over the
/// source voltage u — what a diode-OR combiner extracts behind a drop of s.
double golden_shifted_power(const Harvester& h, double s) {
  const double voc = h.open_circuit_voltage().value();
  if (voc <= s) return 0.0;
  const double u_star = golden_max_fn(
      [&h, s](double u) { return (u - s) * h.current_at(Volts{u}).value(); }, s,
      voc);
  return (u_star - s) * h.current_at(Volts{u_star}).value();
}

TEST(ShiftedMpp, PvNewtonMatchesGoldenSearch) {
  PvPanel pv("pv", {});
  pv.set_conditions(sunny(800.0));
  for (const double drop : {0.05, 0.15, 0.3, 0.6, 1.0}) {
    const auto closed = pv.shifted_mpp(Volts{drop});
    const double oracle = golden_shifted_power(pv, drop);
    ASSERT_GT(oracle, 0.0) << drop;
    EXPECT_NEAR(closed.p.value() / oracle, 1.0, 1e-9) << drop;
  }
  // Zero shift reduces to the plain (cached) MPP bit-for-bit.
  const auto plain = pv.maximum_power_point();
  const auto zero = pv.shifted_mpp(Volts{0.0});
  EXPECT_EQ(zero.v.value(), plain.v.value());
  EXPECT_EQ(zero.p.value(), plain.p.value());
}

TEST(ShiftedMpp, WindPlateauClosedFormMatchesGoldenSearch) {
  WindTurbine wt("wt", {});
  // 5 m/s: the aero cap bites (Thevenin max 0.34 W > 0.19 W available), so
  // the closed form must use the plateau's upper edge, not just the vertex.
  wt.set_conditions(windy(5.0));
  ASSERT_FALSE(wt.thevenin_equivalent().has_value());
  for (const double drop : {0.05, 0.3, 0.7}) {
    const auto closed = wt.shifted_mpp(Volts{drop});
    const double oracle = golden_shifted_power(wt, drop);
    ASSERT_GT(oracle, 0.0) << drop;
    EXPECT_NEAR(closed.p.value() / oracle, 1.0, 1e-9) << drop;
  }
  // 9.5 m/s: cap slack, the curve is exactly the Thevenin source again.
  wt.set_conditions(windy(9.5));
  const auto eq = wt.thevenin_equivalent();
  ASSERT_TRUE(eq.has_value());
  EXPECT_DOUBLE_EQ(eq->voc.value(), wt.open_circuit_voltage().value());
  const auto closed = wt.shifted_mpp(Volts{0.3});
  const double oracle = golden_shifted_power(wt, 0.3);
  EXPECT_NEAR(closed.p.value() / oracle, 1.0, 1e-9);
}

TEST(TheveninEquivalent, LinearSourcesExposeExactSource) {
  Teg::Params tp;
  tp.seebeck_per_kelvin = Volts{0.05};
  tp.internal_resistance = Ohms{5.0};
  Teg teg("teg", tp);
  teg.set_conditions(hot(10.0));
  const auto eq = teg.thevenin_equivalent();
  ASSERT_TRUE(eq.has_value());
  EXPECT_DOUBLE_EQ(eq->voc.value(), 0.5);
  EXPECT_DOUBLE_EQ(eq->r.value(), 5.0);
  // The equivalent reproduces the curve exactly at any voltage.
  for (const double v : {0.0, 0.1, 0.25, 0.4})
    EXPECT_DOUBLE_EQ(eq->current_at(Volts{v}).value(),
                     teg.current_at(Volts{v}).value());

  PvPanel pv("pv", {});
  pv.set_conditions(sunny(800.0));
  EXPECT_FALSE(pv.thevenin_equivalent().has_value());  // diode knee

  AcDcSource::Params ap;
  AcDcSource acdc("ac", ap);
  acdc.set_conditions(shaking(1.0));  // above machinery threshold: energized
  const auto on = acdc.thevenin_equivalent();
  ASSERT_TRUE(on.has_value());
  EXPECT_DOUBLE_EQ(on->voc.value(), ap.rectified_voc.value());
  acdc.set_conditions(shaking(0.0));
  const auto off = acdc.thevenin_equivalent();
  ASSERT_TRUE(off.has_value());
  EXPECT_DOUBLE_EQ(off->voc.value(), 0.0);
}

TEST(CurveRevision, BumpsOnConditionChangeNotOnRepeat) {
  Teg teg("teg", {});
  teg.set_conditions(hot(10.0));
  const auto r1 = teg.curve_revision();
  teg.set_conditions(hot(10.0));  // identical key: no bump
  EXPECT_EQ(teg.curve_revision(), r1);
  teg.set_conditions(hot(12.0));  // curve changed
  EXPECT_GT(teg.curve_revision(), r1);
}

TEST(HarvesterKindNames, Coverage) {
  EXPECT_EQ(to_string(HarvesterKind::kPhotovoltaic), "Light");
  EXPECT_EQ(to_string(HarvesterKind::kWind), "Wind");
  EXPECT_EQ(to_string(HarvesterKind::kThermoelectric), "Thermal");
  EXPECT_EQ(to_string(HarvesterKind::kPiezo), "Vibration");
  EXPECT_EQ(to_string(HarvesterKind::kInductive), "Inductive");
  EXPECT_EQ(to_string(HarvesterKind::kRf), "Radio");
  EXPECT_EQ(to_string(HarvesterKind::kWaterFlow), "Water Flow");
  EXPECT_EQ(to_string(HarvesterKind::kAcDc), "AC/DC");
}

}  // namespace
}  // namespace msehsim::harvest
