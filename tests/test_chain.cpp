// Input/output conditioning chains: end-to-end power delivery, MPPT
// scheduling, overhead accounting, rail feasibility.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "harvest/transducers.hpp"
#include "power/chain.hpp"

namespace msehsim::power {
namespace {

env::AmbientConditions sunny(double g = 800.0) {
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{g};
  return c;
}

std::unique_ptr<InputChain> pv_chain(std::unique_ptr<MpptController> mppt,
                                     Seconds period = Seconds{10.0}) {
  return std::make_unique<InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::move(mppt), Converter::smart_buck_boost("fe"), period);
}

TEST(InputChain, DeliversPowerWhenLit) {
  auto chain = pv_chain(std::make_unique<OracleMppt>());
  Watts total{0.0};
  for (int i = 0; i < 60; ++i)
    total += chain->step(sunny(), Volts{3.3}, Seconds{static_cast<double>(i)},
                         Seconds{1.0});
  EXPECT_GT(total.value(), 0.0);
  EXPECT_GT(chain->delivered_energy().value(), 0.0);
}

TEST(InputChain, NothingInTheDark) {
  auto chain = pv_chain(std::make_unique<OracleMppt>());
  const Watts out =
      chain->step(sunny(0.0), Volts{3.3}, Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(out.value(), 0.0);
}

TEST(InputChain, DeliveredNeverExceedsTransducerPower) {
  auto chain = pv_chain(std::make_unique<OracleMppt>());
  for (int i = 0; i < 30; ++i) {
    const Watts out = chain->step(sunny(500.0), Volts{3.3},
                                  Seconds{static_cast<double>(i)}, Seconds{1.0});
    EXPECT_LE(out.value(), chain->transducer_power().value() + 1e-12);
  }
}

TEST(InputChain, MpptRunsAtConfiguredPeriod) {
  // Overhead accrues once per period, not per step.
  PerturbObserve::Params params;
  params.overhead_per_update = Joules{10e-6};
  auto chain = pv_chain(std::make_unique<PerturbObserve>(params), Seconds{10.0});
  for (int i = 0; i < 100; ++i)
    chain->step(sunny(), Volts{3.3}, Seconds{static_cast<double>(i)},
                Seconds{1.0});
  // 100 s at one update each 10 s -> 10 updates.
  EXPECT_NEAR(chain->tracker_overhead_energy().value(), 10 * 10e-6, 1e-9);
}

TEST(InputChain, OracleTrackingEfficiencyNearOne) {
  auto chain = pv_chain(std::make_unique<OracleMppt>(), Seconds{1.0});
  for (int i = 0; i < 120; ++i)
    chain->step(sunny(), Volts{3.3}, Seconds{static_cast<double>(i)},
                Seconds{1.0});
  EXPECT_GT(chain->tracking_efficiency(), 0.99);
}

TEST(InputChain, FixedPointTrackingEfficiencyBelowOracle) {
  // Tune the fixed point for full sun, run in low light.
  auto oracle_chain = pv_chain(std::make_unique<OracleMppt>(), Seconds{1.0});
  auto fixed_chain = pv_chain(std::make_unique<FixedPoint>(Volts{3.5}),
                              Seconds{1.0});
  for (int i = 0; i < 120; ++i) {
    oracle_chain->step(sunny(150.0), Volts{3.3},
                       Seconds{static_cast<double>(i)}, Seconds{1.0});
    fixed_chain->step(sunny(150.0), Volts{3.3},
                      Seconds{static_cast<double>(i)}, Seconds{1.0});
  }
  EXPECT_LT(fixed_chain->tracking_efficiency(),
            oracle_chain->tracking_efficiency());
}

TEST(InputChain, FractionalVocInterruptionReducesDelivery) {
  FractionalVoc::Params heavy;
  heavy.sample_time = Seconds{0.5};  // absurdly long sample: half the step
  auto interrupted = pv_chain(std::make_unique<FractionalVoc>(heavy),
                              Seconds{1.0});
  FractionalVoc::Params light;
  light.sample_time = Seconds{0.0};
  auto clean = pv_chain(std::make_unique<FractionalVoc>(light), Seconds{1.0});
  Watts p_int{0.0};
  Watts p_clean{0.0};
  for (int i = 0; i < 10; ++i) {
    p_int += interrupted->step(sunny(), Volts{3.3},
                               Seconds{static_cast<double>(i)}, Seconds{1.0});
    p_clean += clean->step(sunny(), Volts{3.3},
                           Seconds{static_cast<double>(i)}, Seconds{1.0});
  }
  EXPECT_LT(p_int.value(), p_clean.value());
}

TEST(InputChain, RejectsNulls) {
  EXPECT_THROW(InputChain(nullptr, std::make_unique<OracleMppt>(),
                          Converter::smart_buck_boost("fe"), Seconds{1.0}),
               SpecError);
  EXPECT_THROW(
      InputChain(std::make_unique<harvest::PvPanel>("pv",
                                                    harvest::PvPanel::Params{}),
                 nullptr, Converter::smart_buck_boost("fe"), Seconds{1.0}),
      SpecError);
}

TEST(InputChain, ColdStartBlocksUntilThresholdOnceReached) {
  Converter::Params cp;
  cp.topology = Topology::kBoost;
  cp.peak_efficiency = 0.85;
  cp.rated_power = Watts{20e-3};
  cp.quiescent_current = Amps{0.5e-6};
  cp.min_input = Volts{0.1};
  cp.max_input = Volts{5.0};
  cp.startup_voltage = Volts{2.5};  // boost needs 2.5 V to bootstrap
  auto chain = std::make_unique<InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<FixedPoint>(Volts{1.0}), Converter("cold", cp),
      Seconds{1.0});
  // Operating at 1.0 V: below the startup threshold -> nothing delivered.
  Watts out = chain->step(sunny(800.0), Volts{3.3}, Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(out.value(), 0.0);
  EXPECT_FALSE(chain->started());

  // Same converter with an operating point above the threshold bootstraps.
  Converter::Params cp2 = cp;
  auto chain2 = std::make_unique<InputChain>(
      std::make_unique<harvest::PvPanel>("pv2", harvest::PvPanel::Params{}),
      std::make_unique<FixedPoint>(Volts{3.0}), Converter("cold2", cp2),
      Seconds{1.0});
  out = chain2->step(sunny(800.0), Volts{3.3}, Seconds{0.0}, Seconds{1.0});
  EXPECT_GT(out.value(), 0.0);
  EXPECT_TRUE(chain2->started());
}

TEST(InputChain, ColdStartSurvivesDipAboveMinInput) {
  // Once started, the converter keeps running below the startup threshold
  // (but above min_input) — the bootstrap-supply behaviour.
  Converter::Params cp;
  cp.topology = Topology::kBuckBoost;
  cp.peak_efficiency = 0.85;
  cp.rated_power = Watts{20e-3};
  cp.quiescent_current = Amps{0.5e-6};
  cp.min_input = Volts{0.3};
  cp.max_input = Volts{5.0};
  cp.startup_voltage = Volts{3.0};
  auto chain = std::make_unique<InputChain>(
      std::make_unique<harvest::PvPanel>("pv", harvest::PvPanel::Params{}),
      std::make_unique<FractionalVoc>(), Converter("boot", cp), Seconds{1.0});
  // Bright: frac-Voc picks ~3.2 V -> starts.
  chain->step(sunny(1000.0), Volts{3.3}, Seconds{0.0}, Seconds{1.0});
  ASSERT_TRUE(chain->started());
  // Dim: operating point drops to ~2 V < startup but > min_input: stays up.
  const Watts out =
      chain->step(sunny(100.0), Volts{3.3}, Seconds{1.0}, Seconds{1.0});
  EXPECT_TRUE(chain->started());
  EXPECT_GT(out.value(), 0.0);
}

TEST(InputChain, NoStartupThresholdAlwaysStarted) {
  auto chain = pv_chain(std::make_unique<OracleMppt>());
  chain->step(sunny(0.0), Volts{3.3}, Seconds{0.0}, Seconds{1.0});
  EXPECT_TRUE(chain->started());
}

TEST(OutputChain, RailFeasibilityFollowsConverterWindow) {
  OutputChain out(Converter::nano_ldo("ldo"), Volts{3.0});
  EXPECT_TRUE(out.rail_available(Volts{3.5}));
  EXPECT_FALSE(out.rail_available(Volts{2.5}));  // LDO: vin >= vout
  EXPECT_FALSE(out.rail_available(Volts{0.5}));  // below min_input
}

TEST(OutputChain, RequiredBusPowerCoversLoadPlusLosses) {
  OutputChain out(Converter::smart_buck_boost("bb"), Volts{3.0});
  const Watts need = out.required_bus_power(Watts{10e-3}, Volts{4.0});
  EXPECT_GT(need.value(), 10e-3);        // losses are positive
  EXPECT_LT(need.value(), 10e-3 / 0.7);  // but bounded
}

TEST(OutputChain, InfeasibleRailNeedsZero) {
  OutputChain out(Converter::nano_ldo("ldo"), Volts{3.0});
  EXPECT_DOUBLE_EQ(out.required_bus_power(Watts{1e-3}, Volts{1.0}).value(), 0.0);
}

std::uint64_t bits(Watts w) { return std::bit_cast<std::uint64_t>(w.value()); }

/// The one-entry memo of required_bus_power returns, bit for bit, what a
/// fresh inversion gives: over repeated keys, alternating keys, keys that
/// change one half at a time, an infeasible bus (below the LDO's dropout,
/// below either converter's input window), signed zeros and NaN loads.
TEST(OutputChain, RequiredBusPowerMemoMatchesFreshInversion) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> keys = {
      {10e-3, 4.0}, {10e-3, 4.0}, {10e-3, 4.0},               // repeated
      {2e-3, 3.6},  {10e-3, 4.0}, {2e-3, 3.6},  {10e-3, 4.0},  // alternating
      {10e-3, 3.6}, {2e-3, 3.6},  {2e-3, 4.0},                 // one half
      {10e-3, 2.5}, {10e-3, 2.5}, {10e-3, 4.0}, {10e-3, 2.5},  // dropout
      {10e-3, 0.5}, {10e-3, 0.5}, {2e-3, 0.5},                 // below window
      {0.0, 4.0},   {-0.0, 4.0},  {0.0, 4.0},   {-0.0, 2.5},  {0.0, 2.5},
      {nan, 4.0},   {nan, 4.0},   {10e-3, 4.0}, {nan, 2.5},   {nan, 2.5}};
  for (const Converter& converter :
       {Converter::nano_ldo("ldo"), Converter::smart_buck_boost("bb")}) {
    const OutputChain out(converter, Volts{3.0});
    for (const auto& [load, bus] : keys) {
      const Watts fresh =
          out.rail_available(Volts{bus})
              ? out.converter().required_input(Watts{load}, Volts{bus},
                                               out.rail_voltage())
              : Watts{0.0};
      EXPECT_EQ(bits(out.required_bus_power(Watts{load}, Volts{bus})),
                bits(fresh))
          << converter.name() << ", load " << load << " W, bus " << bus << " V";
    }
  }
}

TEST(OutputChain, RejectsNonPositiveRail) {
  EXPECT_THROW(OutputChain(Converter::nano_ldo("ldo"), Volts{0.0}), SpecError);
}

}  // namespace
}  // namespace msehsim::power
