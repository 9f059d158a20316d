// Platform power flow: charging, discharging, brownout, hot-swap, and
// classification plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/solve.hpp"
#include "env/environment.hpp"
#include "harvest/transducers.hpp"
#include "power/mppt.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim::systems {
namespace {

using harvest::PvPanel;
using power::Converter;
using power::InputChain;
using power::OracleMppt;
using power::OutputChain;
using storage::Supercapacitor;

env::AmbientConditions sunny(double g = 800.0) {
  env::AmbientConditions c;
  c.solar_irradiance = WattsPerSquareMeter{g};
  return c;
}

PlatformSpec small_spec() {
  PlatformSpec s;
  s.name = "test-platform";
  s.quiescent_current = Amps{2e-6};
  return s;
}

std::unique_ptr<InputChain> pv_chain() {
  return std::make_unique<InputChain>(
      std::make_unique<PvPanel>("pv", PvPanel::Params{}),
      std::make_unique<OracleMppt>(), Converter::smart_buck_boost("fe"),
      Seconds{5.0});
}

std::unique_ptr<Supercapacitor> small_cap(double v0) {
  Supercapacitor::Params p;
  p.main_capacitance = Farads{5.0};
  p.slow_capacitance = Farads{0.0};
  p.initial_voltage = Volts{v0};
  return std::make_unique<Supercapacitor>("sc", p);
}

std::unique_ptr<node::SensorNode> small_node() {
  node::WorkloadParams w;
  w.task_period = Seconds{30.0};
  return std::make_unique<node::SensorNode>("n", node::McuParams{},
                                            node::RadioParams{}, w);
}

TEST(Platform, RequiresName) {
  PlatformSpec s;
  EXPECT_THROW(Platform{s}, SpecError);
}

TEST(Platform, SunChargesTheStore) {
  Platform p(small_spec());
  p.add_input(pv_chain());
  p.add_storage(small_cap(2.0), 0);
  const double v0 = p.bus_voltage().value();
  for (int i = 0; i < 300; ++i)
    p.step(sunny(), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_GT(p.bus_voltage().value(), v0);
  EXPECT_GT(p.harvested_energy().value(), 0.0);
  EXPECT_EQ(p.brownouts(), 0u);
}

TEST(Platform, NodeRunsFromStoredEnergyInTheDark) {
  Platform p(small_spec());
  p.add_storage(small_cap(4.0), 0);
  p.set_output(OutputChain(Converter::nano_ldo("out"), Volts{3.0}));
  p.set_node(small_node());
  for (int i = 0; i < 600; ++i)
    p.step(sunny(0.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_GT(p.node()->packets_sent(), 0u);
  EXPECT_GT(p.load_energy().value(), 0.0);
  EXPECT_LT(p.bus_voltage().value(), 4.0);  // store drained
}

TEST(Platform, EmptyStoreMeansNodeDown) {
  Platform p(small_spec());
  p.add_storage(small_cap(0.5), 0);  // below LDO dropout
  p.set_output(OutputChain(Converter::nano_ldo("out"), Volts{3.0}));
  p.set_node(small_node());
  for (int i = 0; i < 100; ++i)
    p.step(sunny(0.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_EQ(p.node()->packets_sent(), 0u);
  EXPECT_DOUBLE_EQ(p.node()->availability(), 0.0);
}

TEST(Platform, QuiescentEnergyAccrues) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  for (int i = 0; i < 100; ++i)
    p.step(sunny(0.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
  // ~ 2 uA * 3 V * 100 s.
  EXPECT_NEAR(p.quiescent_energy().value(), 2e-6 * 3.0 * 100.0, 2e-4);
}

TEST(Platform, ChargePriorityFillsFirstStoreFirst) {
  Platform p(small_spec());
  p.add_input(pv_chain());
  auto cap_hi = small_cap(1.0);
  auto cap_lo = small_cap(1.0);
  auto* hi = cap_hi.get();
  auto* lo = cap_lo.get();
  p.add_storage(std::move(cap_hi), 0);
  p.add_storage(std::move(cap_lo), 1);
  for (int i = 0; i < 60; ++i)
    p.step(sunny(), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_GT(hi->stored_energy().value(), lo->stored_energy().value());
}

TEST(Platform, SurplusBeyondAllStoresIsWasted) {
  Platform p(small_spec());
  p.add_input(pv_chain());
  // Tiny, nearly full store: most harvest has nowhere to go.
  Supercapacitor::Params sp;
  sp.main_capacitance = Farads{0.01};
  sp.slow_capacitance = Farads{0.0};
  sp.initial_voltage = Volts{4.95};
  p.add_storage(std::make_unique<Supercapacitor>("tiny", sp), 0);
  for (int i = 0; i < 120; ++i)
    p.step(sunny(1000.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
  EXPECT_GT(p.wasted_energy().value(), 0.0);
}

TEST(Platform, BrownoutLatchDropsRailNextStep) {
  Platform p(small_spec());
  // A store too weak for the node's draw: max_discharge_power ~ V^2/4ESR
  // is fine, so instead start nearly empty to trigger a mid-run collapse.
  p.add_storage(small_cap(2.55), 0);
  p.set_output(OutputChain(Converter::nano_ldo("out"), Volts{2.5}));
  p.set_node(small_node());
  std::uint64_t packets_at_collapse = 0;
  for (int i = 0; i < 9000; ++i) {
    p.step(sunny(0.0), Seconds{static_cast<double>(i)}, Seconds{1.0});
    if (p.node()->is_up()) packets_at_collapse = p.node()->packets_sent();
  }
  // Node ran for a while, then the LDO lost headroom and the node stopped.
  EXPECT_GT(packets_at_collapse, 0u);
  EXPECT_FALSE(p.node()->is_up());
}

TEST(Platform, HotSwapReplacesDevice) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  const double e_before = p.store(0).stored_energy().value();
  auto old = p.swap_storage(0, small_cap(1.0));
  EXPECT_NE(p.store(0).stored_energy().value(), e_before);
  EXPECT_NEAR(old->stored_energy().value(), e_before, 1e-9);
}

TEST(Platform, SwapStorageValidatesSlot) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  EXPECT_THROW(p.swap_storage(5, small_cap(1.0)), SpecError);
  EXPECT_THROW(p.swap_storage(0, nullptr), SpecError);
}

TEST(Platform, ClassifyCountsStructure) {
  Platform p(small_spec());
  p.add_input(pv_chain());
  p.add_input(pv_chain());
  p.add_storage(small_cap(3.0), 0);
  const auto c = p.classify();
  EXPECT_EQ(c.harvester_count, 2);
  EXPECT_EQ(c.storage_count, 1);
  // Two PV chains collapse into one kind entry.
  ASSERT_EQ(c.harvester_kinds.size(), 1u);
  EXPECT_EQ(c.harvester_kinds[0], harvest::HarvesterKind::kPhotovoltaic);
  EXPECT_EQ(c.energy_monitoring, "No");
  EXPECT_TRUE(c.uses_mppt);  // OracleMppt is adaptive
}

TEST(Platform, FuelCellPolicyRequiresFuelCellSlot) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  EXPECT_THROW(p.set_fuel_cell_policy(manager::FuelCellPolicy{}, 0), SpecError);
}

TEST(Platform, ManagementTickWithoutManagersIsSafe) {
  Platform p(small_spec());
  p.add_storage(small_cap(3.0), 0);
  p.management_tick(Seconds{0.0});  // no monitor, no policies: no crash
  EXPECT_FALSE(p.last_estimate().valid);
}

TEST(Platform, AmbientSocExcludesNonRechargeables) {
  Platform p(small_spec());
  p.add_storage(small_cap(5.0), 0);  // full
  storage::FuelCell::Params fc;
  p.add_storage(std::make_unique<storage::FuelCell>("fc", fc), 1);
  // Fuel cell (non-rechargeable) must not dilute the ambient SoC.
  EXPECT_NEAR(p.ambient_soc(), 1.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Closed-form oracles through the whole stack: run_platform over ambient
// conditions that never change, checked against the analytic solution at
// solver steps from a quarter second to a minute. They test the physics of
// harvester -> tracker -> converter -> storage against a formula, not one
// code path against another.
// ---------------------------------------------------------------------------

constexpr double kOracleDts[] = {0.25, 1.0, 5.0, 60.0};

/// The same ambient conditions on every step.
class ConstantAmbient final : public env::EnvironmentModel {
 public:
  explicit ConstantAmbient(env::AmbientConditions c) : c_(c) {}
  env::AmbientConditions advance(Seconds, Seconds) override { return c_; }
  [[nodiscard]] std::string description() const override { return "constant"; }

 private:
  env::AmbientConditions c_;
};

/// A lossless converter: efficiency 1, no quiescent draw, no conduction
/// loss, so it passes its input power through unchanged.
Converter ideal_converter() {
  Converter::Params p;
  p.peak_efficiency = 1.0;
  p.quiescent_current = Amps{0.0};
  p.conduction_loss_fraction = 0.0;
  return Converter("ideal", p);
}

/// Ideal single-branch capacitor: no slow branch, no ESR, constant C, and
/// self-discharge through @p leak_ohms (infinite: none).
std::unique_ptr<Supercapacitor> ideal_cap(double farads, double volts,
                                          double leak_ohms) {
  Supercapacitor::Params p;
  p.main_capacitance = Farads{farads};
  p.slow_capacitance = Farads{0.0};
  p.esr = Ohms{0.0};
  p.leakage_resistance = Ohms{leak_ohms};
  p.max_voltage = Volts{5.0};
  p.initial_voltage = Volts{volts};
  return std::make_unique<Supercapacitor>("ideal", p);
}

/// One source through @p mppt and the ideal converter into @p store; no
/// node, no monitor, no quiescent draw (the spec's default is 0 A).
std::unique_ptr<Platform> oracle_platform(
    std::unique_ptr<harvest::Harvester> source,
    std::unique_ptr<power::MpptController> mppt, Seconds mppt_period,
    std::unique_ptr<storage::StorageDevice> store) {
  PlatformSpec spec;
  spec.name = "oracle";
  auto p = std::make_unique<Platform>(spec);
  p->add_input(std::make_unique<InputChain>(std::move(source), std::move(mppt),
                                            ideal_converter(), mppt_period));
  p->add_storage(std::move(store), 0);
  return p;
}

/// Irradiance of the PV scenario, and the panel's maximum power under it,
/// found by golden-section search over the I-V curve (not the panel's own
/// Newton MPP solve).
constexpr double kOracleIrradiance = 100.0;
double pv_max_power() {
  PvPanel panel("pv", PvPanel::Params{});
  panel.set_conditions(sunny(kOracleIrradiance));
  const double voc = panel.open_circuit_voltage().value();
  const double v = golden_max_fn(
      [&](double x) { return panel.power_at(Volts{x}).value(); }, 0.0, voc);
  return panel.power_at(Volts{v}).value();
}

/// Bus voltage (the capacitor's) at every timeline row of a PV run:
/// (time, volts) pairs, one a minute, starting at t = 0.
std::vector<std::pair<double, double>> pv_cap_voltages(double dt,
                                                       double duration,
                                                       double farads,
                                                       double v0,
                                                       double leak_ohms) {
  auto p = oracle_platform(std::make_unique<PvPanel>("pv", PvPanel::Params{}),
                           std::make_unique<OracleMppt>(), Seconds{dt},
                           ideal_cap(farads, v0, leak_ohms));
  ConstantAmbient sun(sunny(kOracleIrradiance));
  RunOptions options;
  options.dt = Seconds{dt};
  options.timeline_dt = Seconds{60.0};
  const auto r = run_platform(*p, sun, Seconds{duration}, options);
  const auto& t = r.timeline->time();
  const auto& v = r.timeline->column(r.timeline->find_column("bus_voltage_v"));
  std::vector<std::pair<double, double>> out;
  for (std::size_t i = 0; i < t.size(); ++i) out.emplace_back(t[i], v[i]);
  return out;
}

TEST(PlatformOracle, IdealPvChargesCapacitorByEnergyBalance) {
  // All of P_mpp reaches the capacitor: C V dV/dt = P, so
  // V(t)^2 = V0^2 + 2 P t / C. The capacitor's mid-step update makes every
  // step exact in real arithmetic, so only rounding separates simulation
  // from formula (relative 1e-9 on V^2 over up to 7200 steps).
  constexpr double kC = 5.0, kV0 = 1.0, kT = 1800.0;
  const double p = pv_max_power();
  ASSERT_GT(p, 0.0);
  for (const double dt : kOracleDts) {
    SCOPED_TRACE(dt);
    const auto rows = pv_cap_voltages(dt, kT, kC, kV0,
                                      std::numeric_limits<double>::infinity());
    ASSERT_EQ(rows.size(), 30u);
    double worst = 0.0;
    for (const auto& [t, v] : rows) {
      const double expect = kV0 * kV0 + 2.0 * p * t / kC;
      worst = std::max(worst, std::fabs(v * v - expect) / expect);
    }
    EXPECT_LE(worst, 1e-9);
    EXPECT_GT(rows.back().second, 3.0);  // the run charged the cap for real
  }
}

TEST(PlatformOracle, IdealPvIntoLeakyCapacitorApproachesPR) {
  // C V dV/dt = P - V^2 / R gives V(t)^2 = P R + (V0^2 - P R) e^(-2t/RC).
  // The platform applies a step's charge, then its exact exponential
  // leakage: that split leaves a relative error on V^2 of about dt / RC
  // (its leading term), and the bound below is twice that plus rounding.
  constexpr double kC = 50.0, kR = 1000.0, kV0 = 0.5, kT = 3.0 * 3600.0;
  const double p = pv_max_power();
  const double pr = p * kR;
  for (const double dt : kOracleDts) {
    SCOPED_TRACE(dt);
    const auto rows = pv_cap_voltages(dt, kT, kC, kV0, kR);
    ASSERT_EQ(rows.size(), 180u);
    double worst = 0.0;
    for (const auto& [t, v] : rows) {
      const double expect =
          pr + (kV0 * kV0 - pr) * std::exp(-2.0 * t / (kR * kC));
      worst = std::max(worst, std::fabs(v * v - expect) / expect);
    }
    EXPECT_LE(worst, 2.0 * dt / (kR * kC) + 1e-9);
    EXPECT_GT(rows.back().second * rows.back().second, 0.3 * pr);
  }
}

/// P&O that records every setpoint it picks.
class RecordedPerturbObserve final : public power::MpptController {
 public:
  RecordedPerturbObserve(power::PerturbObserve::Params params,
                         std::vector<double>& setpoints)
      : inner_(params), setpoints_(setpoints) {}
  [[nodiscard]] std::string_view name() const override { return "P&O"; }
  Volts update(const harvest::Harvester& harvester, Volts present) override {
    const Volts next = inner_.update(harvester, present);
    setpoints_.push_back(next.value());
    return next;
  }
  [[nodiscard]] Joules overhead_per_update() const override {
    return inner_.overhead_per_update();
  }

 private:
  power::PerturbObserve inner_;
  std::vector<double>& setpoints_;
};

TEST(PlatformOracle, PerturbObserveHoldsTheTheveninMaximumPowerBand) {
  // A Thevenin source delivers P(V) = V (Voc - V) / R, maximal at Voc / 2
  // with Voc^2 / (4R). Once it has climbed there, P&O with step s keeps
  // every setpoint within Voc / 2 +- 2s, so the power it delivers through
  // a lossless converter averages at least Voc^2 / (4R) - (2s)^2 / R.
  constexpr double kVoc = 8.0, kR = 200.0, kStep = 0.05, kT = 3.0 * 3600.0;
  constexpr double kBand = 2.0 * kStep;
  const double floor_w = kVoc * kVoc / (4.0 * kR) - kBand * kBand / kR;
  env::AmbientConditions machinery;
  machinery.vibration_rms = MetersPerSecondSquared{1.0};  // energized
  for (const double dt : kOracleDts) {
    SCOPED_TRACE(dt);
    harvest::AcDcSource::Params source;
    source.rectified_voc = Volts{kVoc};
    source.internal_resistance = Ohms{kR};
    power::PerturbObserve::Params tracker;
    tracker.step = Volts{kStep};
    tracker.overhead_per_update = Joules{0.0};
    std::vector<double> setpoints;
    auto p = oracle_platform(
        std::make_unique<harvest::AcDcSource>("acdc", source),
        std::make_unique<RecordedPerturbObserve>(tracker, setpoints),
        Seconds{1.0},
        ideal_cap(1e4, 1.0, std::numeric_limits<double>::infinity()));
    ConstantAmbient ambient(machinery);
    RunOptions options;
    options.dt = Seconds{dt};
    options.timeline_dt = Seconds{60.0};
    const auto r = run_platform(*p, ambient, Seconds{kT}, options);

    // Steady state: the second half of the run. The climb from the chain's
    // 0.5 V start takes 70 updates, under half of the 180 a 60 s step gets.
    ASSERT_GE(setpoints.size(), 180u);
    for (std::size_t i = setpoints.size() / 2; i < setpoints.size(); ++i)
      ASSERT_NEAR(setpoints[i], kVoc / 2.0, kBand + 1e-9) << "update " << i;
    const auto& t = r.timeline->time();
    const auto& w =
        r.timeline->column(r.timeline->find_column("source[0].delivered_w"));
    double sum = 0.0;
    int rows = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i] <= kT / 2.0) continue;  // a row reports the minute before it
      sum += w[i];
      ++rows;
    }
    ASSERT_GT(rows, 0);
    EXPECT_GE(sum / rows, floor_w);
    EXPECT_LE(sum / rows, kVoc * kVoc / (4.0 * kR) + 1e-12);
  }
}

}  // namespace
}  // namespace msehsim::systems
