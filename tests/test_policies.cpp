// Management policies: duty-cycle adaptation, fuel-cell hysteresis, and the
// prioritized backup chain's debounce boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/error.hpp"
#include "manager/backup_chain.hpp"
#include "manager/policies.hpp"
#include "storage/supercapacitor.hpp"
#include "storage/switched.hpp"

namespace msehsim::manager {
namespace {

node::SensorNode make_node(Seconds period = Seconds{60.0}) {
  node::WorkloadParams w;
  w.task_period = period;
  return node::SensorNode("n", node::McuParams{}, node::RadioParams{}, w);
}

EnergyEstimate estimate_with_soc(double soc) {
  EnergyEstimate e;
  e.valid = true;
  e.capacity = Joules{100.0};
  e.stored = Joules{100.0 * soc};
  return e;
}

TEST(DutyCycle, LowSocLengthensPeriod) {
  DutyCycleController ctl;
  auto n = make_node(Seconds{60.0});
  ctl.update(estimate_with_soc(0.2), n);
  EXPECT_GT(n.task_period().value(), 60.0);
  EXPECT_EQ(ctl.adjustments(), 1u);
}

TEST(DutyCycle, HighSocShortensPeriod) {
  DutyCycleController ctl;
  auto n = make_node(Seconds{60.0});
  ctl.update(estimate_with_soc(0.95), n);
  EXPECT_LT(n.task_period().value(), 60.0);
}

TEST(DutyCycle, LeavesMaxPeriodWhenSocIsHigh) {
  // A node parked at its slowest period must be able to speed up again once
  // the store fills: a controller that cannot leave T_max latches the node
  // at one packet per max_period for the rest of the run.
  DutyCycleController ctl;
  const Seconds t_max = make_node().workload().max_period;
  auto n = make_node(t_max);
  ctl.update(estimate_with_soc(0.95), n);
  EXPECT_LT(n.task_period().value(), t_max.value());
  EXPECT_EQ(ctl.adjustments(), 1u);
}

TEST(DutyCycle, DeadbandHoldsSteady) {
  DutyCycleController ctl;  // target 0.6, deadband 0.05
  auto n = make_node(Seconds{60.0});
  ctl.update(estimate_with_soc(0.62), n);
  EXPECT_DOUBLE_EQ(n.task_period().value(), 60.0);
  EXPECT_EQ(ctl.adjustments(), 0u);
}

TEST(DutyCycle, InvalidEstimateMeansNoAdaptation) {
  // A blind system cannot adapt — the survey's central observation.
  DutyCycleController ctl;
  auto n = make_node(Seconds{60.0});
  ctl.update(EnergyEstimate{}, n);
  EXPECT_DOUBLE_EQ(n.task_period().value(), 60.0);
  EXPECT_EQ(ctl.adjustments(), 0u);
}

TEST(DutyCycle, StepIsBounded) {
  // Full-scale error: at SoC 0 the step 1 + 1.5 * 0.6 = 1.9x stays within
  // the 2x cap; at SoC 1 the step 1 - 1.5 * 0.4 = 0.4x clamps to 0.5x.
  DutyCycleController ctl;
  auto n = make_node(Seconds{60.0});
  ctl.update(estimate_with_soc(0.0), n);
  EXPECT_GT(n.task_period().value(), 60.0);
  EXPECT_LE(n.task_period().value(), 120.0 + 1e-9);
  auto n2 = make_node(Seconds{60.0});
  ctl.update(estimate_with_soc(1.0), n2);
  EXPECT_DOUBLE_EQ(n2.task_period().value(), 30.0);
}

TEST(DutyCycle, KeepsToyPlantAwayFromTheRails) {
  // A proportional controller on a toy plant (long periods recharge, short
  // periods deplete) need not settle exactly, but it must keep the store
  // away from both empty and full — the survey's "adjust its duty cycle to
  // conserve energy" behaviour.
  DutyCycleController ctl;
  auto n = make_node(Seconds{60.0});
  double soc = 0.2;
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < 500; ++i) {
    ctl.update(estimate_with_soc(soc), n);
    const double drain = 40.0 / n.task_period().value();
    soc = std::clamp(soc + 0.02 * (1.0 - drain), 0.0, 1.0);
    if (i >= 100) {  // after the initial recovery transient
      lo = std::min(lo, soc);
      hi = std::max(hi, soc);
    }
  }
  EXPECT_GT(lo, 0.1);
  EXPECT_LT(hi, 1.0 - 1e-9);
  EXPECT_GT(ctl.adjustments(), 0u);
}

TEST(FuelCellPolicy, SwitchesInWhenLow) {
  FuelCellPolicy policy;
  storage::FuelCell cell("fc", {});
  policy.update(0.1, cell);
  EXPECT_TRUE(cell.enabled());
  EXPECT_EQ(policy.switch_ins(), 1u);
}

TEST(FuelCellPolicy, StaysOffWhenHealthy) {
  FuelCellPolicy policy;
  storage::FuelCell cell("fc", {});
  policy.update(0.8, cell);
  EXPECT_FALSE(cell.enabled());
}

TEST(FuelCellPolicy, HysteresisPreventsChatter) {
  FuelCellPolicy policy;  // enable < 0.25, disable > 0.50
  storage::FuelCell cell("fc", {});
  policy.update(0.2, cell);
  EXPECT_TRUE(cell.enabled());
  // Mid-band: stays enabled.
  policy.update(0.4, cell);
  EXPECT_TRUE(cell.enabled());
  // Recovered: disables.
  policy.update(0.6, cell);
  EXPECT_FALSE(cell.enabled());
  // Mid-band again: stays disabled.
  policy.update(0.4, cell);
  EXPECT_FALSE(cell.enabled());
  EXPECT_EQ(policy.switch_ins(), 1u);
}

TEST(FuelCellPolicy, RepeatedCyclesCounted) {
  FuelCellPolicy policy;
  storage::FuelCell cell("fc", {});
  for (int i = 0; i < 3; ++i) {
    policy.update(0.1, cell);
    policy.update(0.9, cell);
  }
  EXPECT_EQ(policy.switch_ins(), 3u);
}

TEST(FuelCellPolicy, RejectsInvertedThresholds) {
  FuelCellPolicy::Params p;
  p.enable_below_soc = 0.6;
  p.disable_above_soc = 0.4;
  EXPECT_THROW(FuelCellPolicy{p}, SpecError);
}

// ---------------------------------------------------------------------------
// BackupChain — debounce and hysteresis boundaries
// ---------------------------------------------------------------------------

constexpr Watts kDead{0.0};
constexpr Watts kAlive{1e-3};

BackupStageParams fuel_stage(Seconds min_outage = Seconds{600.0},
                             Seconds min_recovery = Seconds{1800.0}) {
  BackupStageParams p;
  p.kind = BackupStageKind::kFuelCell;
  p.min_outage = min_outage;
  p.min_recovery = min_recovery;
  return p;
}

BackupChain fuel_chain(storage::FuelCell& cell,
                       BackupStageParams stage = fuel_stage()) {
  BackupChain::Params params;
  params.stages = {stage};
  BackupChain chain(params);
  chain.bind_stage(0, &cell, nullptr, nullptr);
  return chain;
}

TEST(BackupChain, RejectsBadParams) {
  BackupChain::Params empty;
  EXPECT_THROW(BackupChain{empty}, SpecError);

  BackupChain::Params inverted;
  inverted.stages = {fuel_stage()};
  inverted.stages[0].enable_below_soc = 0.6;
  inverted.stages[0].disable_above_soc = 0.4;
  EXPECT_THROW(BackupChain{inverted}, SpecError);

  BackupChain::Params no_debounce;
  no_debounce.stages = {fuel_stage(Seconds{0.0})};
  EXPECT_THROW(BackupChain{no_debounce}, SpecError);

  BackupChain::Params out_of_range;
  out_of_range.stages = {fuel_stage()};
  out_of_range.stages[0].disable_above_soc = 1.5;
  EXPECT_THROW(BackupChain{out_of_range}, SpecError);
}

TEST(BackupChain, BindStageEnforcesKindMatch) {
  storage::FuelCell cell("fc", {});
  storage::SwitchedStorage reserve(std::make_unique<storage::Supercapacitor>(
      "sc", storage::Supercapacitor::Params{}));
  BackupChain::Params params;
  params.stages = {fuel_stage()};
  BackupChain chain(params);
  // Wrong device kind and over-binding both rejected.
  EXPECT_THROW(chain.bind_stage(0, nullptr, &reserve, nullptr), SpecError);
  EXPECT_THROW(chain.bind_stage(0, nullptr, nullptr, nullptr), SpecError);
  EXPECT_THROW(chain.bind_stage(1, &cell, nullptr, nullptr), SpecError);
  chain.bind_stage(0, &cell, nullptr, nullptr);
}

TEST(BackupChain, EngagesAtExactlyMinOutage) {
  storage::FuelCell cell("fc", {});
  auto chain = fuel_chain(cell);  // min_outage 600
  chain.update(Seconds{0.0}, kDead, 0.9);  // outage clock starts
  EXPECT_FALSE(chain.stage_engaged(0));
  chain.update(Seconds{599.0}, kDead, 0.9);  // one tick short: debounced
  EXPECT_FALSE(chain.stage_engaged(0));
  EXPECT_FALSE(chain.primary_down());
  chain.update(Seconds{600.0}, kDead, 0.9);  // outage age == min_outage
  EXPECT_TRUE(chain.stage_engaged(0));
  EXPECT_TRUE(chain.primary_down());
  EXPECT_TRUE(cell.enabled());
  EXPECT_EQ(chain.failovers(), 1u);
  EXPECT_EQ(chain.failover_latency_count(), 1u);
  EXPECT_DOUBLE_EQ(chain.failover_latency_total().value(), 600.0);
}

TEST(BackupChain, BlipShorterThanDebounceNeverEngages) {
  storage::FuelCell cell("fc", {});
  auto chain = fuel_chain(cell);
  chain.update(Seconds{0.0}, kDead, 0.9);
  chain.update(Seconds{599.0}, kAlive, 0.9);  // cloud passes: clock resets
  chain.update(Seconds{1198.0}, kDead, 0.9);  // new outage, age 0
  chain.update(Seconds{1700.0}, kDead, 0.9);  // age 502 < 600
  EXPECT_FALSE(chain.stage_engaged(0));
  EXPECT_EQ(chain.failovers(), 0u);
}

TEST(BackupChain, SocHysteresisEdgesDoNotFlap) {
  storage::FuelCell cell("fc", {});
  auto stage = fuel_stage(Seconds{600.0}, Seconds{1.0});
  stage.enable_below_soc = 0.25;
  stage.disable_above_soc = 0.50;
  auto chain = fuel_chain(cell, stage);
  chain.update(Seconds{0.0}, kAlive, 0.9);   // recovery clock starts
  chain.update(Seconds{10.0}, kAlive, 0.25);  // exactly at the edge: not below
  EXPECT_FALSE(chain.stage_engaged(0));
  chain.update(Seconds{20.0}, kAlive, 0.249);  // strictly below: engage
  EXPECT_TRUE(chain.stage_engaged(0));
  chain.update(Seconds{30.0}, kAlive, 0.50);  // exactly at the edge: not above
  EXPECT_TRUE(chain.stage_engaged(0));
  chain.update(Seconds{40.0}, kAlive, 0.51);  // strictly above: disengage
  EXPECT_FALSE(chain.stage_engaged(0));
  EXPECT_EQ(chain.failovers(), 1u);
  EXPECT_EQ(chain.failbacks(), 1u);
  // Pure-SoC engagement has no fault onset, so no latency sample.
  EXPECT_EQ(chain.failover_latency_count(), 0u);
}

TEST(BackupChain, RecoveryDebounceHoldsStageIn) {
  storage::FuelCell cell("fc", {});
  auto chain = fuel_chain(cell);  // min_recovery 1800
  chain.update(Seconds{0.0}, kDead, 0.9);
  chain.update(Seconds{600.0}, kDead, 0.9);
  ASSERT_TRUE(chain.stage_engaged(0));
  chain.update(Seconds{700.0}, kAlive, 0.9);  // recovery clock starts
  chain.update(Seconds{2499.0}, kAlive, 0.9);  // held: 1799 < 1800
  EXPECT_TRUE(chain.stage_engaged(0));
  chain.update(Seconds{2500.0}, kAlive, 0.9);  // recovery age == min_recovery
  EXPECT_FALSE(chain.stage_engaged(0));
  EXPECT_FALSE(cell.enabled());
  EXPECT_EQ(chain.failbacks(), 1u);
}

TEST(BackupChain, FaultOnsetDuringInProgressSwitchIn) {
  // Stage 0 is already switching in on low SoC when the primary sources
  // actually die. The new outage must run stage 1's own debounce from the
  // onset, and the latency sample belongs to that outage episode.
  storage::FuelCell cell("fc", {});
  node::SensorNode node = make_node();
  auto stage0 = fuel_stage(Seconds{600.0}, Seconds{1.0});
  stage0.enable_below_soc = 0.25;
  BackupStageParams stage1;
  stage1.kind = BackupStageKind::kLoadShed;
  stage1.enable_below_soc = 0.05;
  stage1.min_outage = Seconds{1200.0};
  BackupChain::Params params;
  params.stages = {stage0, stage1};
  BackupChain chain(params);
  chain.bind_stage(0, &cell, nullptr, nullptr);
  chain.bind_stage(1, nullptr, nullptr, &node);

  chain.update(Seconds{0.0}, kAlive, 0.2);  // SoC engagement, no onset
  ASSERT_TRUE(chain.stage_engaged(0));
  EXPECT_FALSE(chain.stage_engaged(1));
  EXPECT_EQ(chain.failover_latency_count(), 0u);

  chain.update(Seconds{100.0}, kDead, 0.2);  // fault onset mid-switch-in
  chain.update(Seconds{1299.0}, kDead, 0.2);  // stage-1 age 1199 < 1200
  EXPECT_FALSE(chain.stage_engaged(1));
  chain.update(Seconds{1300.0}, kDead, 0.2);  // stage-1 debounce expires
  EXPECT_TRUE(chain.stage_engaged(1));
  EXPECT_EQ(chain.failover_latency_count(), 1u);
  EXPECT_DOUBLE_EQ(chain.failover_latency_total().value(), 1200.0);
}

TEST(BackupChain, EscalatesPastDepletedStageInOneTick) {
  storage::FuelCell::Params tiny;
  tiny.reserve = Joules{1e-6};
  storage::FuelCell cell("fc", tiny);
  cell.set_enabled(true);
  cell.discharge(Watts{0.5}, Seconds{1.0});  // drain the cartridge
  cell.set_enabled(false);
  ASSERT_LE(cell.stored_energy().value(), 0.0);

  node::SensorNode node = make_node();
  BackupStageParams shed;
  shed.kind = BackupStageKind::kLoadShed;
  shed.min_outage = Seconds{600.0};
  BackupChain::Params params;
  params.stages = {fuel_stage(), shed};
  BackupChain chain(params);
  chain.bind_stage(0, &cell, nullptr, nullptr);
  chain.bind_stage(1, nullptr, nullptr, &node);

  chain.update(Seconds{0.0}, kDead, 0.9);
  chain.update(Seconds{600.0}, kDead, 0.9);
  // The empty fuel cell switches in, is found depleted, and the ladder
  // escalates to load shedding within the same tick.
  EXPECT_TRUE(chain.stage_engaged(0));
  EXPECT_TRUE(chain.stage_engaged(1));
  EXPECT_EQ(chain.failovers(), 2u);
  EXPECT_DOUBLE_EQ(node.task_period().value(),
                   node.workload().max_period.value());
}

TEST(BackupChain, LoadShedOverridesControllerAndRestoresPeriod) {
  node::SensorNode node = make_node(Seconds{60.0});
  BackupStageParams shed;
  shed.kind = BackupStageKind::kLoadShed;
  shed.min_outage = Seconds{600.0};
  shed.min_recovery = Seconds{60.0};
  BackupChain::Params params;
  params.stages = {shed};
  BackupChain chain(params);
  chain.bind_stage(0, nullptr, nullptr, &node);

  chain.update(Seconds{0.0}, kDead, 0.9);
  chain.update(Seconds{600.0}, kDead, 0.9);
  ASSERT_TRUE(chain.stage_engaged(0));
  EXPECT_DOUBLE_EQ(node.task_period().value(),
                   node.workload().max_period.value());
  // A duty-cycle controller creeping the period back down is re-overridden
  // on the next tick.
  node.set_task_period(Seconds{30.0});
  chain.update(Seconds{660.0}, kDead, 0.9);
  EXPECT_DOUBLE_EQ(node.task_period().value(),
                   node.workload().max_period.value());
  // Disengaging restores the pre-shed period.
  chain.update(Seconds{720.0}, kAlive, 0.9);
  chain.update(Seconds{780.0}, kAlive, 0.9);
  EXPECT_FALSE(chain.stage_engaged(0));
  EXPECT_DOUBLE_EQ(node.task_period().value(), 60.0);
}

TEST(BackupChain, ResidencyAccumulatesOnlyWhileEngaged) {
  storage::FuelCell cell("fc", {});
  auto chain = fuel_chain(cell, fuel_stage(Seconds{600.0}, Seconds{1.0}));
  chain.update(Seconds{0.0}, kDead, 0.9);
  chain.update(Seconds{600.0}, kDead, 0.9);    // engage
  chain.update(Seconds{900.0}, kDead, 0.9);    // +300 engaged
  chain.update(Seconds{1000.0}, kAlive, 0.9);  // +100 engaged, recovery starts
  chain.update(Seconds{1100.0}, kAlive, 0.9);  // +100 engaged, then disengage
  chain.update(Seconds{1500.0}, kAlive, 0.9);  // disengaged: no residency
  EXPECT_DOUBLE_EQ(chain.stage_stats(0).residency.value(), 500.0);
  EXPECT_EQ(chain.stage_stats(0).switch_ins, 1u);
  EXPECT_EQ(chain.stage_stats(0).switch_outs, 1u);
}

}  // namespace
}  // namespace msehsim::manager
