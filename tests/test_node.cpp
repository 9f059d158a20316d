// Sensor node load model: duty cycling, packets, brownout/reboot semantics.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "node/sensor_node.hpp"

namespace msehsim::node {
namespace {

SensorNode basic_node(Seconds period = Seconds{30.0}) {
  WorkloadParams w;
  w.task_period = period;
  return SensorNode("n", McuParams{}, RadioParams{}, w);
}

constexpr Volts kRail{3.0};
constexpr Seconds kDt{1.0};

TEST(SensorNode, AveragePowerDecreasesWithPeriod) {
  auto fast = basic_node(Seconds{10.0});
  auto slow = basic_node(Seconds{600.0});
  EXPECT_GT(fast.average_power(kRail).value(), slow.average_power(kRail).value());
}

TEST(SensorNode, FloorPowerIsMaxPeriodPower) {
  auto n = basic_node(Seconds{30.0});
  n.set_task_period(n.workload().max_period);
  EXPECT_DOUBLE_EQ(n.average_power(kRail).value(), n.floor_power(kRail).value());
}

/// After each writer of average_power's inputs — set_task_period and the two
/// fault hooks — the average power and the next step's draw must equal, bit
/// for bit, those of a node built fresh and brought to the same state, at
/// either rail voltage (a memo of average_power must pass this too).
TEST(SensorNode, AveragePowerCacheFollowsEveryMutator) {
  constexpr Volts kRail2{2.5};
  // The k-th mutator (1-based).
  const auto mutate = [](SensorNode& n, int k) {
    if (k == 1) n.set_task_period(Seconds{120.0});
    if (k == 2) n.inject_flash_wear(1.5);
    if (k == 3) n.inject_radio_pa_degradation(2.0);
  };
  const auto booted = [](SensorNode& n) {
    for (int i = 0; i < 3; ++i) n.step(true, kRail, kDt);
  };
  auto node = basic_node();
  booted(node);
  for (int k = 1; k <= 3; ++k) {
    // Warm the memo at one rail, mutate, then read that rail first: a
    // missed invalidation would hand back the stale value here.
    const Volts warm = k % 2 == 0 ? kRail2 : kRail;
    const Volts other = k % 2 == 0 ? kRail : kRail2;
    const double before = node.average_power(warm).value();
    mutate(node, k);
    auto fresh = basic_node();
    for (int j = 1; j <= k; ++j) mutate(fresh, j);
    booted(fresh);
    EXPECT_NE(node.average_power(warm).value(), before) << "mutator " << k;
    EXPECT_EQ(node.average_power(warm).value(), fresh.average_power(warm).value())
        << "mutator " << k;
    EXPECT_EQ(node.average_power(other).value(),
              fresh.average_power(other).value())
        << "mutator " << k;
    EXPECT_EQ(node.step(true, kRail, kDt).value(),
              fresh.step(true, kRail, kDt).value())
        << "mutator " << k;
  }
}

TEST(SensorNode, PeriodClampedToBounds) {
  auto n = basic_node();
  n.set_task_period(Seconds{0.001});
  EXPECT_DOUBLE_EQ(n.task_period().value(), n.workload().min_period.value());
  n.set_task_period(Seconds{1e9});
  EXPECT_DOUBLE_EQ(n.task_period().value(), n.workload().max_period.value());
}

TEST(SensorNode, BootThenRun) {
  auto n = basic_node();
  EXPECT_FALSE(n.is_up());
  // Default boot time 2 s: after 3 steps with power, the node is up.
  n.step(true, kRail, kDt);
  EXPECT_EQ(n.reboots(), 1u);
  n.step(true, kRail, kDt);
  n.step(true, kRail, kDt);
  EXPECT_TRUE(n.is_up());
}

TEST(SensorNode, PacketsAccumulateAtTaskRate) {
  auto n = basic_node(Seconds{30.0});
  for (int i = 0; i < 302; ++i) n.step(true, kRail, kDt);
  // ~300 s of uptime (minus 2 s boot) at one packet per 30 s.
  EXPECT_GE(n.packets_sent(), 9u);
  EXPECT_LE(n.packets_sent(), 11u);
}

TEST(SensorNode, NoPowerNoPackets) {
  auto n = basic_node();
  for (int i = 0; i < 100; ++i) {
    const Watts p = n.step(false, kRail, kDt);
    EXPECT_DOUBLE_EQ(p.value(), 0.0);
  }
  EXPECT_EQ(n.packets_sent(), 0u);
  EXPECT_EQ(n.reboots(), 0u);
  EXPECT_DOUBLE_EQ(n.availability(), 0.0);
}

TEST(SensorNode, UndervoltageRailCountsAsDown) {
  auto n = basic_node();
  n.step(true, Volts{1.0}, kDt);  // below MCU min voltage 1.8
  EXPECT_FALSE(n.is_up());
  EXPECT_EQ(n.reboots(), 0u);
}

TEST(SensorNode, BrownoutForcesRebootPenalty) {
  auto n = basic_node();
  for (int i = 0; i < 10; ++i) n.step(true, kRail, kDt);
  EXPECT_TRUE(n.is_up());
  const auto packets_before = n.packets_sent();
  n.step(false, kRail, kDt);  // brownout
  EXPECT_FALSE(n.is_up());
  n.step(true, kRail, kDt);  // power back: booting again
  EXPECT_EQ(n.reboots(), 2u);
  (void)packets_before;
}

TEST(SensorNode, AvailabilityReflectsDowntime) {
  auto n = basic_node();
  for (int i = 0; i < 50; ++i) n.step(true, kRail, kDt);
  for (int i = 0; i < 50; ++i) n.step(false, kRail, kDt);
  EXPECT_GT(n.availability(), 0.4);
  EXPECT_LT(n.availability(), 0.55);
}

TEST(SensorNode, ConsumedEnergyMatchesDrawIntegral) {
  auto n = basic_node();
  double integral = 0.0;
  for (int i = 0; i < 200; ++i)
    integral += n.step(true, kRail, kDt).value() * kDt.value();
  EXPECT_NEAR(n.consumed_energy().value(), integral, 1e-9);
  EXPECT_GT(integral, 0.0);
}

TEST(SensorNode, WakeUpRadioAddsBasePower) {
  RadioParams with_wur;
  with_wur.wake_up_rx_current = Amps{5e-6};
  WorkloadParams w;
  SensorNode wur("w", McuParams{}, with_wur, w);
  auto plain = basic_node(w.task_period);
  EXPECT_GT(wur.average_power(kRail).value(), plain.average_power(kRail).value());
  EXPECT_NEAR(
      wur.average_power(kRail).value() - plain.average_power(kRail).value(),
      kRail.value() * 5e-6, 1e-12);
}

TEST(SensorNode, CycleEnergyScalesWithPacketSize) {
  WorkloadParams small;
  small.packet_bytes = 16.0;
  WorkloadParams big;
  big.packet_bytes = 128.0;
  SensorNode a("a", McuParams{}, RadioParams{}, small);
  SensorNode b("b", McuParams{}, RadioParams{}, big);
  EXPECT_GT(b.average_power(kRail).value(), a.average_power(kRail).value());
}

TEST(SensorNode, QueryAnsweredOnlyWithWakeUpRadio) {
  RadioParams wur;
  wur.wake_up_rx_current = Amps{5e-6};
  SensorNode with("w", McuParams{}, wur, WorkloadParams{});
  auto without = basic_node();
  // Bring both up.
  for (int i = 0; i < 5; ++i) {
    with.step(true, kRail, kDt);
    without.step(true, kRail, kDt);
  }
  EXPECT_TRUE(with.deliver_query(kRail));
  EXPECT_FALSE(without.deliver_query(kRail));
  EXPECT_EQ(with.queries_received(), 1u);
  EXPECT_EQ(with.queries_answered(), 1u);
  EXPECT_EQ(without.queries_received(), 1u);
  EXPECT_EQ(without.queries_answered(), 0u);
}

TEST(SensorNode, DownNodeMissesQueriesEvenWithWakeUpRadio) {
  RadioParams wur;
  wur.wake_up_rx_current = Amps{5e-6};
  SensorNode n("w", McuParams{}, wur, WorkloadParams{});
  EXPECT_FALSE(n.deliver_query(kRail));  // never powered
  EXPECT_EQ(n.queries_answered(), 0u);
}

TEST(SensorNode, QueryResponseCostsEnergy) {
  RadioParams wur;
  wur.wake_up_rx_current = Amps{5e-6};
  SensorNode quiet("q", McuParams{}, wur, WorkloadParams{});
  SensorNode busy("b", McuParams{}, wur, WorkloadParams{});
  for (int i = 0; i < 5; ++i) {
    quiet.step(true, kRail, kDt);
    busy.step(true, kRail, kDt);
  }
  for (int i = 0; i < 100; ++i) busy.deliver_query(kRail);
  quiet.step(true, kRail, kDt);
  busy.step(true, kRail, kDt);
  EXPECT_GT(busy.consumed_energy().value(), quiet.consumed_energy().value());
  // 100 responses at 24 bytes, 17 mA, 3 V, 250 kbps ~ 39 uJ each.
  const double delta =
      busy.consumed_energy().value() - quiet.consumed_energy().value();
  EXPECT_NEAR(delta, 100.0 * 3.0 * 17e-3 * (24.0 * 8.0 / 250e3), 1e-6);
}

TEST(SensorNode, RejectsBadSpecs) {
  McuParams bad_mcu;
  bad_mcu.active_current = Amps{0.0};  // below sleep current
  EXPECT_THROW(SensorNode("x", bad_mcu, RadioParams{}, WorkloadParams{}),
               SpecError);
  WorkloadParams bad_work;
  bad_work.min_period = Seconds{100.0};
  bad_work.max_period = Seconds{10.0};
  EXPECT_THROW(SensorNode("x", McuParams{}, RadioParams{}, bad_work), SpecError);
}

// Duty-cycle sweep: packets delivered scale inversely with period while
// average power scales accordingly (the survey's duty-cycle knob).
class DutyCycleSweep : public ::testing::TestWithParam<double> {};

TEST_P(DutyCycleSweep, ThroughputInverseToPeriod) {
  const double period = GetParam();
  auto n = basic_node(Seconds{period});
  const double horizon = 3600.0;
  for (double t = 0.0; t < horizon; t += 1.0) n.step(true, kRail, kDt);
  const double expected = (horizon - 2.0) / period;  // minus boot
  EXPECT_NEAR(static_cast<double>(n.packets_sent()), expected,
              expected * 0.05 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Periods, DutyCycleSweep,
                         ::testing::Values(10.0, 30.0, 60.0, 120.0, 300.0));

}  // namespace
}  // namespace msehsim::node
