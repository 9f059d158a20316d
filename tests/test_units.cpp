// Unit-type algebra: the compile-time scaffolding everything else rests on.
#include <gtest/gtest.h>

#include <cmath>

#include "core/units.hpp"

namespace msehsim {
namespace {

using namespace msehsim::literals;

TEST(Units, DefaultConstructsToZero) {
  Volts v;
  EXPECT_EQ(v.value(), 0.0);
}

TEST(Units, AdditionAndSubtractionStayInDimension) {
  const Volts a{3.0};
  const Volts b{1.5};
  EXPECT_DOUBLE_EQ((a + b).value(), 4.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.5);
  EXPECT_DOUBLE_EQ((-a).value(), -3.0);
}

TEST(Units, ScalarScaling) {
  const Watts p{2.0};
  EXPECT_DOUBLE_EQ((p * 3.0).value(), 6.0);
  EXPECT_DOUBLE_EQ((3.0 * p).value(), 6.0);
  EXPECT_DOUBLE_EQ((p / 4.0).value(), 0.5);
}

TEST(Units, CompoundAssignment) {
  Joules e{1.0};
  e += Joules{2.0};
  e -= Joules{0.5};
  e *= 2.0;
  e /= 5.0;
  EXPECT_DOUBLE_EQ(e.value(), 1.0);
}

TEST(Units, RatioOfLikeQuantitiesIsDimensionless) {
  EXPECT_DOUBLE_EQ(Joules{10.0} / Joules{4.0}, 2.5);
}

TEST(Units, OhmsLaw) {
  const Volts v{3.3};
  const Ohms r{330.0};
  const Amps i = v / r;
  EXPECT_DOUBLE_EQ(i.value(), 0.01);
  EXPECT_DOUBLE_EQ((i * r).value(), 3.3);
  EXPECT_DOUBLE_EQ((v / i).value(), 330.0);
}

TEST(Units, PowerAndEnergyRelations) {
  const Watts p = Volts{5.0} * Amps{0.2};
  EXPECT_DOUBLE_EQ(p.value(), 1.0);
  const Joules e = p * Seconds{60.0};
  EXPECT_DOUBLE_EQ(e.value(), 60.0);
  EXPECT_DOUBLE_EQ((e / Seconds{30.0}).value(), 2.0);
  EXPECT_DOUBLE_EQ((e / Watts{2.0}).value(), 30.0);
  EXPECT_DOUBLE_EQ((Watts{4.0} / Volts{2.0}).value(), 2.0);
  EXPECT_DOUBLE_EQ((Watts{4.0} / Amps{2.0}).value(), 2.0);
}

TEST(Units, ChargeRelations) {
  const Coulombs q = Amps{0.5} * Seconds{10.0};
  EXPECT_DOUBLE_EQ(q.value(), 5.0);
  EXPECT_DOUBLE_EQ((q / Farads{2.0}).value(), 2.5);
  EXPECT_DOUBLE_EQ((Farads{2.0} * Volts{3.0}).value(), 6.0);
  EXPECT_DOUBLE_EQ((q / Seconds{10.0}).value(), 0.5);
}

TEST(Units, CapacitorEnergyRoundTrip) {
  const Farads c{10.0};
  const Volts v{4.0};
  const Joules e = capacitor_energy(c, v);
  EXPECT_DOUBLE_EQ(e.value(), 80.0);
  EXPECT_NEAR(std::sqrt(2.0 * e.value() / c.value()), 4.0, 1e-12);
}

TEST(Units, AmpHourConversion) {
  EXPECT_DOUBLE_EQ(to_coulombs(AmpHours{1.0}).value(), 3600.0);
  EXPECT_DOUBLE_EQ(to_coulombs(2.0_mAh).value(), 7.2);
}

TEST(Units, Comparisons) {
  EXPECT_LT(Volts{1.0}, Volts{2.0});
  EXPECT_GE(Watts{3.0}, Watts{3.0});
  EXPECT_EQ(Seconds{5.0}, Seconds{5.0});
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ((3.3_V).value(), 3.3);
  EXPECT_DOUBLE_EQ((100.0_mV).value(), 0.1);
  EXPECT_DOUBLE_EQ((5.0_uA).value(), 5e-6);
  EXPECT_DOUBLE_EQ((2.0_mW).value(), 2e-3);
  EXPECT_DOUBLE_EQ((1.5_uW).value(), 1.5e-6);
  EXPECT_DOUBLE_EQ((1.0_kJ).value(), 1000.0);
  EXPECT_DOUBLE_EQ((2.0_kOhm).value(), 2000.0);
  EXPECT_DOUBLE_EQ((10.0_uF).value(), 1e-5);
  EXPECT_DOUBLE_EQ((1.0_h).value(), 3600.0);
  EXPECT_DOUBLE_EQ((2.0_days).value(), 172800.0);
  EXPECT_DOUBLE_EQ((30.0_min).value(), 1800.0);
  EXPECT_DOUBLE_EQ((50.0_uAh).value(), 50e-6);
}

TEST(Units, FrequencyTimesTimeIsDimensionless) {
  EXPECT_DOUBLE_EQ(Hertz{50.0} * Seconds{2.0}, 100.0);
}

}  // namespace
}  // namespace msehsim
