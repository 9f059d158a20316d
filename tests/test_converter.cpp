// Converter models: topology feasibility, loss accounting, inverse transfer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/error.hpp"
#include "core/random.hpp"
#include "power/converter.hpp"

namespace msehsim::power {
namespace {

TEST(Converter, BuckBoostConvertsAnyRatio) {
  auto c = Converter::smart_buck_boost("bb");
  EXPECT_TRUE(c.can_convert(Volts{1.0}, Volts{4.0}));
  EXPECT_TRUE(c.can_convert(Volts{5.0}, Volts{1.0}));
}

TEST(Converter, BuckRequiresStepDown) {
  Converter::Params p;
  p.topology = Topology::kBuck;
  Converter c("buck", p);
  EXPECT_TRUE(c.can_convert(Volts{5.0}, Volts{3.0}));
  EXPECT_FALSE(c.can_convert(Volts{2.0}, Volts{3.0}));
}

TEST(Converter, BoostRequiresStepUp) {
  auto c = Converter::boost_frontend("boost");
  EXPECT_TRUE(c.can_convert(Volts{1.0}, Volts{3.0}));
  EXPECT_FALSE(c.can_convert(Volts{4.0}, Volts{3.0}));
}

TEST(Converter, InputWindowEnforced) {
  auto c = Converter::smart_buck_boost("bb");  // window [0.8, 5.5]
  EXPECT_FALSE(c.can_convert(Volts{0.5}, Volts{3.0}));
  EXPECT_FALSE(c.can_convert(Volts{6.0}, Volts{3.0}));
}

TEST(Converter, LdoNeedsHeadroom) {
  auto c = Converter::nano_ldo("ldo");
  EXPECT_TRUE(c.can_convert(Volts{3.3}, Volts{3.0}));
  EXPECT_FALSE(c.can_convert(Volts{2.5}, Volts{3.0}));
}

TEST(Converter, LdoEfficiencyIsVoltageRatio) {
  auto c = Converter::nano_ldo("ldo");
  // Quiescent is tiny; efficiency ~ Vout/Vin.
  const double eff = c.efficiency(Watts{5e-3}, Volts{4.0}, Volts{2.0});
  EXPECT_NEAR(eff, 0.5, 0.01);
}

TEST(Converter, DiodeDropScalesPower) {
  auto c = Converter::schottky_diode("d");
  // Output at 3.0 V with 0.3 V drop: ratio 3.0/3.3.
  const Watts out = c.transfer(Watts{10e-3}, Volts{3.3}, Volts{3.0});
  EXPECT_NEAR(out.value(), 10e-3 * (3.0 / 3.3), 1e-9);
}

TEST(Converter, DiodeBlocksWithoutForwardBias) {
  auto c = Converter::schottky_diode("d");
  EXPECT_FALSE(c.can_convert(Volts{3.0}, Volts{2.9}));  // drop eats headroom
  EXPECT_DOUBLE_EQ(c.transfer(Watts{1.0}, Volts{3.0}, Volts{2.9}).value(), 0.0);
}

TEST(Converter, SwitcherEfficiencyPeaksMidLoad) {
  auto c = Converter::smart_buck_boost("bb");  // rated 50 mW
  const double light = c.efficiency(Watts{50e-6}, Volts{3.3}, Volts{3.0});
  const double mid = c.efficiency(Watts{20e-3}, Volts{3.3}, Volts{3.0});
  const double heavy = c.efficiency(Watts{100e-3}, Volts{3.3}, Volts{3.0});
  EXPECT_GT(mid, light);   // quiescent dominates at light load
  EXPECT_GT(mid, heavy);   // conduction loss grows at heavy load
  EXPECT_GT(mid, 0.8);
  EXPECT_LT(mid, 0.95);
}

TEST(Converter, QuiescentCollapsesMicrowattTransfers) {
  // The survey's C4 claim in miniature: at uW input, a uA-quiescent
  // converter delivers nothing.
  auto c = Converter::smart_buck_boost("bb");  // 1.5 uA quiescent
  const Watts out = c.transfer(Watts{3e-6}, Volts{3.3}, Volts{3.0});
  EXPECT_DOUBLE_EQ(out.value(), 0.0);
  // A nano-quiescent LDO still passes something.
  auto ldo = Converter::nano_ldo("ldo");
  EXPECT_GT(ldo.transfer(Watts{3e-6}, Volts{3.3}, Volts{3.0}).value(), 0.0);
}

TEST(Converter, TransferMonotoneInInput) {
  auto c = Converter::smart_buck_boost("bb");
  double prev = 0.0;
  for (double p = 0.0; p <= 50e-3; p += 1e-3) {
    const double out = c.transfer(Watts{p}, Volts{3.3}, Volts{3.0}).value();
    EXPECT_GE(out, prev - 1e-12);
    prev = out;
  }
}

TEST(Converter, OutputNeverExceedsInput) {
  auto c = Converter::smart_buck_boost("bb");
  for (double p = 1e-6; p < 0.2; p *= 2.0)
    EXPECT_LE(c.transfer(Watts{p}, Volts{3.3}, Volts{3.0}).value(), p);
}

TEST(Converter, RequiredInputInvertsTransfer) {
  auto c = Converter::smart_buck_boost("bb");
  for (double out = 1e-4; out <= 30e-3; out *= 3.0) {
    const Watts in = c.required_input(Watts{out}, Volts{3.3}, Volts{3.0});
    const Watts got = c.transfer(in, Volts{3.3}, Volts{3.0});
    EXPECT_NEAR(got.value(), out, out * 1e-6 + 1e-12);
  }
}

/// The fixed-point inversion as written against the public transfer(), with
/// the divisions always taken: the reference the topology-resolved kernel
/// (and its unit-gain shortcut) must reproduce bit for bit.
double reference_required_input(const Converter& c, double output, double vin,
                                double vout) {
  if (!c.can_convert(Volts{vin}, Volts{vout})) return 0.0;
  const double floor = c.quiescent_power(Volts{vin}).value();
  if (output <= 0.0) return floor;
  const double eff = c.params().peak_efficiency;
  double input = output / eff + floor;
  for (int i = 0; i < 24; ++i) {
    const double error =
        output - c.transfer(Watts{input}, Volts{vin}, Volts{vout}).value();
    if (std::fabs(error) < 1e-12) break;
    input += error / std::max(0.1, eff);
    input = std::max(input, 0.0);
  }
  return input;
}

TEST(Converter, RequiredInputMatchesTheReferenceInversionBitForBit) {
  Converter::Params buck;
  buck.topology = Topology::kBuck;
  const Converter presets[] = {
      Converter::smart_buck_boost("bb"), Converter::nano_ldo("ldo"),
      Converter::schottky_diode("d"), Converter::boost_frontend("boost"),
      Converter("buck", buck)};
  Pcg32 rng(2013, 11);
  for (const Converter& c : presets) {
    for (int i = 0; i < 500; ++i) {
      const double out = i % 50 == 0 ? 0.0 : rng.uniform(1e-6, 40e-3);
      const double vin = rng.uniform(0.0, 6.0);
      const double vout = rng.uniform(1.0, 4.0);
      const double got =
          c.required_input(Watts{out}, Volts{vin}, Volts{vout}).value();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(
                    reference_required_input(c, out, vin, vout)))
          << c.name() << " out=" << out << " vin=" << vin << " vout=" << vout;
    }
  }
}

TEST(Converter, RequiredInputForZeroIsQuiescentFloor) {
  auto c = Converter::smart_buck_boost("bb");
  const Watts in = c.required_input(Watts{0.0}, Volts{3.3}, Volts{3.0});
  EXPECT_DOUBLE_EQ(in.value(), c.quiescent_power(Volts{3.3}).value());
}

TEST(Converter, InfeasibleTransferIsZero) {
  auto c = Converter::boost_frontend("boost");
  EXPECT_DOUBLE_EQ(c.transfer(Watts{1e-3}, Volts{4.0}, Volts{3.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(c.required_input(Watts{1e-3}, Volts{4.0}, Volts{3.0}).value(),
                   0.0);
}

TEST(Converter, RejectsBadSpecs) {
  Converter::Params p;
  p.peak_efficiency = 1.5;
  EXPECT_THROW(Converter("x", p), SpecError);
  Converter::Params q;
  q.rated_power = Watts{0.0};
  EXPECT_THROW(Converter("x", q), SpecError);
  Converter::Params r;
  r.min_input = Volts{5.0};
  r.max_input = Volts{2.0};
  EXPECT_THROW(Converter("x", r), SpecError);
}

TEST(Converter, TopologyNames) {
  EXPECT_EQ(to_string(Topology::kDiode), "diode");
  EXPECT_EQ(to_string(Topology::kLdo), "LDO");
  EXPECT_EQ(to_string(Topology::kBuck), "buck");
  EXPECT_EQ(to_string(Topology::kBoost), "boost");
  EXPECT_EQ(to_string(Topology::kBuckBoost), "buck-boost");
}

}  // namespace
}  // namespace msehsim::power
