// RunningStats / Series.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace msehsim {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.integral(), 0.0);
  EXPECT_EQ(s.fraction_positive(), 0.0);
}

TEST(RunningStats, AccumulatesMinMaxMean) {
  RunningStats s;
  s.add(1.0, Seconds{1.0});
  s.add(3.0, Seconds{1.0});
  s.add(2.0, Seconds{2.0});
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.integral(), 1.0 + 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 8.0 / 4.0);
  EXPECT_DOUBLE_EQ(s.span().value(), 4.0);
}

TEST(RunningStats, FractionPositive) {
  RunningStats s;
  s.add(1.0, Seconds{3.0});
  s.add(0.0, Seconds{1.0});
  s.add(-2.0, Seconds{2.0});
  EXPECT_DOUBLE_EQ(s.fraction_positive(), 0.5);
}

TEST(Series, PushAndStats) {
  Series s("p");
  s.push(Seconds{0.0}, 5.0);
  s.push(Seconds{1.0}, 7.0);
  s.push(Seconds{2.0}, 6.0);
  EXPECT_EQ(s.name(), "p");
  EXPECT_EQ(s.values().size(), 3u);
  EXPECT_DOUBLE_EQ(s.last(), 6.0);
  // First sample carries zero duration: integral = 7*1 + 6*1.
  EXPECT_DOUBLE_EQ(s.stats().integral(), 13.0);
}

TEST(Series, DecimationKeepsEveryNth) {
  Series s("d", 10);
  for (int i = 0; i < 100; ++i) s.push(Seconds{static_cast<double>(i)}, i);
  EXPECT_EQ(s.values().size(), 10u);
  EXPECT_DOUBLE_EQ(s.values().front(), 0.0);
  EXPECT_DOUBLE_EQ(s.values().back(), 90.0);
  // Stats still saw all 100 samples.
  EXPECT_EQ(s.stats().count(), 100u);
}

TEST(Series, LastOnEmptyThrows) {
  Series s("e");
  EXPECT_THROW((void)s.last(), SpecError);
}

TEST(Series, ZeroKeepEveryRejected) {
  EXPECT_THROW(Series("bad", 0), SpecError);
}

}  // namespace
}  // namespace msehsim
