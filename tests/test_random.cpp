// Deterministic RNG: reproducibility and distribution sanity.
#include <gtest/gtest.h>

#include <vector>

#include "core/error.hpp"
#include "core/random.hpp"

namespace msehsim {
namespace {

TEST(Pcg32, SameSeedSameStream) {
  Pcg32 a(42, 7);
  Pcg32 b(42, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Pcg32, DifferentSeedsDiverge) {
  Pcg32 a(42, 7);
  Pcg32 b(43, 7);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Pcg32, DifferentStreamsDiverge) {
  Pcg32 a(42, 1);
  Pcg32 b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u32() == b.next_u32()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Pcg32, DoublesInUnitInterval) {
  Pcg32 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32, UniformRespectsBounds) {
  Pcg32 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Pcg32, UniformMeanIsCentred) {
  Pcg32 rng(3);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Pcg32, NextBelowInRange) {
  Pcg32 rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Pcg32, NextBelowRejectsZero) {
  Pcg32 rng(5);
  EXPECT_THROW(rng.next_below(0), SpecError);
}

TEST(Pcg32, NormalMomentsMatch) {
  Pcg32 rng(6);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Pcg32, ScaledNormal) {
  Pcg32 rng(7);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Pcg32, ExponentialMean) {
  Pcg32 rng(8);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(5.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Pcg32, ExponentialRejectsNonPositiveMean) {
  Pcg32 rng(9);
  EXPECT_THROW(rng.exponential(0.0), SpecError);
  EXPECT_THROW(rng.exponential(-1.0), SpecError);
}

TEST(Pcg32, BernoulliFrequency) {
  Pcg32 rng(12);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(StreamKey, StableAndDistinct) {
  EXPECT_EQ(stream_key("solar"), stream_key("solar"));
  EXPECT_NE(stream_key("solar"), stream_key("wind"));
  EXPECT_NE(stream_key(""), stream_key("a"));
}

}  // namespace
}  // namespace msehsim
