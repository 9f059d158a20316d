// Numeric helpers: golden-section max, interpolation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/solve.hpp"

namespace msehsim {
namespace {

TEST(GoldenMax, FindsParabolaPeak) {
  const double x = golden_max_fn(
      [](double v) { return -(v - 3.0) * (v - 3.0); }, 0.0, 10.0);
  EXPECT_NEAR(x, 3.0, 1e-6);
}

TEST(GoldenMax, FindsPvStylePowerKnee) {
  // P(v) = v * (1 - exp(v - 5)) has its max strictly inside (0, 5).
  auto p = [](double v) { return v * (1.0 - std::exp(v - 5.0)); };
  const double x = golden_max_fn(p, 0.0, 5.0);
  // Verify local optimality numerically.
  EXPECT_GT(p(x), p(x - 0.01));
  EXPECT_GT(p(x), p(x + 0.01));
}

TEST(GoldenMax, MonotoneIncreasingPicksUpperEnd) {
  const double x = golden_max_fn([](double v) { return v; }, 0.0, 1.0);
  EXPECT_NEAR(x, 1.0, 1e-6);
}

// --- Degenerate shapes, iteration depth, callable forwarding ----------------

TEST(SolveFn, GoldenMaxPlateauStaysInsidePlateau) {
  // Flat top over [2, 4] (a clipped tent): any point in the plateau is a
  // correct maximizer; the solver must land inside it, not at an endpoint.
  auto f = [](double v) { return std::min(2.0 - std::fabs(v - 3.0), 1.0); };
  const double x = golden_max_fn(f, 0.0, 6.0);
  EXPECT_GE(x, 2.0 - 1e-6);
  EXPECT_LE(x, 4.0 + 1e-6);
  EXPECT_NEAR(f(x), 1.0, 1e-9);
}

TEST(SolveFn, GoldenMaxEndpointMaximum) {
  // Monotone decreasing: the maximum is the lower endpoint.
  const double x = golden_max_fn([](double v) { return -v; }, 0.0, 1.0);
  EXPECT_NEAR(x, 0.0, 1e-6);
}

TEST(SolveFn, GoldenMaxConvergesWithIterations) {
  // More iterations shrink the bracket: error must be non-increasing in the
  // iteration count and tiny at the default depth.
  auto f = [](double v) { return -(v - 3.0) * (v - 3.0); };
  const double e10 = std::fabs(golden_max_fn(f, 0.0, 10.0, 10) - 3.0);
  const double e30 = std::fabs(golden_max_fn(f, 0.0, 10.0, 30) - 3.0);
  const double e80 = std::fabs(golden_max_fn(f, 0.0, 10.0, 80) - 3.0);
  EXPECT_LE(e30, e10);
  EXPECT_LE(e80, e30);
  EXPECT_LT(e80, 1e-9);
}

TEST(SolveFn, TemplateAcceptsMutableCallableWithoutCopying) {
  // A counting callable passed by reference: the template forwards it, so
  // the evaluation count is observable (two interior golden probes for the
  // setup, then one new probe per iteration).
  int calls = 0;
  auto f = [&calls](double v) {
    ++calls;
    return -(v - 1.0) * (v - 1.0);
  };
  golden_max_fn(f, 0.0, 2.0, 1);
  EXPECT_EQ(calls, 3);
  calls = 0;
  golden_max_fn(f, 0.0, 2.0, 10);
  EXPECT_EQ(calls, 12);
}

TEST(InterpClamped, InteriorLinear) {
  const double xs[] = {0.0, 1.0, 2.0};
  const double ys[] = {0.0, 10.0, 40.0};
  EXPECT_DOUBLE_EQ(interp_clamped(xs, ys, 3, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(interp_clamped(xs, ys, 3, 1.5), 25.0);
}

TEST(InterpClamped, ClampsOutside) {
  const double xs[] = {0.0, 1.0};
  const double ys[] = {2.0, 4.0};
  EXPECT_DOUBLE_EQ(interp_clamped(xs, ys, 2, -5.0), 2.0);
  EXPECT_DOUBLE_EQ(interp_clamped(xs, ys, 2, 5.0), 4.0);
}

TEST(InterpClamped, ExactBreakpoints) {
  const double xs[] = {0.0, 1.0, 2.0};
  const double ys[] = {1.0, 3.0, 9.0};
  EXPECT_DOUBLE_EQ(interp_clamped(xs, ys, 3, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(interp_clamped(xs, ys, 3, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(interp_clamped(xs, ys, 3, 2.0), 9.0);
}

TEST(InterpClamped, EmptyTableIsZero) {
  EXPECT_DOUBLE_EQ(interp_clamped(nullptr, nullptr, 0, 1.0), 0.0);
}

}  // namespace
}  // namespace msehsim
