// Small numeric helpers shared across the electrical models.
//
// The extremum search is a header-only template on the callable so
// hot-path callers (the MPP oracle runs once per chain per step) get the
// function object inlined instead of paying a std::function dispatch per
// evaluation.
#pragma once

#include <cmath>

namespace msehsim {

/// Maximizes a unimodal function on [lo, hi] by golden-section search and
/// returns the argmax. Used to locate maximum power points on I-V curves.
template <typename F>
double golden_max_fn(F&& f, double lo, double hi, int iterations = 80) {
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo;
  double b = hi;
  double c = b - (b - a) * kInvPhi;
  double d = a + (b - a) * kInvPhi;
  double fc = f(c);
  double fd = f(d);
  for (int i = 0; i < iterations; ++i) {
    if (fc > fd) {
      b = d;
      d = c;
      fd = fc;
      c = b - (b - a) * kInvPhi;
      fc = f(c);
    } else {
      a = c;
      c = d;
      fc = fd;
      d = a + (b - a) * kInvPhi;
      fd = f(d);
    }
  }
  return 0.5 * (a + b);
}

/// Linear interpolation of y(x) over sorted breakpoints; clamps outside the
/// table. Used for OCV-SoC curves and converter efficiency maps. Inline: the
/// battery OCV lookup runs it 64 times per stored-energy integration.
inline double interp_clamped(const double* xs, const double* ys, int n, double x) {
  if (n <= 0) return 0.0;
  if (x <= xs[0]) return ys[0];
  if (x >= xs[n - 1]) return ys[n - 1];
  for (int i = 1; i < n; ++i) {
    if (x <= xs[i]) {
      const double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
      return ys[i - 1] + t * (ys[i] - ys[i - 1]);
    }
  }
  return ys[n - 1];
}

}  // namespace msehsim
