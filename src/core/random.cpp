#include "core/random.hpp"

#include <cmath>
#include <numbers>

#include "core/error.hpp"

namespace msehsim {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0u), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Pcg32::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

double Pcg32::next_double() {
  // 32 random bits -> [0,1) with 2^-32 resolution; ample for physical noise.
  return next_u32() * 0x1p-32;
}

double Pcg32::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

std::uint32_t Pcg32::next_below(std::uint32_t n) {
  require_spec(n > 0, "Pcg32::next_below requires n > 0");
  // Lemire's nearly-divisionless method is overkill here; simple rejection
  // keeps the stream consumption predictable for tests.
  const std::uint32_t threshold = (0u - n) % n;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % n;
  }
}

double Pcg32::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller. Guard against log(0).
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Pcg32::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Pcg32::exponential(double mean) {
  require_spec(mean > 0.0, "Pcg32::exponential requires mean > 0");
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Pcg32::bernoulli(double p) { return next_double() < p; }

std::uint64_t stream_key(std::string_view name) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV offset basis
  for (const char c : name) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;  // FNV prime
  }
  return hash;
}

}  // namespace msehsim
