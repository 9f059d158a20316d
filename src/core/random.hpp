// Deterministic random number generation for msehsim.
//
// Every stochastic model in the simulator (clouds, wind gusts, machinery
// schedules, RF bursts) draws from a Pcg32 stream seeded from a component
// key, so a simulation with a given seed is bit-reproducible across runs and
// platforms. std::mt19937 + std::*_distribution are deliberately avoided:
// the standard distributions are implementation-defined, which would make
// traces differ between standard libraries.
#pragma once

#include <cstdint>
#include <string_view>

namespace msehsim {

/// Permuted-congruential generator (PCG-XSH-RR 64/32, O'Neill 2014).
/// Small, fast, and statistically solid for simulation use.
class Pcg32 {
 public:
  /// Seeds the generator; @p stream selects one of 2^63 independent streams.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Next uniformly distributed 32-bit value.
  std::uint32_t next_u32();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint32_t next_below(std::uint32_t n);

  /// Standard normal deviate (Box-Muller, cached pair).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential deviate with the given mean. Requires mean > 0.
  double exponential(double mean);

  /// Bernoulli trial with success probability @p p.
  bool bernoulli(double p);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  bool has_cached_normal_{false};
  double cached_normal_{0.0};
};

/// Derives a stable 64-bit stream key from a component name (FNV-1a).
/// Lets each component own an independent, reproducible random stream.
std::uint64_t stream_key(std::string_view name);

}  // namespace msehsim
