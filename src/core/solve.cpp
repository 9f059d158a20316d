#include "core/solve.hpp"

namespace msehsim {

double bisect(const std::function<double(double)>& f, double lo, double hi,
              int iterations) {
  return bisect_fn(f, lo, hi, iterations);
}

double golden_max(const std::function<double(double)>& f, double lo, double hi,
                  int iterations) {
  return golden_max_fn(f, lo, hi, iterations);
}

}  // namespace msehsim
