// Error types for msehsim.
//
// Construction-time specification errors (impossible capacitances, negative
// efficiencies, malformed wiring) throw SpecError: a component that cannot
// establish its invariant must not exist (Core Guidelines C.42). Runtime
// electrical anomalies — brownout, over-voltage, bus NAK — are *modelled
// behaviour*, reported through return values and event counters, never
// exceptions.
//
// require_spec also guards a few per-step preconditions (SensorNode::step's
// dt, CompiledTrace::at's index), so a check that passes must cost a compare
// and nothing else: the message is a std::string_view over the caller's
// literal, and the std::string that SpecError carries is built only on the
// throwing path (DESIGN.md §8, "Allocation-free step").
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace msehsim {

/// Thrown when a component is constructed with a physically meaningless or
/// inconsistent specification.
class SpecError : public std::invalid_argument {
 public:
  explicit SpecError(const std::string& what) : std::invalid_argument(what) {}
};

/// Throws SpecError with @p message unless @p condition holds. A passing
/// check allocates nothing.
inline void require_spec(bool condition, std::string_view message) {
  if (!condition) [[unlikely]] throw SpecError(std::string(message));
}

}  // namespace msehsim
