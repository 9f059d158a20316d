// Strong SI unit types for the msehsim library.
//
// Everything in an energy-harvesting simulator is ultimately a double; the
// classic failure mode is feeding a current where a voltage was expected or
// summing joules with watts. Each physical dimension therefore gets its own
// vocabulary type with only the physically meaningful operators defined
// (Core Guidelines I.4: make interfaces precisely and strongly typed).
//
// The wrappers are zero-overhead: a Quantity is a single double, all
// operations are constexpr and inline.
#pragma once

#include <cmath>
#include <compare>
#include <iosfwd>

namespace msehsim {

/// Generic strongly-typed scalar. @p Tag distinguishes dimensions.
template <typename Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double value) : value_(value) {}

  [[nodiscard]] constexpr double value() const { return value_; }

  constexpr Quantity& operator+=(Quantity rhs) {
    value_ += rhs.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity rhs) {
    value_ -= rhs.value_;
    return *this;
  }
  constexpr Quantity& operator*=(double s) {
    value_ *= s;
    return *this;
  }
  constexpr Quantity& operator/=(double s) {
    value_ /= s;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.value_ + b.value_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.value_ - b.value_};
  }
  friend constexpr Quantity operator-(Quantity a) { return Quantity{-a.value_}; }
  friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity{a.value_ * s};
  }
  friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity{a.value_ * s};
  }
  friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity{a.value_ / s};
  }
  /// Ratio of two like quantities is dimensionless.
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.value_ / b.value_;
  }
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

 private:
  double value_{0.0};
};

// ---------------------------------------------------------------------------
// Dimension vocabulary.
// ---------------------------------------------------------------------------

using Volts = Quantity<struct VoltsTag>;
using Amps = Quantity<struct AmpsTag>;
using Watts = Quantity<struct WattsTag>;
using Joules = Quantity<struct JoulesTag>;
using Ohms = Quantity<struct OhmsTag>;
using Farads = Quantity<struct FaradsTag>;
using Coulombs = Quantity<struct CoulombsTag>;
using Seconds = Quantity<struct SecondsTag>;
using Hertz = Quantity<struct HertzTag>;
using Kelvin = Quantity<struct KelvinTag>;  ///< temperature *difference* too
using MetersPerSecond = Quantity<struct MetersPerSecondTag>;
using WattsPerSquareMeter = Quantity<struct WattsPerSquareMeterTag>;  ///< irradiance
using Lux = Quantity<struct LuxTag>;  ///< illuminance (indoor light)
using MetersPerSecondSquared = Quantity<struct AccelTag>;  ///< vibration amplitude
using AmpHours = Quantity<struct AmpHoursTag>;

// ---------------------------------------------------------------------------
// Physically meaningful cross-dimension operators.
// ---------------------------------------------------------------------------

constexpr Watts operator*(Volts v, Amps i) { return Watts{v.value() * i.value()}; }
constexpr Watts operator*(Amps i, Volts v) { return v * i; }
constexpr Joules operator*(Watts p, Seconds t) { return Joules{p.value() * t.value()}; }
constexpr Joules operator*(Seconds t, Watts p) { return p * t; }
constexpr Watts operator/(Joules e, Seconds t) { return Watts{e.value() / t.value()}; }
constexpr Seconds operator/(Joules e, Watts p) { return Seconds{e.value() / p.value()}; }
constexpr Amps operator/(Volts v, Ohms r) { return Amps{v.value() / r.value()}; }
constexpr Volts operator*(Amps i, Ohms r) { return Volts{i.value() * r.value()}; }
constexpr Volts operator*(Ohms r, Amps i) { return i * r; }
constexpr Ohms operator/(Volts v, Amps i) { return Ohms{v.value() / i.value()}; }
constexpr Coulombs operator*(Amps i, Seconds t) { return Coulombs{i.value() * t.value()}; }
constexpr Coulombs operator*(Seconds t, Amps i) { return i * t; }
constexpr Coulombs operator*(Farads c, Volts v) { return Coulombs{c.value() * v.value()}; }
constexpr Volts operator/(Coulombs q, Farads c) { return Volts{q.value() / c.value()}; }
constexpr Amps operator/(Coulombs q, Seconds t) { return Amps{q.value() / t.value()}; }
constexpr Amps operator/(Watts p, Volts v) { return Amps{p.value() / v.value()}; }
constexpr Volts operator/(Watts p, Amps i) { return Volts{p.value() / i.value()}; }
constexpr double operator*(Hertz f, Seconds t) { return f.value() * t.value(); }

/// Energy stored in a capacitor charged to @p v : E = C V^2 / 2.
constexpr Joules capacitor_energy(Farads c, Volts v) {
  return Joules{0.5 * c.value() * v.value() * v.value()};
}

/// Charge capacity expressed in coulombs.
constexpr Coulombs to_coulombs(AmpHours ah) { return Coulombs{ah.value() * 3600.0}; }

// ---------------------------------------------------------------------------
// User-defined literals (msehsim::literals).
// ---------------------------------------------------------------------------

namespace literals {
constexpr Volts operator""_V(long double v) { return Volts{static_cast<double>(v)}; }
constexpr Volts operator""_mV(long double v) { return Volts{static_cast<double>(v) * 1e-3}; }
constexpr Amps operator""_A(long double v) { return Amps{static_cast<double>(v)}; }
constexpr Amps operator""_mA(long double v) { return Amps{static_cast<double>(v) * 1e-3}; }
constexpr Amps operator""_uA(long double v) { return Amps{static_cast<double>(v) * 1e-6}; }
constexpr Watts operator""_W(long double v) { return Watts{static_cast<double>(v)}; }
constexpr Watts operator""_mW(long double v) { return Watts{static_cast<double>(v) * 1e-3}; }
constexpr Watts operator""_uW(long double v) { return Watts{static_cast<double>(v) * 1e-6}; }
constexpr Joules operator""_J(long double v) { return Joules{static_cast<double>(v)}; }
constexpr Joules operator""_kJ(long double v) { return Joules{static_cast<double>(v) * 1e3}; }
constexpr Ohms operator""_Ohm(long double v) { return Ohms{static_cast<double>(v)}; }
constexpr Ohms operator""_kOhm(long double v) { return Ohms{static_cast<double>(v) * 1e3}; }
constexpr Farads operator""_F(long double v) { return Farads{static_cast<double>(v)}; }
constexpr Farads operator""_mF(long double v) { return Farads{static_cast<double>(v) * 1e-3}; }
constexpr Farads operator""_uF(long double v) { return Farads{static_cast<double>(v) * 1e-6}; }
constexpr Seconds operator""_s(long double v) { return Seconds{static_cast<double>(v)}; }
constexpr Seconds operator""_ms(long double v) { return Seconds{static_cast<double>(v) * 1e-3}; }
constexpr Seconds operator""_min(long double v) { return Seconds{static_cast<double>(v) * 60.0}; }
constexpr Seconds operator""_h(long double v) { return Seconds{static_cast<double>(v) * 3600.0}; }
constexpr Seconds operator""_days(long double v) {
  return Seconds{static_cast<double>(v) * 86400.0};
}
constexpr Hertz operator""_Hz(long double v) { return Hertz{static_cast<double>(v)}; }
constexpr Kelvin operator""_K(long double v) { return Kelvin{static_cast<double>(v)}; }
constexpr AmpHours operator""_mAh(long double v) {
  return AmpHours{static_cast<double>(v) * 1e-3};
}
constexpr AmpHours operator""_uAh(long double v) {
  return AmpHours{static_cast<double>(v) * 1e-6};
}
}  // namespace literals

}  // namespace msehsim
