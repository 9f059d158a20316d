// Harvester (transducer) interface.
//
// Every harvester exposes a DC-side I-V curve — current available at a given
// terminal voltage under the present ambient conditions (any internal
// AC rectification is folded into the curve). Input power conditioning
// (src/power) picks the operating point on this curve: an MPPT controller
// tracks the knee, a fixed-point circuit sits where it was told to
// (the System A vs System B contrast in Sec. II.1 of the survey).
//
// maximum_power_point() is memoized on the base class, keyed on the last
// conditions applied through set_conditions(): re-applying identical
// conditions (or re-querying within one step) reuses the cached operating
// point, while any changed field recomputes. set_conditions() is therefore a
// non-virtual template-method: subclasses latch state in do_set_conditions()
// and call invalidate_mpp_cache() whenever their curve changes for reasons
// the conditions key cannot see (fault-mode transitions in
// fault::FaultyHarvester). A Harvester is NOT thread-safe — the cache is
// plain mutable state; concurrent simulations must each own their harvesters
// (see campaign::Campaign, which builds one platform per job).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/units.hpp"
#include "env/conditions.hpp"

namespace msehsim::harvest {

/// Energy source types appearing in Table I of the survey.
enum class HarvesterKind {
  kPhotovoltaic,   ///< "Light"
  kWind,           ///< "Wind"
  kThermoelectric, ///< "Thermal"
  kPiezo,          ///< "Vibration" / "Piezo/Mech"
  kInductive,      ///< electromagnetic vibration (EH-Link)
  kRf,             ///< "Radio"
  kWaterFlow,      ///< "Water Flow" (MPWiNode)
  kAcDc,           ///< "General AC/DC > 5V" (EH-Link)
};

[[nodiscard]] std::string_view to_string(HarvesterKind kind);

/// A point on an I-V curve.
struct OperatingPoint {
  Volts v{0.0};
  Amps i{0.0};
  Watts p{0.0};
};

/// Thevenin-equivalent DC source: the workhorse electrical abstraction for
/// rectified transducers. Maximum power Voc^2/(4R) is reached at Voc/2.
struct TheveninSource {
  Volts voc{0.0};
  Ohms r{1.0};

  [[nodiscard]] Amps current_at(Volts v) const {
    if (v >= voc || r.value() <= 0.0) return Amps{0.0};
    return (voc - v) / r;
  }
  [[nodiscard]] Watts max_power() const {
    return Watts{voc.value() * voc.value() / (4.0 * r.value())};
  }
};

class Harvester {
 public:
  virtual ~Harvester() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual HarvesterKind kind() const = 0;

  /// Latches the ambient conditions for the current timestep. Non-virtual:
  /// normalizes NaN channels to +0.0 (a NaN key never equals itself, so it
  /// would defeat the memo and poison the curve — see env::sanitized),
  /// manages the MPP cache key, then dispatches to do_set_conditions().
  void set_conditions(const env::AmbientConditions& c) {
    const env::AmbientConditions clean = env::sanitized(c);
    if (!mpp_key_set_ || !(clean == mpp_key_)) {
      invalidate_mpp_cache();
      mpp_key_ = clean;
      mpp_key_set_ = true;
    }
    do_set_conditions(clean);
  }

  /// DC current the harvester sources into terminal voltage @p v under the
  /// latched conditions. Non-negative (input conditioning always includes
  /// reverse-blocking, Sec. II.1); zero at or above open-circuit voltage.
  [[nodiscard]] virtual Amps current_at(Volts v) const = 0;

  /// Open-circuit voltage under the latched conditions.
  [[nodiscard]] virtual Volts open_circuit_voltage() const = 0;

  /// Power delivered into terminal voltage @p v.
  [[nodiscard]] Watts power_at(Volts v) const { return v * current_at(v); }

  /// True maximum power point under the latched conditions (numeric oracle;
  /// MPPT controllers in src/power approximate this online). Memoized per
  /// applied conditions; the cached point is byte-identical to a fresh
  /// compute_mpp() because identical conditions define an identical curve.
  ///
  /// Defined inline: the memo probe costs a flag check instead of a
  /// function call.
  [[nodiscard]] OperatingPoint maximum_power_point() const {
    if (mpp_cache_enabled() && mpp_valid_) {
      ++mpp_hits_;
      return mpp_cache_;
    }
    return recompute_mpp();
  }

  /// Exact Thevenin equivalent of the current curve under the latched
  /// conditions, when the curve is exactly linear (TEG, vibration, RF,
  /// AC/DC, an uncapped turbine, and their fault wrappers). nullopt means
  /// "not representable" (PV diode knee, a power-capped turbine). Composite
  /// harvesters use this to solve their own MPP in closed form region by
  /// region instead of searching the summed curve.
  [[nodiscard]] virtual std::optional<TheveninSource> thevenin_equivalent()
      const {
    return std::nullopt;
  }

  /// Maximum of (u - shift) * I(u) over the source voltage u — the operating
  /// point a diode-OR combiner would pick were this source alone conducting
  /// behind a diode of forward drop @p shift. Reported at the *combiner*
  /// terminal: v = u - shift, i = I(u), p = v * i. The default runs the
  /// golden-section fallback; transducers with a closed-form knee override
  /// it (PvPanel: shifted log-domain Newton). shift = 0 reduces to the
  /// plain MPP.
  [[nodiscard]] virtual OperatingPoint shifted_mpp(Volts shift) const;

  /// Monotone count of curve changes: bumped whenever the latched conditions
  /// change and whenever invalidate_mpp_cache() fires (fault-mode
  /// transitions, intermittent flips, hot-swaps). Composites such as
  /// DiodeOrCombiner watch their sources' revisions to drop their own cached
  /// MPP on changes their conditions key cannot see.
  [[nodiscard]] std::uint64_t curve_revision() const { return curve_revision_; }

  // ---- MPP cache instrumentation and control ------------------------------

  /// Times maximum_power_point() was answered from the cache / recomputed.
  [[nodiscard]] std::uint64_t mpp_cache_hits() const { return mpp_hits_; }
  [[nodiscard]] std::uint64_t mpp_recomputes() const { return mpp_recomputes_; }

  /// Process-wide cache kill-switch for determinism audits: with the cache
  /// disabled every maximum_power_point() call recomputes. Results must be
  /// byte-identical either way (the fault layer's replay contract). Toggle
  /// only while no simulation is running; the flag is read (not written) by
  /// concurrent campaign workers.
  static void set_mpp_cache_enabled(bool enabled);
  [[nodiscard]] static bool mpp_cache_enabled();

 protected:
  /// Subclass hook: latch whatever internal curve state @p c implies.
  virtual void do_set_conditions(const env::AmbientConditions& c) = 0;

  /// Computes the MPP from scratch. The default runs a golden-section search
  /// over power_at() on [0, Voc]; concrete transducers override with exact
  /// closed-form or Newton solutions on their own curve (same extremum, no
  /// 80-iteration search on the hot path).
  [[nodiscard]] virtual OperatingPoint compute_mpp() const;

  /// Drops the cached MPP. For curve changes invisible to the conditions
  /// key — fault-mode transitions, hot-swapped internals.
  void invalidate_mpp_cache() const {
    mpp_valid_ = false;
    ++curve_revision_;
  }

 private:
  /// Cold half of maximum_power_point(): solve + cache fill. Conditions
  /// change every step in trace-driven runs, so this is the
  /// per-lane-per-step path.
  [[nodiscard]] OperatingPoint recompute_mpp() const {
    const OperatingPoint mpp = compute_mpp();
    ++mpp_recomputes_;
    if (mpp_cache_enabled()) {
      mpp_cache_ = mpp;
      mpp_valid_ = true;
    }
    return mpp;
  }

  mutable OperatingPoint mpp_cache_;
  mutable bool mpp_valid_{false};
  mutable std::uint64_t curve_revision_{0};
  mutable std::uint64_t mpp_hits_{0};
  mutable std::uint64_t mpp_recomputes_{0};
  bool mpp_key_set_{false};
  env::AmbientConditions mpp_key_;
};

/// Exact MPP of a plain Thevenin curve: V* = Voc/2. The operating current is
/// read back through the harvester's public curve so clamps and caps stay
/// authoritative. Inline next to the class so a final subclass's compute_mpp
/// collapses to straight-line math.
[[nodiscard]] inline OperatingPoint thevenin_mpp(const Harvester& h,
                                                 Volts voc) {
  if (voc.value() <= 0.0) return OperatingPoint{};
  OperatingPoint mpp;
  mpp.v = voc * 0.5;
  mpp.i = h.current_at(mpp.v);
  mpp.p = mpp.v * mpp.i;
  return mpp;
}

}  // namespace msehsim::harvest
