// Diode-OR source combiner.
//
// Several commercial boards (the EH-Link class) do not give every harvester
// its own conditioning chain: the sources are OR-ed through Schottky diodes
// into ONE input. Whichever source presents the highest voltage conducts;
// weaker sources are reverse-blocked and contribute nothing. This is the
// cheap alternative to per-source conditioning — and the reason such boards
// cannot harvest from several sources *simultaneously*, a trade-off the
// survey's per-module architectures exist to avoid.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harvest/harvester.hpp"

namespace msehsim::harvest {

class DiodeOrCombiner final : public Harvester {
 public:
  /// @p diode_drop forward drop of each OR-ing diode.
  DiodeOrCombiner(std::string name, std::vector<std::unique_ptr<Harvester>> sources,
                  Volts diode_drop = Volts{0.3});

  [[nodiscard]] std::string_view name() const override { return name_; }
  /// Reports the kind of the source currently conducting (or the first
  /// source when idle) — the combiner is electrically one input.
  [[nodiscard]] HarvesterKind kind() const override;

  [[nodiscard]] Amps current_at(Volts v) const override;
  [[nodiscard]] Volts open_circuit_voltage() const override;

  [[nodiscard]] const Harvester& source(std::size_t i) const {
    return *sources_.at(i);
  }

  /// Index of the source with the highest open-circuit voltage under the
  /// latched conditions (the one that will conduct).
  [[nodiscard]] std::size_t dominant_source() const;

  /// The 80-probe golden-section search over the summed curve that
  /// compute_mpp() used to run — kept public as the numeric cross-check for
  /// the piecewise closed form (tests assert <= 1e-9 relative agreement).
  [[nodiscard]] OperatingPoint golden_section_mpp() const {
    return Harvester::compute_mpp();
  }

 protected:
  void do_set_conditions(const env::AmbientConditions& c) override;

  /// Piecewise closed-form MPP. Between consecutive conduction cutoffs
  /// c_i = Voc_i - drop the active set is fixed; the Thevenin actives sum to
  /// the quadratic P = v (A - B v), whose clamped vertex is exact. Sources
  /// without a Thevenin equivalent (PV knee, capped turbine) contribute
  /// their own closed-form shifted MPP as a candidate. Every candidate is
  /// evaluated through the authoritative current_at() and the best kept — no
  /// per-step iterative search survives.
  [[nodiscard]] OperatingPoint compute_mpp() const override;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Harvester>> sources_;
  Volts diode_drop_;
  // Sum of the sources' curve revisions at the last do_set_conditions():
  // fault transitions inside a source swap its curve without changing the
  // ambient-conditions cache key, so the combiner tracks revisions itself.
  std::uint64_t sources_revision_{0};
};

}  // namespace msehsim::harvest
