// Run-health timeline — fixed-cadence time-series sampling for one run.
//
// The survey's taxonomy axis T3 (and the ns-3 energy-framework / EnHANTs
// experimental practice) treats per-interval harvest/storage traces as the
// primary artifact of a harvesting study; end-of-run aggregates alone cannot
// show *when* a system browned out or which source carried the morning. A
// Timeline is the deterministic container for that artifact: a column-major
// (SoA) table of named channels sampled on a fixed simulated-time cadence.
//
// The class is deliberately generic — it knows column names, not platform
// internals — so the obs layer stays a leaf over core. The run-health schema
// (per-source harvested/delivered power, storage SoC, stored energy, bus
// voltage, backup-chain stage, unserved energy) lives with the sampler in
// systems/runner.cpp, which every lane of systems::BatchRunner runs.
//
// Determinism contract, mirroring the authoritative-field-table discipline:
// one column-name table drives csv(), every double renders through
// core/fmt, and sampling is driven by the simulation clock (a read-only
// periodic event), never the wall clock — so enabling a timeline changes no
// RunResult byte, and the samples themselves are byte-identical across
// thread counts and lane widths.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/units.hpp"

namespace msehsim::obs {

class Timeline {
 public:
  /// @p cadence the sampling period in simulated seconds (> 0);
  /// @p columns the channel names, fixed for the Timeline's lifetime.
  Timeline(Seconds cadence, std::vector<std::string> columns);

  /// Pre-sizes every column for @p samples rows (year-scale runs append
  /// tens of thousands of rows; growth reallocations are avoidable noise).
  void reserve(std::size_t samples);

  /// Appends one row. @p count must equal column_count() — a sampler whose
  /// row drifted from the schema is a bug, not a truncation.
  void append(double t_s, const double* values, std::size_t count);

  [[nodiscard]] Seconds cadence() const { return cadence_; }
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  [[nodiscard]] std::size_t column_count() const { return columns_.size(); }
  [[nodiscard]] std::size_t sample_count() const { return t_s_.size(); }
  [[nodiscard]] const std::vector<double>& time() const { return t_s_; }
  [[nodiscard]] const std::vector<double>& column(std::size_t i) const {
    return data_[i];
  }
  /// Index of @p name, or npos when absent.
  [[nodiscard]] std::size_t find_column(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `t_s,<columns...>` header + one row per sample, every double in the
  /// locale-independent shortest round-trip form of core/fmt.
  [[nodiscard]] std::string csv() const;

 private:
  Seconds cadence_;
  std::vector<std::string> columns_;
  std::vector<double> t_s_;
  std::vector<std::vector<double>> data_;  ///< column-major, one per column
};

}  // namespace msehsim::obs
