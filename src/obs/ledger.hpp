// Energy-flow ledger — pillar 2 of the observability layer.
//
// Per-run conservation accounting at every boundary of the power chain:
// transducer -> input conditioner -> bus -> {storage, output conditioner ->
// load, quiescent overhead}. The rows are filled from accumulators the
// simulation already integrates per step (systems::Platform and
// power::InputChain), so the ledger costs nothing extra on the hot path and
// its values are byte-identical whether observability is compiled in or
// out.
//
// The standing invariant — every future PR's free test oracle — is the bus
// boundary identity, exact in real arithmetic by construction of
// Platform::step's balance loop:
//
//   harvested + storage_discharged + unserved
//     = quiescent + bus_load + storage_charged + wasted
//
// residual() measures how far separately-summed accumulators drift apart in
// floating point (~steps * eps, orders below the 1e-9 relative gate).
// Storage-internal losses (charge inefficiency + leakage) and the output
// converter's loss are derived rows, so the reader can also balance the
// survey-level books: harvested = load + losses + wasted + Δstored.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace msehsim::obs {

/// Per-input-chain breakdown: where one source's joules went between the
/// transducer terminal and the bus. Exact chain identity:
/// transducer = conversion_loss + tracker_overhead + delivered.
struct SourceRow {
  std::string name;          ///< harvester name (outermost wrapper)
  std::string kind;          ///< harvester kind ("Light", "Wind", ...)
  double transducer_j{0.0};  ///< extracted at the operating point (post-duty)
  double conversion_loss_j{0.0};  ///< input converter + droop loss
  double tracker_overhead_j{0.0}; ///< MPPT overhead actually paid
  double delivered_j{0.0};        ///< landed on the bus
  double share{0.0};  ///< delivered / total delivered (0 when nothing flowed)
  std::uint64_t mpp_cache_hits{0};   ///< this harvester's MPP memoization
  std::uint64_t mpp_recomputes{0};
};

struct EnergyLedger {
  // ---- Bus boundary (summed per step, exact identity) ---------------------
  double harvested_j{0.0};           ///< all chains into the bus
  double storage_discharged_j{0.0};  ///< stores (and fuel cell) into the bus
  double unserved_j{0.0};   ///< deficit nothing could cover (untruncated —
                            ///< unlike RunResult::unmet it keeps sub-1e-9 W
                            ///< leftovers, so the identity stays exact)
  double quiescent_j{0.0};  ///< platform overhead draw
  double bus_load_j{0.0};   ///< drawn by the output conditioner
  double storage_charged_j{0.0};  ///< bus into stores
  double wasted_j{0.0};           ///< surplus nothing could absorb

  // ---- Output boundary ----------------------------------------------------
  double rail_load_j{0.0};     ///< delivered to the node at the rail
  double output_loss_j{0.0};   ///< bus_load - rail_load (output converter)

  // ---- Storage boundary ---------------------------------------------------
  double initial_stored_j{0.0};
  double final_stored_j{0.0};
  double storage_delta_j{0.0};  ///< final - initial
  /// Charge inefficiency + self-discharge, derived:
  /// charged - discharged - delta.
  double storage_loss_j{0.0};
  /// storage_loss_j evaluated over the run's first half only, from a
  /// mid-run snapshot of the same accumulators (a one-shot event that
  /// systems::BatchRunner registers at duration/2). The superlinear-leak
  /// detector's probe: a loss growing linearly in duration splits ~evenly
  /// across the halves, so a second half markedly heavier than the first
  /// (Campaign::leak_warnings uses 2x) flags leakage compounding with
  /// state, not time. 0 when the run was too short to sample.
  double storage_loss_first_half_j{0.0};

  // ---- Transducer boundary ------------------------------------------------
  double transducer_j{0.0};       ///< sum over sources
  double conversion_loss_j{0.0};  ///< sum over sources
  double tracker_overhead_j{0.0}; ///< sum over sources
  std::vector<SourceRow> sources;

  /// Signed bus-boundary residual (inflow - outflow), joules.
  [[nodiscard]] double residual_j() const;

  /// residual_j() normalized by the gross bus flow (>= 1 J floor so empty
  /// runs don't divide by zero). The conservation gate is < 1e-9.
  [[nodiscard]] double relative_residual() const;

  /// Signed transducer-boundary residual for source @p i.
  [[nodiscard]] double source_residual_j(std::size_t i) const;

  /// The variable-length `ledger.source[i].*` blocks that
  /// to_string(RunResult) appends after its table-driven scalar lines (the
  /// aggregate `ledger.*` rows live in systems::run_result_fields()).
  /// Locale-independent via core/fmt and byte-comparable across runs.
  [[nodiscard]] std::string sources_to_string() const;
};

}  // namespace msehsim::obs
