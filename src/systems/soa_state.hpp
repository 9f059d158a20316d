// SoA lane state for the batched kernel (systems::BatchRunner).
//
// Stepping each lane through Platform::step walks its component objects;
// the storage + chain inner loops (~82% of the physics share) are then
// Amdahl-bound on pointer-chasing scalar code. This layer packs the hot state of *eligible* lanes into per-group contiguous
// columns — supercap branch voltages, battery SoC, leakage-decay factors,
// RC-redistribution coefficients, converter operating points, MPP powers,
// tracker overheads, and every platform accumulator the step mutates — and
// advances all clean lanes of a group with width-strided loops over those
// columns (systems/soa_step_body.inc) built from the SAME single-source
// kernels the scalar objects delegate to (storage/lane_kernels.hpp,
// power::detail transfer/tail helpers). One expression sequence, two
// traversal orders: byte-identical by construction.
//
// Residency protocol (the divergence exit/re-entry contract):
//  - resident == 1: the columns are authoritative for that lane, including
//    accumulators; the component objects are stale.
//  - begin_step: a lane is divergent iff an event is due this step (fault
//    onset, management tick, mid-run probe — the same next_scheduled() <
//    horizon window test the scalar loop uses) or it is not resident. A
//    resident divergent lane is scattered (columns -> objects) first, so
//    events and the scalar step body see fresh objects; either way it is
//    marked run_scalar for the caller.
//  - BatchRunner runs the unchanged scalar body for marked lanes.
//  - step_clean advances contiguous runs of resident lanes per group.
//  - end_step re-gathers every lane that ran scalar (objects -> columns,
//    refreshing fault-mutable coefficients: converter droop, supercap fade /
//    leakage multipliers, battery health) — unless one of its chains is in
//    thermal shutdown, in which case the lane stays non-resident (scalar)
//    until the cut-out heals, avoiding per-step scatter/gather churn.
//
// Eligibility (decided once per lane at add_lane, by dynamic_cast on each
// slot): every storage slot is a Supercapacitor (incl. LIC) with
// voltage_capacitance_slope == 0 — constant capacitance is what lets the
// exp() decay factors hoist into per-lane constants bit-equal to the
// objects' transparent ExpMemo results — or a Battery. Fuel cells, switched
// reserves, and any other StorageDevice make the whole lane take
// BatchRunner's per-lane Platform::step (System A and BackupChain platforms
// do this today). The chains impose nothing: the pre-stage calls the
// harvester through its virtual interface, so every Harvester subclass,
// fault-wrapped or not, stays eligible.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/units.hpp"
#include "env/conditions.hpp"
#include "node/sensor_node.hpp"
#include "power/chain.hpp"
#include "power/converter.hpp"
#include "storage/battery.hpp"
#include "storage/supercapacitor.hpp"
#include "systems/platform.hpp"
#include "systems/runner.hpp"

namespace msehsim::systems::soa {

/// One storage slot's columns across a group's lanes. Exactly one of the
/// class-specific column sets is populated.
struct SlotCol {
  enum class Class : std::uint8_t { kSupercap, kBattery };
  Class cls{Class::kSupercap};

  // Supercapacitor: object pointers, hot state, coefficients, and the
  // per-lane hoisted decay/redistribution constants.
  std::vector<storage::Supercapacitor*> sc;
  std::vector<double> v_main, v_slow;
  std::vector<double> c0, k, c2, r2, esr, v_max, v_floor, leak_r;
  std::vector<double> alpha, c_series;  ///< redistribution relaxation
  std::vector<double> f_main, f_slow;   ///< per-step leakage decay factors
  std::vector<double> c2_div;  ///< c2 when > 0, else 1.0 — the safe divisor
                               ///< that keeps the branchless leakage loop
                               ///< free of 0/0 on single-branch lanes

  // Battery: object pointers, hot state, coefficients, decay factor.
  std::vector<storage::Battery*> bat;
  std::vector<double> q, tput;
  std::vector<double> full_q, r, eff, i_cmax, i_dmax, fade, health, leak_f;
  std::array<std::vector<double>, 5> ocv;
  std::vector<std::uint8_t> rechargeable;
};

/// One input chain's columns across a group's lanes.
struct ChainCol {
  std::vector<power::InputChain*> chain;
  std::vector<harvest::Harvester*> harv;

  // Hot state (power::InputChain::HotState fields).
  std::vector<double> next_update, opv, tp;
  std::vector<double> delivered, overhead, conv_loss, oh_paid, harv_sp,
      harv_mpp;
  std::vector<std::uint8_t> started;

  // Per-step scratch from the per-lane tracker pre-stage.
  std::vector<double> intr, mpp;

  // Coefficients (refreshed at every gather — droop and thermal state are
  // fault surfaces): converter pack, startup threshold, droop factor, and
  // the amortized tracker overhead per step.
  std::vector<double> pe, rated, iqc, min_in, max_in, drop, cond_frac;
  std::vector<double> startup, droop, oh_now;
  std::vector<std::uint8_t> topo;

  // Shape facts fixed at finalize (topology and startup thresholds are not
  // fault-mutable): when every lane shares a topology and none has a
  // cold-start threshold, the chain tail runs the branch-minimal
  // transfer_raw<T> specialization.
  bool uniform_topo{false};
  power::Topology topo0{power::Topology::kDiode};
  bool any_startup{false};
};

/// A set of same-shaped lanes (identical slot classes, priority order, front
/// store, chain count, node presence) stepped together by the strided body.
struct Group {
  std::size_t slot_count{0};
  std::size_t chain_count{0};
  std::vector<std::size_t> prio;  ///< slot indices in charge/discharge order
  std::size_t front_slot{0};      ///< bus_voltage_with's selected store
  bool has_node{false};           ///< node fitted AND output chain fitted

  struct LaneRef {
    std::size_t lane_id;
    Platform* platform;
  };
  std::vector<LaneRef> lane;
  std::vector<const power::OutputChain*> out;
  std::vector<node::SensorNode*> node;
  std::vector<double> iq;  ///< spec quiescent current (amps, immutable)

  // Per-step scratch.
  std::vector<double> p_in, p_q, bus_v, p_bus_load, net_w, work_w;
  std::vector<std::uint8_t> charging;

  // Platform accumulators (systems::Platform::HotState fields).
  std::vector<double> quiescent_e, load_e, wasted_e, unmet_e, bus_load_e,
      charged_e, discharged_e, unserved_e, neutral_s, first_brownout_s,
      first_unserved_s;
  std::vector<std::uint8_t> latch;
  std::vector<std::uint64_t> brownouts;

  std::vector<std::uint8_t> resident;     ///< columns authoritative
  std::vector<std::uint8_t> step_scalar;  ///< ran scalar this step

  std::vector<SlotCol> slots;
  std::vector<ChainCol> chains;
};

/// Coefficient-pack views into the columns at lane position @p j — the
/// bridges between the SoA layout and the shared per-element kernels.
MSEHSIM_ALWAYS_INLINE storage::lanekernel::ScCoef sc_coef_at(const SlotCol& s,
                                                             std::size_t j) {
  return {s.c0[j],     s.k[j],     s.c2[j],    s.r2[j],
          s.esr[j],    s.leak_r[j], s.v_max[j], s.v_floor[j]};
}

MSEHSIM_ALWAYS_INLINE storage::lanekernel::BatCoef bat_coef_at(
    const SlotCol& s, std::size_t j) {
  return {s.full_q[j],
          s.r[j],
          s.eff[j],
          s.i_cmax[j],
          s.i_dmax[j],
          s.fade[j],
          s.health[j],
          s.rechargeable[j] != 0,
          {s.ocv[0][j], s.ocv[1][j], s.ocv[2][j], s.ocv[3][j], s.ocv[4][j]}};
}

MSEHSIM_ALWAYS_INLINE power::detail::CvtCoef cvt_coef_at(const ChainCol& c,
                                                         std::size_t j) {
  return {c.pe[j],     c.rated[j], c.iqc[j],      c.min_in[j],
          c.max_in[j], c.drop[j],  c.cond_frac[j]};
}

// The step body over one contiguous resident range [b, e) of a group: a
// bit-exact transcription of the scalar step (systems/soa_step_body.inc,
// compiled into soa_state.cpp), called by SoaBatch::step_clean.
void soa_step_range(Group& g, std::size_t b, std::size_t e,
                    const env::AmbientConditions& conditions, Seconds now,
                    Seconds dt);

/// SoA kernel execution counters — how the fast path actually behaved over
/// a run: quiet-step hit rate, resident-lane fraction, and why lanes left
/// the strided body. Pure diagnostics: they never feed RunResult (the
/// numbers are width- and schedule-dependent by nature) and surface only
/// through BatchRunner::soa_counters() -> campaign metrics -> Prometheus.
struct SoaCounters {
  std::uint64_t steps{0};            ///< begin_step calls
  std::uint64_t quiet_steps{0};      ///< steps taking the no-scan fast path
  std::uint64_t lane_steps{0};       ///< steps x registered SoA lanes
  std::uint64_t resident_lane_steps{0};  ///< lane-steps on the strided body
  std::uint64_t exit_event_due{0};   ///< resident lanes scattered for a due event
  std::uint64_t exit_not_resident{0};///< lane-steps spent off the fast path
  std::uint64_t thermal_latched{0};  ///< re-gathers skipped by the shutdown latch
};

/// The SoA lane batch owned by a BatchRunner::run() invocation.
class SoaBatch {
 public:
  explicit SoaBatch(const RunOptions& options);

  /// Registers @p platform as lane @p lane_id if eligible (see file header);
  /// returns whether it joined the SoA path. Call once per lane, then
  /// finalize().
  bool add_lane(std::size_t lane_id, Platform& platform);

  /// Builds the columns and gathers every registered lane. No add_lane after.
  void finalize();

  [[nodiscard]] std::size_t lane_count() const { return lane_index_.size(); }

  /// Marks divergent lanes in @p run_scalar (indexed by lane_id) and
  /// scatters resident ones so events and the scalar body see fresh objects.
  /// @p next_event_s is the runner's per-lane earliest-event array; a lane
  /// is divergent iff next_event_s[lane_id] < @p horizon_s or it is not
  /// resident.
  ///
  /// Quiet-step fast path: begin_step/end_step cache the batch-wide earliest
  /// event and an all-resident flag; while the horizon stays short of that
  /// minimum, both calls return without touching a lane. Valid because a
  /// resident lane's next_event_s can only change on a step it ran scalar
  /// (the runner dispatches events only for marked lanes), and end_step sees
  /// every such step.
  void begin_step(const std::vector<double>& next_event_s, double horizon_s,
                  std::vector<std::uint8_t>& run_scalar);

  /// Advances every resident lane one step via the strided body.
  void step_clean(const env::AmbientConditions& conditions, Seconds now,
                  Seconds dt);

  /// Re-gathers lanes that ran scalar this step (unless thermally latched),
  /// clears their run_scalar marks, and refreshes the quiet-step invariants
  /// from @p next_event_s (which carries the dispatched lanes' fresh event
  /// times by now).
  void end_step(const std::vector<double>& next_event_s,
                std::vector<std::uint8_t>& run_scalar);

  /// Chain power delivered into the bus this step (the scalar path's
  /// platform.last_input_power()) for a lane on the clean path.
  [[nodiscard]] double input_power(std::size_t lane_id) const;

  /// Stable pointer to the same value — columns never reallocate after
  /// finalize(), so the runner hoists the (group, position) indirection out
  /// of its per-step bookkeeping loop.
  [[nodiscard]] const double* input_power_ptr(std::size_t lane_id) const;

  /// Whether @p lane_id is currently resident on the SoA fast path (columns
  /// authoritative). False for lanes that never joined.
  [[nodiscard]] bool resident(std::size_t lane_id) const {
    if (lane_id >= lane_slot_.size()) return false;
    const auto [gp, pos] = lane_slot_[lane_id];
    return gp != 0 && groups_[gp - 1].resident[pos] != 0;
  }

  /// Execution counters accumulated since construction.
  [[nodiscard]] const SoaCounters& counters() const { return counters_; }

  /// Writes every resident lane's columns back to its objects (run end).
  void scatter_all();

 private:
  void gather(Group& g, std::size_t j);
  void scatter(Group& g, std::size_t j);

  double dt_s_;
  bool finalized_{false};
  // Quiet-step invariants (see begin_step doc). min_valid_ false forces the
  // next begin_step to take the scanning path and re-establish them.
  double min_next_event_{0.0};
  bool min_valid_{false};
  bool all_resident_{false};
  std::size_t marked_{0};  ///< lanes sent scalar by the last begin_step
  SoaCounters counters_;
  std::vector<Group> groups_;
  std::vector<std::pair<std::size_t, std::size_t>>
      lane_index_;  ///< lane_id -> (group, position), in add order
  std::vector<std::pair<std::size_t, std::size_t>>
      lane_slot_;  ///< indexed by lane_id; (group+1, position), 0 = not SoA
};

}  // namespace msehsim::systems::soa
