// Prioritized backup chain — FailoverPolicy generalized to N stages.
//
// The survey's platforms do not stop at one backup: System A keeps a
// hydrogen fuel cell behind its ambient stores, field deployments add a
// primary lithium cell behind that, and when every reserve is gone the last
// resort is shedding load (duty-cycling the node down to its floor). This
// chain models that ladder: stages engage in priority order — each one only
// after its predecessor is already in (or depleted) — with per-stage
// debounce and SoC hysteresis, and disengage in reverse order once the
// primaries have demonstrably recovered. Per-stage switch-in counters and
// residency times feed the survivability report (systems::RunResult).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/units.hpp"
#include "node/sensor_node.hpp"
#include "storage/fuel_cell.hpp"
#include "storage/switched.hpp"

namespace msehsim::manager {

/// What a backup stage actuates when it engages.
enum class BackupStageKind {
  kFuelCell,         ///< enable a storage::FuelCell (refills ambient stores)
  kSwitchedStorage,  ///< close a storage::SwitchedStorage gate (reserve cell)
  kLoadShed,         ///< force the node to its maximum task period
};

struct BackupStageParams {
  BackupStageKind kind{BackupStageKind::kFuelCell};
  /// Storage-bank slot of the actuated device (ignored for kLoadShed).
  std::size_t storage_slot{0};
  /// Regardless of source health, engage below this ambient SoC ...
  double enable_below_soc{0.25};
  /// ... and never disengage before the buffer is back above this.
  double disable_above_soc{0.50};
  /// A primary-source outage must persist this long before this stage
  /// engages (debounce: clouds are not faults). Later stages typically use
  /// longer times, so the ladder escalates rather than firing at once.
  Seconds min_outage{600.0};
  /// Primary recovery must persist this long before this stage disengages.
  Seconds min_recovery{1800.0};
};

class BackupChain {
 public:
  struct Params {
    /// Primary sources count as dead while their combined delivered power
    /// stays below this.
    Watts primary_dead_below{5e-6};
    std::vector<BackupStageParams> stages;
  };

  /// Accumulated per-stage bookkeeping for the survivability report.
  struct StageStats {
    std::uint64_t switch_ins{0};
    std::uint64_t switch_outs{0};
    Seconds residency{0.0};  ///< time spent engaged
  };

  explicit BackupChain(Params params);

  /// Binds stage @p i to its actuation target. Exactly one pointer must be
  /// non-null and it must match the stage's kind. systems::Platform calls
  /// this from set_backup_chain after validating the storage bank; the
  /// targets must outlive the chain.
  void bind_stage(std::size_t i, storage::FuelCell* cell,
                  storage::SwitchedStorage* switched, node::SensorNode* node);

  /// One control step (run after the duty-cycle controller so an engaged
  /// load-shed stage overrides its period choice). @p primary_power is the
  /// combined delivered power of the ambient input chains over the last
  /// step; @p ambient_soc the SoC of the environmentally fed stores.
  void update(Seconds now, Watts primary_power, double ambient_soc);

  [[nodiscard]] std::size_t stage_count() const { return stages_.size(); }
  [[nodiscard]] bool stage_engaged(std::size_t i) const {
    return stages_.at(i).engaged;
  }
  [[nodiscard]] const StageStats& stage_stats(std::size_t i) const {
    return stages_.at(i).stats;
  }

  /// True while the chain considers the primary sources dead.
  [[nodiscard]] bool primary_down() const { return primary_down_; }

  /// Stage engagements / disengagements summed over the chain (the
  /// FaultReport failover/failback totals).
  [[nodiscard]] std::uint64_t failovers() const;
  [[nodiscard]] std::uint64_t failbacks() const;

  // ---- Failover latency (matches manager::FailoverPolicy) -----------------
  // Fault onset -> *first* stage engagement, credited once per outage
  // episode; pure-SoC engagements have no onset and are excluded.

  [[nodiscard]] Seconds failover_latency_total() const {
    return failover_latency_total_;
  }
  [[nodiscard]] std::uint64_t failover_latency_count() const {
    return failover_latency_count_;
  }

 private:
  struct Stage {
    BackupStageParams params;
    storage::FuelCell* cell{nullptr};
    storage::SwitchedStorage* switched{nullptr};
    node::SensorNode* node{nullptr};
    bool engaged{false};
    /// Saved task period while a load-shed stage is in.
    std::optional<Seconds> saved_period{};
    StageStats stats{};
  };

  /// A stage whose reserve is exhausted no longer blocks its successor.
  [[nodiscard]] static bool depleted(const Stage& stage);
  void engage(Stage& stage);
  void disengage(Stage& stage);

  Params chain_params_;
  std::vector<Stage> stages_;
  std::optional<Seconds> outage_since_;
  std::optional<Seconds> recovery_since_;
  std::optional<Seconds> last_update_;
  bool primary_down_{false};
  bool latency_credited_{false};  ///< once per outage episode
  Seconds failover_latency_total_{0.0};
  std::uint64_t failover_latency_count_{0};
};

}  // namespace msehsim::manager
