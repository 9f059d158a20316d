#include "manager/backup_chain.hpp"

#include "core/error.hpp"

namespace msehsim::manager {

BackupChain::BackupChain(Params params) : chain_params_(std::move(params)) {
  require_spec(chain_params_.primary_dead_below.value() >= 0.0,
               "backup-chain dead-power threshold must be >= 0");
  require_spec(!chain_params_.stages.empty(),
               "backup chain needs at least one stage");
  for (const auto& sp : chain_params_.stages) {
    require_spec(sp.enable_below_soc < sp.disable_above_soc,
                 "backup-stage hysteresis window inverted");
    require_spec(sp.enable_below_soc >= 0.0 && sp.disable_above_soc <= 1.0,
                 "backup-stage thresholds must be in [0,1]");
    require_spec(sp.min_outage.value() > 0.0,
                 "backup-stage min outage must be > 0");
    require_spec(sp.min_recovery.value() > 0.0,
                 "backup-stage min recovery must be > 0");
    stages_.push_back(Stage{sp});
  }
}

void BackupChain::bind_stage(std::size_t i, storage::FuelCell* cell,
                             storage::SwitchedStorage* switched,
                             node::SensorNode* node) {
  require_spec(i < stages_.size(), "bind_stage: stage index out of range");
  Stage& stage = stages_[i];
  switch (stage.params.kind) {
    case BackupStageKind::kFuelCell:
      require_spec(cell != nullptr && switched == nullptr && node == nullptr,
                   "fuel-cell stage binds exactly a FuelCell");
      break;
    case BackupStageKind::kSwitchedStorage:
      require_spec(switched != nullptr && cell == nullptr && node == nullptr,
                   "switched-storage stage binds exactly a SwitchedStorage");
      break;
    case BackupStageKind::kLoadShed:
      require_spec(node != nullptr && cell == nullptr && switched == nullptr,
                   "load-shed stage binds exactly a SensorNode");
      break;
  }
  stage.cell = cell;
  stage.switched = switched;
  stage.node = node;
}

bool BackupChain::depleted(const Stage& stage) {
  switch (stage.params.kind) {
    case BackupStageKind::kFuelCell:
      return stage.cell->stored_energy().value() <= 0.0;
    case BackupStageKind::kSwitchedStorage:
      return stage.switched->stored_energy().value() <= 0.0;
    case BackupStageKind::kLoadShed:
      return false;  // shedding load never runs out
  }
  return false;
}

void BackupChain::engage(Stage& stage) {
  switch (stage.params.kind) {
    case BackupStageKind::kFuelCell:
      stage.cell->set_enabled(true);
      break;
    case BackupStageKind::kSwitchedStorage:
      stage.switched->set_connected(true);
      break;
    case BackupStageKind::kLoadShed:
      stage.saved_period = stage.node->task_period();
      stage.node->set_task_period(stage.node->workload().max_period);
      break;
  }
  stage.engaged = true;
  ++stage.stats.switch_ins;
}

void BackupChain::disengage(Stage& stage) {
  switch (stage.params.kind) {
    case BackupStageKind::kFuelCell:
      stage.cell->set_enabled(false);
      break;
    case BackupStageKind::kSwitchedStorage:
      stage.switched->set_connected(false);
      break;
    case BackupStageKind::kLoadShed:
      if (stage.saved_period.has_value()) {
        stage.node->set_task_period(*stage.saved_period);
        stage.saved_period.reset();
      }
      break;
  }
  stage.engaged = false;
  ++stage.stats.switch_outs;
}

void BackupChain::update(Seconds now, Watts primary_power, double ambient_soc) {
  // Residency first, over the interval since the previous tick, for the
  // stages that were engaged across it.
  if (last_update_.has_value()) {
    const Seconds span = now - *last_update_;
    for (auto& stage : stages_)
      if (stage.engaged) stage.stats.residency += span;
  }
  last_update_ = now;

  // Outage / recovery debounce clocks, shared by all stages.
  const bool alive = primary_power > chain_params_.primary_dead_below;
  if (alive) {
    outage_since_.reset();
    latency_credited_ = false;  // episode over; the next outage is a new one
    if (!recovery_since_.has_value()) recovery_since_ = now;
  } else {
    recovery_since_.reset();
    if (!outage_since_.has_value()) outage_since_ = now;
  }
  primary_down_ = false;

  // Engage forward: stage i may switch in only once every earlier stage is
  // already in or has nothing left to give — the ladder escalates within a
  // single tick when a reserve is found empty.
  bool predecessors_ok = true;
  for (auto& stage : stages_) {
    const Seconds outage_age = outage_since_.has_value()
                                   ? now - *outage_since_
                                   : Seconds{0.0};
    const bool outage_tripped = outage_since_.has_value() &&
                                outage_age >= stage.params.min_outage;
    if (outage_tripped) primary_down_ = true;
    if (!stage.engaged && predecessors_ok &&
        (outage_tripped || ambient_soc < stage.params.enable_below_soc)) {
      engage(stage);
      if (outage_since_.has_value() && !latency_credited_) {
        failover_latency_total_ += outage_age;
        ++failover_latency_count_;
        latency_credited_ = true;
      }
    }
    predecessors_ok = predecessors_ok && (stage.engaged || depleted(stage));
  }

  // An engaged load-shed stage re-asserts the floor period every tick so the
  // duty-cycle controller (which ran before us) cannot creep it back up.
  for (auto& stage : stages_)
    if (stage.engaged && stage.params.kind == BackupStageKind::kLoadShed)
      stage.node->set_task_period(stage.node->workload().max_period);

  // Disengage in reverse: a stage backs out only once every later stage is
  // already out, the primaries have held up for its recovery window, and
  // the buffer is demonstrably back.
  const bool recovered_base = recovery_since_.has_value();
  bool successors_out = true;
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    Stage& stage = *it;
    const bool recovered =
        recovered_base && now - *recovery_since_ >= stage.params.min_recovery;
    if (stage.engaged && successors_out && recovered &&
        ambient_soc > stage.params.disable_above_soc) {
      disengage(stage);
    }
    successors_out = successors_out && !stage.engaged;
  }
}

std::uint64_t BackupChain::failovers() const {
  std::uint64_t total = 0;
  for (const auto& stage : stages_) total += stage.stats.switch_ins;
  return total;
}

std::uint64_t BackupChain::failbacks() const {
  std::uint64_t total = 0;
  for (const auto& stage : stages_) total += stage.stats.switch_outs;
  return total;
}

}  // namespace msehsim::manager
