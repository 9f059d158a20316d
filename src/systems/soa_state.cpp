// SoaBatch: eligibility, grouping, gather/scatter, and the residency
// protocol (see soa_state.hpp). The strided step body is included at the
// bottom of this TU.
#include "systems/soa_state.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace msehsim::systems::soa {

namespace {

/// Does @p g hold lanes of exactly this shape?
bool group_matches(const Group& g, const std::vector<SlotCol::Class>& cls,
                   const std::vector<std::size_t>& prio, std::size_t front,
                   std::size_t chain_count, bool has_node) {
  if (g.slot_count != cls.size() || g.chain_count != chain_count ||
      g.front_slot != front || g.has_node != has_node || g.prio != prio)
    return false;
  for (std::size_t i = 0; i < cls.size(); ++i)
    if (g.slots[i].cls != cls[i]) return false;
  return true;
}

void append_slot_lane(SlotCol& sl, storage::StorageDevice& d) {
  if (sl.cls == SlotCol::Class::kSupercap) {
    sl.sc.push_back(&static_cast<storage::Supercapacitor&>(d));
    for (auto* col : {&sl.v_main, &sl.v_slow, &sl.c0, &sl.k, &sl.c2, &sl.r2,
                      &sl.esr, &sl.v_max, &sl.v_floor, &sl.leak_r, &sl.alpha,
                      &sl.c_series, &sl.f_main, &sl.f_slow, &sl.c2_div})
      col->push_back(0.0);
  } else {
    sl.bat.push_back(&static_cast<storage::Battery&>(d));
    for (auto* col : {&sl.q, &sl.tput, &sl.full_q, &sl.r, &sl.eff, &sl.i_cmax,
                      &sl.i_dmax, &sl.fade, &sl.health, &sl.leak_f})
      col->push_back(0.0);
    for (auto& o : sl.ocv) o.push_back(0.0);
    sl.rechargeable.push_back(0);
  }
}

void append_chain_lane(ChainCol& cc, power::InputChain& chain) {
  cc.chain.push_back(&chain);
  cc.harv.push_back(&chain.harvester());
  for (auto* col :
       {&cc.next_update, &cc.opv, &cc.tp, &cc.delivered, &cc.overhead,
        &cc.conv_loss, &cc.oh_paid, &cc.harv_sp, &cc.harv_mpp, &cc.intr,
        &cc.mpp, &cc.pe, &cc.rated, &cc.iqc, &cc.min_in, &cc.max_in, &cc.drop,
        &cc.cond_frac, &cc.droop, &cc.oh_now})
    col->push_back(0.0);
  cc.started.push_back(0);
  // Topology and cold-start threshold are construction-time constants (no
  // fault mutates them), fixed here and folded into the shape facts at
  // finalize().
  cc.topo.push_back(static_cast<std::uint8_t>(chain.converter().topology()));
  cc.startup.push_back(chain.converter().params().startup_voltage.value());
}

}  // namespace

SoaBatch::SoaBatch(const RunOptions& options) : dt_s_(options.dt.value()) {}

bool SoaBatch::add_lane(std::size_t lane_id, Platform& platform) {
  if (lane_slot_.size() <= lane_id) lane_slot_.resize(lane_id + 1, {0, 0});
  const std::size_t slot_count = platform.storage_count();
  if (slot_count == 0) return false;

  // Eligibility: every slot a constant-capacitance supercap or a battery.
  std::vector<SlotCol::Class> cls(slot_count);
  for (std::size_t i = 0; i < slot_count; ++i) {
    const storage::StorageDevice& d = platform.store(i);
    if (const auto* sc = dynamic_cast<const storage::Supercapacitor*>(&d)) {
      if (sc->params().voltage_capacitance_slope != 0.0) return false;
      cls[i] = SlotCol::Class::kSupercap;
    } else if (dynamic_cast<const storage::Battery*>(&d) != nullptr) {
      cls[i] = SlotCol::Class::kBattery;
    } else {
      return false;  // fuel cell / switched reserve / any other device
    }
  }

  const bool has_node =
      platform.node() != nullptr && platform.output_chain() != nullptr;
  const std::size_t chain_count = platform.input_count();
  std::vector<std::size_t> prio = platform.priority_indices();

  // bus_voltage_with's front-store selection: lowest priority wins, first
  // slot on ties, fuel cells skipped (none can be present here).
  std::size_t front = 0;
  for (std::size_t i = 1; i < slot_count; ++i)
    if (platform.storage_priority(i) < platform.storage_priority(front))
      front = i;

  // Find or open the shape group.
  std::size_t gi = groups_.size();
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (group_matches(groups_[i], cls, prio, front, chain_count, has_node)) {
      gi = i;
      break;
    }
  }
  if (gi == groups_.size()) {
    Group g;
    g.slot_count = slot_count;
    g.chain_count = chain_count;
    g.prio = std::move(prio);
    g.front_slot = front;
    g.has_node = has_node;
    g.slots.resize(slot_count);
    for (std::size_t i = 0; i < slot_count; ++i) g.slots[i].cls = cls[i];
    g.chains.resize(chain_count);
    groups_.push_back(std::move(g));
  }

  Group& g = groups_[gi];
  const std::size_t pos = g.lane.size();
  g.lane.push_back({lane_id, &platform});
  g.out.push_back(platform.output_chain());
  g.node.push_back(platform.node());
  g.iq.push_back(platform.spec().quiescent_current.value());
  for (auto* col : {&g.p_in, &g.p_q, &g.bus_v, &g.p_bus_load, &g.net_w,
                    &g.work_w, &g.quiescent_e, &g.load_e, &g.wasted_e,
                    &g.unmet_e, &g.bus_load_e, &g.charged_e, &g.discharged_e,
                    &g.unserved_e, &g.neutral_s, &g.first_brownout_s,
                    &g.first_unserved_s})
    col->push_back(0.0);
  for (auto* col : {&g.charging, &g.latch, &g.resident, &g.step_scalar})
    col->push_back(0);
  g.brownouts.push_back(0);
  for (std::size_t i = 0; i < slot_count; ++i)
    append_slot_lane(g.slots[i], platform.store(i));
  for (std::size_t c = 0; c < chain_count; ++c)
    append_chain_lane(g.chains[c], platform.input(c));

  lane_index_.emplace_back(gi, pos);
  lane_slot_[lane_id] = {gi + 1, pos};
  return true;
}

void SoaBatch::finalize() {
  for (Group& g : groups_) {
    for (ChainCol& cc : g.chains) {
      cc.any_startup =
          std::any_of(cc.startup.begin(), cc.startup.end(),
                      [](double s) { return s > 0.0; });
      cc.uniform_topo =
          !cc.topo.empty() &&
          std::all_of(cc.topo.begin(), cc.topo.end(),
                      [&](std::uint8_t t) { return t == cc.topo.front(); });
      if (cc.uniform_topo)
        cc.topo0 = static_cast<power::Topology>(cc.topo.front());
    }
    for (std::size_t j = 0; j < g.lane.size(); ++j) {
      gather(g, j);
      g.resident[j] = 1;
    }
  }
  finalized_ = true;
}

void SoaBatch::gather(Group& g, std::size_t j) {
  Platform& p = *g.lane[j].platform;
  const Platform::HotState ph = p.hot_state();
  g.latch[j] = ph.brownout_latch ? 1 : 0;
  g.p_in[j] = ph.last_input_power_w;
  g.quiescent_e[j] = ph.quiescent_energy_j;
  g.load_e[j] = ph.load_energy_j;
  g.wasted_e[j] = ph.wasted_energy_j;
  g.unmet_e[j] = ph.unmet_energy_j;
  g.bus_load_e[j] = ph.bus_load_energy_j;
  g.charged_e[j] = ph.storage_charged_energy_j;
  g.discharged_e[j] = ph.storage_discharged_energy_j;
  g.unserved_e[j] = ph.unserved_energy_j;
  g.first_brownout_s[j] = ph.first_brownout_time_s;
  g.neutral_s[j] = ph.energy_neutral_time_s;
  g.first_unserved_s[j] = ph.first_unserved_time_s;
  g.brownouts[j] = ph.brownouts;

  for (ChainCol& cc : g.chains) {
    const power::InputChain& chain = *cc.chain[j];
    const power::InputChain::HotState ch = chain.hot_state();
    cc.next_update[j] = ch.next_update_s;
    cc.opv[j] = ch.operating_voltage_v;
    cc.tp[j] = ch.transducer_power_w;
    cc.delivered[j] = ch.delivered_j;
    cc.overhead[j] = ch.overhead_j;
    cc.conv_loss[j] = ch.conversion_loss_j;
    cc.oh_paid[j] = ch.overhead_paid_j;
    cc.harv_sp[j] = ch.harvested_at_setpoint_j;
    cc.harv_mpp[j] = ch.harvestable_at_mpp_j;
    cc.started[j] = ch.started ? 1 : 0;
    // Fault-mutable coefficients, refreshed at every re-entry: converter
    // droop and the converter pack (efficiency faults), tracker overhead.
    const power::detail::CvtCoef cv = chain.converter().lane_coef();
    cc.pe[j] = cv.peak_efficiency;
    cc.rated[j] = cv.rated_power;
    cc.iqc[j] = cv.quiescent_current;
    cc.min_in[j] = cv.min_input;
    cc.max_in[j] = cv.max_input;
    cc.drop[j] = cv.diode_drop;
    cc.cond_frac[j] = cv.conduction_loss_fraction;
    cc.droop[j] = chain.efficiency_droop();
    cc.oh_now[j] =
        chain.mppt().overhead_per_update().value() / chain.mppt_period().value();
  }

  for (SlotCol& sl : g.slots) {
    if (sl.cls == SlotCol::Class::kSupercap) {
      const storage::Supercapacitor& sc = *sl.sc[j];
      const auto hs = sc.hot_state();
      sl.v_main[j] = hs.v_main_v;
      sl.v_slow[j] = hs.v_slow_v;
      const storage::lanekernel::ScCoef coef = sc.lane_coef();
      sl.c0[j] = coef.c0;
      sl.k[j] = coef.k;
      sl.c2[j] = coef.c2;
      sl.r2[j] = coef.r2;
      sl.esr[j] = coef.esr;
      sl.v_max[j] = coef.v_max;
      sl.v_floor[j] = coef.v_floor;
      sl.leak_r[j] = coef.leak_r;
      // Hoisted per-lane constants. Constant capacitance (slope == 0) makes
      // c1 state-independent, so these exp() results are bit-equal to the
      // object's memoized ones at every step of the residency window.
      const double c1 = storage::lanekernel::sc_capacitance_at(coef, hs.v_main_v);
      // Inactive paths get exact-identity constants (decay factor 1.0,
      // alpha/c_series 0.0, divisor 1.0) so the stage-6 loop needs no
      // per-lane flags at all — x * 1.0 and x -/+ (±0.0 / d) are
      // bit-preserving for the non-negative branch voltages.
      if (coef.c2 > 0.0) {
        const double cs = storage::lanekernel::sc_c_series(coef, c1);
        sl.alpha[j] =
            1.0 - std::exp(storage::lanekernel::sc_redis_exponent(coef, cs,
                                                                  dt_s_));
        sl.c_series[j] = cs;
        sl.c2_div[j] = coef.c2;
      } else {
        sl.alpha[j] = 0.0;
        sl.c_series[j] = 0.0;
        sl.c2_div[j] = 1.0;
      }
      const double mult = sc.leakage_multiplier();
      if (mult > 0.0) {
        const double r_leak = coef.leak_r / mult;
        const double tau = r_leak * c1;
        sl.f_main[j] = std::exp(-dt_s_ / tau);
        if (coef.c2 > 0.0) {
          const double tau2 = r_leak * coef.c2;
          sl.f_slow[j] = std::exp(-dt_s_ / tau2);
        } else {
          sl.f_slow[j] = 1.0;
        }
      } else {
        sl.f_main[j] = 1.0;
        sl.f_slow[j] = 1.0;
      }
    } else {
      const storage::Battery& bat = *sl.bat[j];
      const auto hs = bat.hot_state();
      sl.q[j] = hs.charge_c;
      sl.tput[j] = hs.throughput_c;
      const storage::lanekernel::BatCoef coef = bat.lane_coef();
      sl.full_q[j] = coef.full_charge;
      sl.r[j] = coef.r;
      sl.eff[j] = coef.eff;
      sl.i_cmax[j] = coef.i_charge_max;
      sl.i_dmax[j] = coef.i_discharge_max;
      sl.fade[j] = coef.fade_per_cycle;
      sl.health[j] = coef.fault_health;
      sl.rechargeable[j] = coef.rechargeable ? 1 : 0;
      for (std::size_t o = 0; o < sl.ocv.size(); ++o)
        sl.ocv[o][j] = coef.ocv[o];
      const double mult = bat.leakage_multiplier();
      // Leak off → factor exactly 1.0: q *= 1.0 is an exact identity, so
      // the stage-6 loop is unconditional.
      if (bat.params().self_discharge_per_month > 0.0 && mult > 0.0)
        sl.leak_f[j] = std::exp(-bat.leak_rate_per_s() * mult * dt_s_);
      else
        sl.leak_f[j] = 1.0;
    }
  }
}

void SoaBatch::scatter(Group& g, std::size_t j) {
  Platform& p = *g.lane[j].platform;
  Platform::HotState ph;
  ph.brownout_latch = g.latch[j] != 0;
  ph.last_input_power_w = g.p_in[j];
  ph.quiescent_energy_j = g.quiescent_e[j];
  ph.load_energy_j = g.load_e[j];
  ph.wasted_energy_j = g.wasted_e[j];
  ph.unmet_energy_j = g.unmet_e[j];
  ph.bus_load_energy_j = g.bus_load_e[j];
  ph.storage_charged_energy_j = g.charged_e[j];
  ph.storage_discharged_energy_j = g.discharged_e[j];
  ph.unserved_energy_j = g.unserved_e[j];
  ph.first_brownout_time_s = g.first_brownout_s[j];
  ph.energy_neutral_time_s = g.neutral_s[j];
  ph.first_unserved_time_s = g.first_unserved_s[j];
  ph.brownouts = g.brownouts[j];
  p.set_hot_state(ph);

  for (ChainCol& cc : g.chains) {
    power::InputChain::HotState ch;
    ch.next_update_s = cc.next_update[j];
    ch.operating_voltage_v = cc.opv[j];
    ch.transducer_power_w = cc.tp[j];
    ch.delivered_j = cc.delivered[j];
    ch.overhead_j = cc.overhead[j];
    ch.conversion_loss_j = cc.conv_loss[j];
    ch.overhead_paid_j = cc.oh_paid[j];
    ch.harvested_at_setpoint_j = cc.harv_sp[j];
    ch.harvestable_at_mpp_j = cc.harv_mpp[j];
    ch.started = cc.started[j] != 0;
    cc.chain[j]->set_hot_state(ch);
  }

  for (SlotCol& sl : g.slots) {
    if (sl.cls == SlotCol::Class::kSupercap)
      sl.sc[j]->set_hot_state({sl.v_main[j], sl.v_slow[j]});
    else
      sl.bat[j]->set_hot_state({sl.q[j], sl.tput[j]});
  }
}

void SoaBatch::begin_step(const std::vector<double>& next_event_s,
                          double horizon_s,
                          std::vector<std::uint8_t>& run_scalar) {
  // Quiet step: every lane resident and no event due before the horizon —
  // nothing can diverge, skip the per-lane scan (the common case; events
  // arrive on management-tick cadence, not step cadence).
  ++counters_.steps;
  counters_.lane_steps += lane_index_.size();
  if (min_valid_ && all_resident_ && min_next_event_ >= horizon_s) {
    ++counters_.quiet_steps;
    counters_.resident_lane_steps += lane_index_.size();
    marked_ = 0;
    return;
  }
  marked_ = 0;
  double min_ev = std::numeric_limits<double>::infinity();
  for (Group& g : groups_) {
    for (std::size_t j = 0; j < g.lane.size(); ++j) {
      const std::size_t id = g.lane[j].lane_id;
      if (next_event_s[id] >= horizon_s && g.resident[j] != 0) {
        ++counters_.resident_lane_steps;
        min_ev = std::min(min_ev, next_event_s[id]);
        continue;
      }
      if (g.resident[j] != 0) {
        scatter(g, j);
        g.resident[j] = 0;
        ++counters_.exit_event_due;
      } else {
        ++counters_.exit_not_resident;
      }
      g.step_scalar[j] = 1;
      run_scalar[id] = 1;
      ++marked_;
    }
  }
  if (marked_ == 0) {
    // All lanes took the resident-and-quiet branch, so the scan itself
    // established the invariants for the following steps.
    min_next_event_ = min_ev;
    all_resident_ = true;
    min_valid_ = true;
  } else {
    // Marked lanes will dispatch events this step; their next_event_s is
    // about to change, so end_step must re-derive the minimum.
    min_valid_ = false;
  }
}

void SoaBatch::step_clean(const env::AmbientConditions& conditions, Seconds now,
                          Seconds dt) {
  for (Group& g : groups_) {
    const std::size_t n = g.lane.size();
    std::size_t j = 0;
    while (j < n) {
      if (g.resident[j] == 0) {
        ++j;
        continue;
      }
      std::size_t e = j + 1;
      while (e < n && g.resident[e] != 0) ++e;
      soa_step_range(g, j, e, conditions, now, dt);
      j = e;
    }
  }
}

void SoaBatch::end_step(const std::vector<double>& next_event_s,
                        std::vector<std::uint8_t>& run_scalar) {
  if (marked_ == 0 && min_valid_) return;  // quiet step: nothing ran scalar
  for (Group& g : groups_) {
    for (std::size_t j = 0; j < g.lane.size(); ++j) {
      if (g.step_scalar[j] == 0) continue;
      g.step_scalar[j] = 0;
      run_scalar[g.lane[j].lane_id] = 0;
      bool latched = false;
      for (ChainCol& cc : g.chains) {
        if (cc.chain[j]->thermal_shutdown()) {
          latched = true;
          break;
        }
      }
      if (latched) ++counters_.thermal_latched;
      if (!latched) {
        gather(g, j);
        g.resident[j] = 1;
      }
    }
  }
  // Re-derive the quiet-step invariants now that dispatched lanes carry
  // fresh next_event_s values (the runner updates the array before this
  // call) and residency has settled.
  bool all_res = true;
  double min_ev = std::numeric_limits<double>::infinity();
  for (const Group& g : groups_) {
    for (std::size_t j = 0; j < g.lane.size(); ++j) {
      if (g.resident[j] == 0) all_res = false;
      min_ev = std::min(min_ev, next_event_s[g.lane[j].lane_id]);
    }
  }
  min_next_event_ = min_ev;
  all_resident_ = all_res;
  min_valid_ = true;
}

double SoaBatch::input_power(std::size_t lane_id) const {
  const auto [gp, pos] = lane_slot_[lane_id];
  return groups_[gp - 1].p_in[pos];
}

const double* SoaBatch::input_power_ptr(std::size_t lane_id) const {
  const auto [gp, pos] = lane_slot_[lane_id];
  return groups_[gp - 1].p_in.data() + pos;
}

void SoaBatch::scatter_all() {
  for (Group& g : groups_) {
    for (std::size_t j = 0; j < g.lane.size(); ++j) {
      if (g.resident[j] == 0) continue;
      scatter(g, j);
      g.resident[j] = 0;
    }
  }
}

}  // namespace msehsim::systems::soa

#include "systems/soa_step_body.inc"
