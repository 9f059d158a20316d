// Per-layer replay harness (traced runs only).
//
// Records one day of System A (outdoor) and one day of System B (office) at
// dt = 5 s with a recording dispatch policy plugged into
// Platform::step_with: the compiled-trace conditions, the bus voltage each
// step ran at, every storage charge/discharge/leak call and the rail state.
// It then replays those recorded inputs into each layer of a freshly built
// copy of the same system, one layer at a time, and times the calls:
//
//   env.*      live synthesis, trace compile, compiled playback
//   harvest.*  set_conditions + maximum_power_point on recorded conditions
//   power.*    InputChain::step at the recorded bus voltage;
//              OutputChain::required_bus_power for the recorded rail load
//   storage.*  the recorded charge/discharge/leakage calls
//   node.*     SensorNode::step with the recorded rail state
//   manager.*  Platform::management_tick at the run's cadence
//   systems.*  Platform::step (the full scalar step, the coverage
//              denominator) and BatchRunner::run on SoA-eligible lanes
//
// The plain names are System A; names ending in ".b" are System B. Every
// time is host time, the median over repetitions on fresh platforms.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bench_util.hpp"
#include "env/compiled_trace.hpp"
#include "env/environment.hpp"
#include "systems/batch_runner.hpp"
#include "systems/catalog.hpp"

namespace perfbench {

using namespace msehsim;

namespace {

constexpr double kDt = 5.0;
constexpr double kTickPeriod = 60.0;  // systems::RunOptions default

/// One recorded storage call.
struct Flow {
  enum Op : unsigned char { kCharge, kDischarge, kLeak } op;
  unsigned char slot;
  double watts;
};

struct DayRecord {
  std::vector<env::AmbientConditions> cond;
  std::vector<double> now;
  std::vector<double> bus_v;
  std::vector<std::size_t> flow_begin;  ///< per step, into flows (+ sentinel)
  std::vector<Flow> flows;
  std::vector<unsigned char> rail_on;
  std::vector<double> rail_load_w;  ///< rail power the node drew (0 when off)
  std::vector<unsigned char> tick;  ///< management tick before this step
};

/// GenericStepOps plus a log of everything the step hands the storage bank.
struct RecordingOps : systems::GenericStepOps {
  DayRecord* rec;
  Watts chain_step(std::size_t i, power::InputChain& chain,
                   const env::AmbientConditions& c, Volts bus_v, Seconds now,
                   Seconds dt) const {
    if (i == 0) rec->bus_v.back() = bus_v.value();
    return chain.step(c, bus_v, now, dt);
  }
  Watts charge(std::size_t slot, storage::StorageDevice& d, Watts p,
               Seconds dt) const {
    rec->flows.push_back({Flow::kCharge, static_cast<unsigned char>(slot), p.value()});
    return d.charge(p, dt);
  }
  Watts discharge(std::size_t slot, storage::StorageDevice& d, Watts p,
                  Seconds dt) const {
    rec->flows.push_back(
        {Flow::kDischarge, static_cast<unsigned char>(slot), p.value()});
    return d.discharge(p, dt);
  }
  void apply_leakage(std::size_t slot, storage::StorageDevice& d,
                     Seconds dt) const {
    rec->flows.push_back({Flow::kLeak, static_cast<unsigned char>(slot), 0.0});
    d.apply_leakage(dt);
  }
};

using Builder = std::unique_ptr<systems::Platform> (*)(std::uint64_t);

struct System {
  const char* suffix;  ///< "" for A, ".b" for B
  Builder build;
  env::Environment (*preset)(std::uint64_t);
};

DayRecord record_day(const System& sys, std::uint64_t seed,
                     const env::CompiledTrace& trace) {
  DayRecord rec;
  auto p = sys.build(seed);
  env::CompiledEnvironment cursor(
      std::shared_ptr<const env::CompiledTrace>(&trace, [](const auto*) {}));
  RecordingOps ops;
  ops.rec = &rec;
  const Seconds dt{kDt};
  double now = 0.0;
  double next_tick = 0.0;
  for (std::size_t k = 0; k < trace.step_count(); ++k) {
    const bool tick = now >= next_tick;
    if (tick) {
      p->management_tick(Seconds{now});
      next_tick += kTickPeriod;
    }
    rec.tick.push_back(tick ? 1 : 0);
    rec.cond.push_back(cursor.advance(Seconds{now}, dt));
    rec.now.push_back(now);
    rec.bus_v.push_back(p->bus_voltage().value());
    rec.flow_begin.push_back(rec.flows.size());
    const double load_before = p->load_energy().value();
    const double bus_load_before = p->bus_load_energy().value();
    p->step_with(ops, rec.cond.back(), Seconds{now}, dt);
    const double load_j = p->load_energy().value() - load_before;
    const bool on = load_j > 0.0 || p->bus_load_energy().value() > bus_load_before;
    rec.rail_on.push_back(on ? 1 : 0);
    rec.rail_load_w.push_back(load_j / kDt);
    now += kDt;
  }
  rec.flow_begin.push_back(rec.flows.size());
  return rec;
}

void replay_system(const System& sys, std::uint64_t seed, int reps,
                   Report& report) {
  const std::string sfx = sys.suffix;
  const Seconds dt{kDt};
  const Seconds day{86400.0};

  // env: live synthesis, compile, playback.
  std::vector<double> synth;
  std::vector<double> compile;
  std::shared_ptr<const env::CompiledTrace> trace;
  for (int r = 0; r < reps; ++r) {
    env::Environment live = sys.preset(seed);
    const std::size_t steps = static_cast<std::size_t>(day.value() / kDt);
    synth.push_back(time_s([&] {
                      double now = 0.0;
                      for (std::size_t k = 0; k < steps; ++k) {
                        (void)live.advance(Seconds{now}, dt);
                        now += kDt;
                      }
                    }) /
                    static_cast<double>(steps));
    env::Environment src = sys.preset(seed);
    compile.push_back(time_s([&] { trace = env::CompiledTrace::compile(src, dt, day); }));
  }
  const double n_steps = static_cast<double>(trace->step_count());
  std::vector<double> playback;
  for (int r = 0; r < reps; ++r) {
    env::CompiledEnvironment cursor(trace);
    playback.push_back(time_s([&] {
                         double now = 0.0;
                         for (std::size_t k = 0; k < trace->step_count(); ++k) {
                           (void)cursor.advance(Seconds{now}, dt);
                           now += kDt;
                         }
                       }) /
                       n_steps);
  }
  report.set("env.synth_ns_per_step" + sfx, median(synth) * 1e9, "ns");
  report.set("env.compile_ms" + sfx, median(compile) * 1e3, "ms");
  report.set("env.playback_ns_per_step" + sfx, median(playback) * 1e9, "ns");

  const DayRecord rec = record_day(sys, seed, *trace);
  const std::size_t steps = rec.cond.size();
  const double per_step = 1e9 / static_cast<double>(steps);

  // Each probe replays the recorded day into one layer of a freshly built
  // platform and returns the seconds spent in the timed calls. Repetitions
  // run the probes round-robin, so host drift hits every layer alike.
  enum Probe { kMpp, kChain, kOutput, kStorage, kNode, kStep, kProbes };
  std::function<double(systems::Platform&)> probes[kProbes];

  // harvest: the MPP solve on recorded conditions, every chain.
  probes[kMpp] = [&](systems::Platform& p) {
    return time_s([&] {
      for (std::size_t k = 0; k < steps; ++k)
        for (std::size_t i = 0; i < p.input_count(); ++i) {
          auto& h = p.input(i).harvester();
          h.set_conditions(rec.cond[k]);
          (void)h.maximum_power_point();
        }
    });
  };
  // power: whole input-chain steps at the recorded bus voltage.
  probes[kChain] = [&](systems::Platform& p) {
    return time_s([&] {
      for (std::size_t k = 0; k < steps; ++k)
        for (std::size_t i = 0; i < p.input_count(); ++i)
          (void)p.input(i).step(rec.cond[k], Volts{rec.bus_v[k]},
                                Seconds{rec.now[k]}, dt);
    });
  };
  probes[kOutput] = [&](systems::Platform& p) {
    const power::OutputChain* out = p.output_chain();
    if (out == nullptr) return 0.0;
    return time_s([&] {
      for (std::size_t k = 0; k < steps; ++k) {
        const Volts bus{rec.bus_v[k]};
        if (!out->rail_available(bus)) continue;
        // The demand estimate and, when the rail was up, the actual draw.
        (void)out->required_bus_power(Watts{rec.rail_load_w[k]}, bus);
        if (rec.rail_on[k]) (void)out->required_bus_power(Watts{rec.rail_load_w[k]}, bus);
      }
    });
  };
  // storage: the bank's per-step reads, then the recorded flows.
  probes[kStorage] = [&](systems::Platform& p) {
    std::vector<storage::StorageDevice*> bank;
    for (std::size_t s = 0; s < p.storage_count(); ++s) bank.push_back(&p.store(s));
    return time_s([&] {
      for (std::size_t k = 0; k < steps; ++k) {
        for (auto* d : bank) {
          (void)d->voltage();
          (void)d->max_discharge_power();
        }
        for (std::size_t f = rec.flow_begin[k]; f < rec.flow_begin[k + 1]; ++f) {
          const Flow& fl = rec.flows[f];
          storage::StorageDevice& d = *bank[fl.slot];
          if (fl.op == Flow::kCharge) {
            (void)d.charge(Watts{fl.watts}, dt);
          } else if (fl.op == Flow::kDischarge) {
            (void)d.discharge(Watts{fl.watts}, dt);
          } else {
            d.apply_leakage(dt);
          }
        }
      }
    });
  };
  probes[kNode] = [&](systems::Platform& p) {
    node::SensorNode* node = p.node();
    if (node == nullptr) return 0.0;
    const Volts rail = p.rail_voltage();
    return time_s([&] {
      for (std::size_t k = 0; k < steps; ++k) (void)node->step(rec.rail_on[k] != 0, rail, dt);
    });
  };
  // systems: the full scalar step; management ticks run between timed
  // chunks at the recorded cadence and are timed on their own.
  std::vector<double> tick_us;
  probes[kStep] = [&](systems::Platform& p) {
    double total = 0.0;
    std::size_t k = 0;
    while (k < steps) {
      if (rec.tick[k]) {
        const auto t0 = Clock::now();
        p.management_tick(Seconds{rec.now[k]});
        tick_us.push_back(seconds_since(t0) * 1e6);
      }
      std::size_t end = k + 1;
      while (end < steps && !rec.tick[end]) ++end;
      const auto t0 = Clock::now();
      for (; k < end; ++k) p.step(rec.cond[k], Seconds{rec.now[k]}, dt);
      total += seconds_since(t0);
    }
    return total;
  };

  std::vector<double> t[kProbes];
  for (int r = 0; r < reps; ++r)
    for (int i = 0; i < kProbes; ++i) {
      auto p = sys.build(seed);
      t[i].push_back(probes[i](*p));
    }
  const double mpp_s = median(t[kMpp]);
  const double chain_s = median(t[kChain]);
  const double output_s = median(t[kOutput]);
  const double storage_s = median(t[kStorage]);
  const double node_s = median(t[kNode]);
  const double step_s = median(t[kStep]);

  const double mpp_ns = mpp_s * per_step;
  const double chain_self_ns = (chain_s - mpp_s) * per_step;
  const double output_ns = output_s * per_step;
  const double storage_ns = storage_s * per_step;
  const double node_ns = node_s * per_step;
  const double step_ns = step_s * per_step;
  const double covered = mpp_ns + chain_self_ns + output_ns + storage_ns + node_ns;
  report.set("harvest.mpp_ns" + sfx, mpp_ns, "ns");
  report.set("power.input_chain_ns_per_step" + sfx, chain_self_ns, "ns");
  report.set("power.output_ns_per_step" + sfx, output_ns, "ns");
  report.set("storage.ns_per_step" + sfx, storage_ns, "ns");
  report.set("node.ns_per_step" + sfx, node_ns, "ns");
  report.set("manager.tick_us" + sfx, median(tick_us), "us");
  report.set("systems.step_ns" + sfx, step_ns, "ns");
  report.set("systems.layer_coverage" + sfx, covered / step_ns, "ratio");
  report.set("systems.unattributed_share" + sfx, 1.0 - covered / step_ns, "ratio");
  report.set("power.chain_share_of_step" + sfx,
             (mpp_ns + chain_self_ns) / step_ns, "ratio");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "System %s replay: step %.0f ns = mpp %.0f + chain %.0f + "
                "output %.0f + storage %.0f + node %.0f + unattributed %.1f%%",
                sfx.empty() ? "A" : "B", step_ns, mpp_ns, chain_self_ns,
                output_ns, storage_ns, node_ns, 100.0 * (1.0 - covered / step_ns));
  report.note(buf);
}

/// BatchRunner on eight SoA-eligible study platforms (PV + wind into
/// supercaps of eight sizes) sharing one outdoor day.
void replay_batch(std::uint64_t seed, int reps, Report& report) {
  using benchutil::Source;
  const Seconds dt{kDt};
  const Seconds day{86400.0};
  env::Environment src = env::Environment::outdoor(seed);
  const auto trace = env::CompiledTrace::compile(src, dt, day);
  const double farads[] = {0.5, 1.0, 2.2, 4.7, 10.0, 22.0, 47.0, 100.0};
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    std::vector<std::unique_ptr<systems::Platform>> lanes;
    systems::RunOptions options;
    options.dt = dt;
    systems::BatchRunner runner(trace, day, options);
    for (const double f : farads) {
      lanes.push_back(
          benchutil::make_platform({Source::kPvOutdoor, Source::kWind}, Farads{f}));
      runner.add_lane(*lanes.back());
    }
    t.push_back(time_s([&] { (void)runner.run(); }));
  }
  report.set("systems.batch_ns_per_lane_step",
             median(t) * 1e9 /
                 (static_cast<double>(trace->step_count()) * std::size(farads)),
             "ns");
}

}  // namespace

void replay_layers(const Options& opt, Report& report) {
  const int reps = opt.smoke ? 1 : 9;
  const System a{"", &systems::build_system_a, &env::Environment::outdoor};
  const System b{".b", &systems::build_system_b, &env::Environment::office};
  replay_system(a, opt.seed, reps, report);
  replay_system(b, opt.seed, reps, report);
  replay_batch(opt.seed, opt.smoke ? 1 : 3, report);
}

}  // namespace perfbench
