#include "systems/catalog.hpp"

#include <utility>

#include "core/random.hpp"
#include "harvest/transducers.hpp"
#include "power/converter.hpp"
#include "power/mppt.hpp"
#include "storage/battery.hpp"
#include "storage/fuel_cell.hpp"
#include "storage/supercapacitor.hpp"

namespace msehsim::systems {

using harvest::AcDcSource;
using harvest::Harvester;
using harvest::HarvesterKind;
using harvest::PvPanel;
using harvest::Teg;
using harvest::VibrationHarvester;
using harvest::WindTurbine;
using power::Converter;
using power::FixedPoint;
using power::FractionalVoc;
using power::InputChain;
using power::OutputChain;
using power::PerturbObserve;
using storage::Battery;
using storage::FuelCell;
using storage::StorageDevice;
using storage::Supercapacitor;

std::string_view to_string(SystemId id) {
  switch (id) {
    case SystemId::kSmartPowerUnit: return "Smart Power Unit";
    case SystemId::kPlugAndPlay: return "Plug-and-Play";
    case SystemId::kAmbiMax: return "AmbiMax";
    case SystemId::kMpWiNode: return "MPWiNode";
    case SystemId::kMax17710Eval: return "Maxim MAX17710 Eval";
    case SystemId::kCymbetEval09: return "Cymbet EVAL-09";
    case SystemId::kEhLink: return "Microstrain EH-Link";
    case SystemId::kSmartHarvester: return "Smart Harvester (proposed)";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Shared building blocks
// ---------------------------------------------------------------------------

std::unique_ptr<node::SensorNode> make_node(std::string name, Seconds period,
                                            Amps wake_up_radio_current) {
  node::McuParams mcu;
  node::RadioParams radio;
  radio.wake_up_rx_current = wake_up_radio_current;
  node::WorkloadParams work;
  work.task_period = period;
  return std::make_unique<node::SensorNode>(std::move(name), mcu, radio, work);
}

/// Wide-ratio buck-boost front end used by MPPT-style power units.
Converter mppt_frontend(std::string name) {
  Converter::Params p;
  p.topology = power::Topology::kBuckBoost;
  p.peak_efficiency = 0.87;
  p.rated_power = Watts{30e-3};
  p.quiescent_current = Amps{1.2e-6};
  p.min_input = Volts{0.3};
  p.max_input = Volts{20.0};
  return Converter(std::move(name), p);
}

/// System B / smart-harvester per-module interface circuit: wide input
/// range, small rated power, very low quiescent.
Converter module_interface(std::string name) {
  Converter::Params p;
  p.topology = power::Topology::kBuckBoost;
  p.peak_efficiency = 0.80;
  p.rated_power = Watts{5e-3};
  p.quiescent_current = Amps{0.3e-6};
  p.min_input = Volts{0.3};
  p.max_input = Volts{12.0};
  return Converter(std::move(name), p);
}

/// Outdoor PV panel of the Smart Power Unit / AmbiMax class.
PvPanel outdoor_pv(std::string name) {
  PvPanel::Params p;
  return PvPanel(std::move(name), p);
}

/// Small indoor PV cell harvesting artificial light.
PvPanel indoor_pv(std::string name, Amps isc = Amps{0.060}) {
  PvPanel::Params p;
  p.isc_stc = isc;
  p.indoor = true;
  return PvPanel(std::move(name), p);
}

/// Indoor micro turbine sized for HVAC duct flow.
WindTurbine hvac_turbine(std::string name) {
  WindTurbine::Params p;
  p.rotor_area_m2 = 0.005;
  p.power_coefficient = 0.20;
  p.cut_in = MetersPerSecond{0.8};
  p.rated = MetersPerSecond{6.0};
  p.voc_per_ms = Volts{1.5};
  p.internal_resistance = Ohms{20.0};
  return WindTurbine(std::move(name), p);
}

/// Low-gradient TEG for machinery surfaces.
Teg machinery_teg(std::string name) {
  Teg::Params p;
  p.seebeck_per_kelvin = Volts{0.025};
  p.internal_resistance = Ohms{10.0};
  return Teg(std::move(name), p);
}

bus::ElectronicDatasheet storage_datasheet(const StorageDevice& dev,
                                           std::string model, Volts vmin,
                                           Volts vmax) {
  bus::ElectronicDatasheet ds;
  ds.device_class = bus::DeviceClass::kStorage;
  ds.model = std::move(model);
  ds.storage_kind = dev.kind();
  ds.capacity = dev.capacity();
  ds.min_voltage = vmin;
  ds.max_voltage = vmax;
  return ds;
}

bus::ElectronicDatasheet harvester_datasheet(HarvesterKind kind, std::string model,
                                             Watts rated, Volts recommended) {
  bus::ElectronicDatasheet ds;
  ds.device_class = bus::DeviceClass::kHarvester;
  ds.model = std::move(model);
  ds.harvester_kind = kind;
  ds.rated_power = rated;
  ds.recommended_operating_voltage = recommended;
  return ds;
}

/// Telemetry reads through the platform *slot*, not a device pointer, so a
/// hardware swap in that slot is immediately reflected (and never dangles).
std::unique_ptr<bus::ModulePort> storage_port(std::uint8_t addr, Platform& p,
                                              std::size_t slot,
                                              bus::ElectronicDatasheet ds) {
  bus::ModulePort::Telemetry t;
  t.active = [&p, slot] { return p.store(slot).soc() > 0.01; };
  t.stored_energy = [&p, slot] { return p.store(slot).stored_energy(); };
  t.terminal_voltage = [&p, slot] { return p.store(slot).voltage(); };
  return std::make_unique<bus::ModulePort>(addr, ds, std::move(t));
}

std::unique_ptr<bus::ModulePort> harvester_port(std::uint8_t addr,
                                                const InputChain& chain,
                                                bus::ElectronicDatasheet ds) {
  bus::ModulePort::Telemetry t;
  t.active = [&chain] { return chain.transducer_power().value() > 1e-6; };
  t.output_power = [&chain] { return chain.transducer_power(); };
  t.terminal_voltage = [&chain] { return chain.operating_voltage(); };
  return std::make_unique<bus::ModulePort>(addr, ds, std::move(t));
}

std::unique_ptr<InputChain> chain_of(auto harvester,
                                     std::unique_ptr<power::MpptController> mppt,
                                     Converter converter, Seconds period) {
  using H = decltype(harvester);
  return std::make_unique<InputChain>(
      std::make_unique<H>(std::move(harvester)), std::move(mppt),
      std::move(converter), period);
}

}  // namespace

// ---------------------------------------------------------------------------
// System A — Smart Power Unit (Fig. 1)
// ---------------------------------------------------------------------------

std::unique_ptr<Platform> build_system_a(std::uint64_t /*seed*/) {
  PlatformSpec spec;
  spec.name = "Smart Power Unit";
  spec.reference = "[6]";
  spec.conditioning = taxonomy::ConditioningLocation::kPowerUnit;
  spec.swappability = taxonomy::Swappability::kFixed;
  spec.intelligence = taxonomy::IntelligenceLocation::kPowerUnit;
  spec.digital_interface = true;
  spec.swappable_sensor_node = true;
  spec.swappable_storage_desc = "No";
  spec.swappable_harvesters_desc = "No";
  spec.quiescent_current = Amps{5e-6};
  auto p = std::make_unique<Platform>(spec);

  const Seconds mppt_period{10.0};
  p->add_input(chain_of(outdoor_pv("a.pv1"), std::make_unique<PerturbObserve>(),
                        mppt_frontend("a.fe.pv1"), mppt_period));
  p->add_input(chain_of(outdoor_pv("a.pv2"), std::make_unique<PerturbObserve>(),
                        mppt_frontend("a.fe.pv2"), mppt_period));
  p->add_input(chain_of(WindTurbine("a.wind", {}), std::make_unique<PerturbObserve>(),
                        mppt_frontend("a.fe.wind"), mppt_period));

  Supercapacitor::Params sc;
  sc.main_capacitance = Farads{25.0};
  sc.initial_voltage = Volts{3.3};
  const auto cap_slot = p->add_storage(
      std::make_unique<Supercapacitor>("a.supercap", sc), /*priority=*/0);
  const auto batt_slot = p->add_storage(
      std::make_unique<Battery>(Battery::li_ion("a.liion", AmpHours{0.8})),
      /*priority=*/1);
  FuelCell::Params fc;
  fc.reserve = Joules{20e3};
  const auto fc_slot =
      p->add_storage(std::make_unique<FuelCell>("a.fuelcell", fc), /*priority=*/2);

  p->set_output(OutputChain(Converter::smart_buck_boost("a.out"), Volts{3.0}));
  p->set_node(make_node("a.node", Seconds{30.0}, Amps{1.2e-6}));

  // Power-unit MCU telemetry: every device answers on the internal I2C bus.
  p->add_module_port(storage_port(
      0x20, *p, cap_slot,
      storage_datasheet(p->store(cap_slot), "SPU-SC25F", Volts{0.0}, Volts{5.0})));
  p->add_module_port(storage_port(
      0x21, *p, batt_slot,
      storage_datasheet(p->store(batt_slot), "SPU-LI800", Volts{3.0}, Volts{4.2})));
  p->add_module_port(harvester_port(
      0x22, p->input(0),
      harvester_datasheet(HarvesterKind::kPhotovoltaic, "SPU-PV1", Watts{250e-3},
                          Volts{3.2})));
  p->add_module_port(harvester_port(
      0x23, p->input(1),
      harvester_datasheet(HarvesterKind::kPhotovoltaic, "SPU-PV2", Watts{250e-3},
                          Volts{3.2})));
  p->add_module_port(harvester_port(
      0x24, p->input(2),
      harvester_datasheet(HarvesterKind::kWind, "SPU-WT", Watts{30e-3}, Volts{2.0})));

  p->set_monitor(std::make_unique<manager::DigitalBusMonitor>(
      p->i2c(), std::vector<std::uint8_t>{0x20, 0x21, 0x22, 0x23, 0x24}));
  p->set_duty_cycle_controller(manager::DutyCycleController{});
  p->set_fuel_cell_policy(manager::FuelCellPolicy{}, fc_slot);
  return p;
}

// ---------------------------------------------------------------------------
// System B — Plug-and-Play (Fig. 2)
// ---------------------------------------------------------------------------

std::unique_ptr<Platform> build_system_b(std::uint64_t /*seed*/) {
  PlatformSpec spec;
  spec.name = "Plug-and-Play";
  spec.reference = "[5]";
  spec.conditioning = taxonomy::ConditioningLocation::kPerModule;
  spec.swappability = taxonomy::Swappability::kCompletelyFlexible;
  spec.intelligence = taxonomy::IntelligenceLocation::kEmbeddedDevice;
  spec.digital_interface = false;  // the node's own MCU talks to the modules
  spec.swappable_sensor_node = true;
  spec.shared_ports = true;
  spec.swappable_storage_desc = "Yes, 6";
  spec.swappable_harvesters_desc = "Yes, 6";
  spec.quiescent_current = Amps{7e-6};
  auto p = std::make_unique<Platform>(spec);

  // Fixed-point per-module conditioning: setpoints are the module designer's
  // compromise, not tracked at runtime (Sec. II.1).
  const Seconds period{60.0};
  p->add_input(chain_of(indoor_pv("b.pv"),
                        std::make_unique<FixedPoint>(Volts{2.0}),
                        module_interface("b.if.pv"), period));
  p->add_input(chain_of(hvac_turbine("b.wind"),
                        std::make_unique<FixedPoint>(Volts{1.3}),
                        module_interface("b.if.wind"), period));
  Converter teg_if = [] {
    Converter::Params cp;
    cp.topology = power::Topology::kBoost;
    cp.peak_efficiency = 0.75;
    cp.rated_power = Watts{5e-3};
    cp.quiescent_current = Amps{0.4e-6};
    cp.min_input = Volts{0.05};
    cp.max_input = Volts{2.0};
    return Converter("b.if.teg", cp);
  }();
  p->add_input(chain_of(machinery_teg("b.teg"),
                        std::make_unique<FixedPoint>(Volts{0.15}), std::move(teg_if),
                        period));
  p->add_input(chain_of(VibrationHarvester::piezo("b.piezo"),
                        std::make_unique<FixedPoint>(Volts{3.3}),
                        module_interface("b.if.piezo"), period));

  Supercapacitor::Params sc;
  sc.main_capacitance = Farads{10.0};
  sc.initial_voltage = Volts{3.0};
  const auto cap_slot =
      p->add_storage(std::make_unique<Supercapacitor>("b.supercap", sc), 0);
  const auto batt_slot = p->add_storage(
      std::make_unique<Battery>(Battery::nimh("b.nimh", AmpHours{0.3})), 1);

  p->set_output(OutputChain(Converter::nano_ldo("b.out"), Volts{2.5}));
  p->set_node(make_node("b.node", Seconds{120.0}, Amps{0.0}));

  // Six shared sockets, each module carrying an electronic datasheet.
  p->add_module_port(harvester_port(
      0x10, p->input(0),
      harvester_datasheet(HarvesterKind::kPhotovoltaic, "PNP-PV", Watts{1e-3},
                          Volts{2.0})));
  p->add_module_port(harvester_port(
      0x11, p->input(1),
      harvester_datasheet(HarvesterKind::kWind, "PNP-WT", Watts{3e-3}, Volts{1.3})));
  p->add_module_port(harvester_port(
      0x12, p->input(2),
      harvester_datasheet(HarvesterKind::kThermoelectric, "PNP-TEG", Watts{2e-3},
                          Volts{0.15})));
  p->add_module_port(harvester_port(
      0x13, p->input(3),
      harvester_datasheet(HarvesterKind::kPiezo, "PNP-PZ", Watts{1e-3}, Volts{3.3})));
  p->add_module_port(storage_port(
      0x14, *p, cap_slot,
      storage_datasheet(p->store(cap_slot), "PNP-SC10F", Volts{0.0}, Volts{5.0})));
  p->add_module_port(storage_port(
      0x15, *p, batt_slot,
      storage_datasheet(p->store(batt_slot), "PNP-NIMH", Volts{1.0}, Volts{1.42})));

  p->set_monitor(std::make_unique<manager::DigitalBusMonitor>(
      p->i2c(),
      std::vector<std::uint8_t>{0x10, 0x11, 0x12, 0x13, 0x14, 0x15}));
  p->set_duty_cycle_controller(manager::DutyCycleController{});
  return p;
}

// ---------------------------------------------------------------------------
// System C — AmbiMax
// ---------------------------------------------------------------------------

std::unique_ptr<Platform> build_system_c(std::uint64_t /*seed*/) {
  PlatformSpec spec;
  spec.name = "AmbiMax";
  spec.reference = "[3]";
  spec.conditioning = taxonomy::ConditioningLocation::kPowerUnit;
  spec.swappability = taxonomy::Swappability::kHarvestersAndStorage;
  spec.intelligence = taxonomy::IntelligenceLocation::kNone;
  spec.swappable_sensor_node = true;
  spec.swappable_storage_desc = "Yes, battery";
  spec.swappable_harvesters_desc = "Yes, 3";
  spec.quiescent_current = Amps{5e-6};
  spec.quiescent_is_bound = true;
  auto p = std::make_unique<Platform>(spec);

  // AmbiMax tracks with autonomous comparator hardware: near-zero overhead,
  // short period.
  auto hw_mppt = [] {
    FractionalVoc::Params mp;
    mp.overhead_per_update = Joules{0.2e-6};
    mp.sample_time = Seconds{1e-3};
    return std::make_unique<FractionalVoc>(mp);
  };
  const Seconds period{5.0};
  p->add_input(chain_of(outdoor_pv("c.pv1"), hw_mppt(), mppt_frontend("c.fe.pv1"),
                        period));
  p->add_input(chain_of(outdoor_pv("c.pv2"), hw_mppt(), mppt_frontend("c.fe.pv2"),
                        period));
  p->add_input(chain_of(WindTurbine("c.wind", {}), hw_mppt(),
                        mppt_frontend("c.fe.wind"), period));

  Supercapacitor::Params sc;
  sc.main_capacitance = Farads{22.0};
  sc.initial_voltage = Volts{3.2};
  p->add_storage(std::make_unique<Supercapacitor>("c.supercap", sc), 0);
  p->add_storage(std::make_unique<Battery>(Battery::li_ion("c.lipoly", AmpHours{0.2})),
                 1);

  p->set_output(OutputChain(Converter::nano_ldo("c.out"), Volts{3.0}));
  p->set_node(make_node("c.node", Seconds{30.0}, Amps{0.0}));
  p->set_monitor(std::make_unique<manager::NullMonitor>());
  return p;
}

// ---------------------------------------------------------------------------
// System D — MPWiNode
// ---------------------------------------------------------------------------

std::unique_ptr<Platform> build_system_d(std::uint64_t seed) {
  PlatformSpec spec;
  spec.name = "MPWiNode";
  spec.reference = "[4]";
  spec.conditioning = taxonomy::ConditioningLocation::kPowerUnit;
  spec.swappability = taxonomy::Swappability::kHarvestersAndStorage;
  spec.intelligence = taxonomy::IntelligenceLocation::kNone;
  spec.swappable_sensor_node = false;  // node lives on the power unit
  spec.swappable_storage_desc = "Yes, battery";
  spec.swappable_harvesters_desc = "Yes";
  spec.quiescent_current = Amps{75e-6};
  auto p = std::make_unique<Platform>(spec);

  auto pic_mppt = [] {
    PerturbObserve::Params mp;
    mp.overhead_per_update = Joules{100e-6};  // software MPPT on a PIC
    mp.step = Volts{0.1};
    return std::make_unique<PerturbObserve>(mp);
  };
  const Seconds period{30.0};
  PvPanel::Params pv;
  pv.voc_stc = Volts{6.0};
  pv.isc_stc = Amps{0.100};
  pv.series_cells = 10;
  p->add_input(chain_of(PvPanel("d.pv", pv), pic_mppt(), mppt_frontend("d.fe.pv"),
                        period));
  p->add_input(chain_of(WindTurbine("d.wind", {}), pic_mppt(),
                        mppt_frontend("d.fe.wind"), period));
  p->add_input(chain_of(WindTurbine::water_turbine("d.water"), pic_mppt(),
                        mppt_frontend("d.fe.water"), period));

  const auto pack_slot = p->add_storage(
      std::make_unique<Battery>(Battery::nimh_aa_pack("d.pack", 2)), 0);

  p->set_output(OutputChain(Converter::smart_buck_boost("d.out"), Volts{3.0}));
  p->set_node(make_node("d.node", Seconds{60.0}, Amps{0.0}));

  // Limited monitoring: one analog line to the pack, firmware assumes the
  // stock 2xAA pack.
  manager::AnalogVoltageMonitor::AssumedDevice assumed;
  assumed.model = manager::AnalogVoltageMonitor::AssumedDevice::Model::kBattery;
  assumed.capacity = p->store(pack_slot).capacity();
  assumed.min_voltage = Volts{2.2};
  assumed.max_voltage = Volts{2.86};
  auto* platform = p.get();
  p->set_monitor(std::make_unique<manager::AnalogVoltageMonitor>(
      [platform, pack_slot] { return platform->store(pack_slot).voltage(); },
      assumed, bus::AdcLine::Params{}, seed ^ stream_key("d")));
  return p;
}

// ---------------------------------------------------------------------------
// System E — Maxim MAX17710 Eval
// ---------------------------------------------------------------------------

std::unique_ptr<Platform> build_system_e(std::uint64_t /*seed*/) {
  PlatformSpec spec;
  spec.name = "Maxim MAX17710 Eval";
  spec.reference = "[11]";
  spec.commercial = true;
  spec.conditioning = taxonomy::ConditioningLocation::kPowerUnit;
  spec.swappability = taxonomy::Swappability::kHarvestersOnly;
  spec.intelligence = taxonomy::IntelligenceLocation::kNone;
  spec.swappable_sensor_node = true;
  spec.swappable_storage_desc = "No";
  spec.swappable_harvesters_desc = "Yes, 1 of 2";
  spec.quiescent_current = Amps{1e-6};
  spec.quiescent_is_bound = true;
  auto p = std::make_unique<Platform>(spec);

  const Seconds period{60.0};
  p->add_input(chain_of(VibrationHarvester::piezo("e.piezo"),
                        std::make_unique<FixedPoint>(Volts{3.3}),
                        Converter::boost_frontend("e.fe.piezo"), period));
  p->add_input(chain_of(indoor_pv("e.pv", Amps{0.030}),
                        std::make_unique<FixedPoint>(Volts{1.6}),
                        Converter::boost_frontend("e.fe.pv"), period));

  p->add_storage(
      std::make_unique<Battery>(Battery::thin_film("e.mec", AmpHours{0.7e-3})), 0);

  p->set_output(OutputChain(Converter::nano_ldo("e.out"), Volts{3.0}));
  p->set_node(make_node("e.node", Seconds{300.0}, Amps{0.0}));
  p->set_monitor(std::make_unique<manager::NullMonitor>());
  return p;
}

// ---------------------------------------------------------------------------
// System F — Cymbet EVAL-09
// ---------------------------------------------------------------------------

std::unique_ptr<Platform> build_system_f(std::uint64_t /*seed*/) {
  PlatformSpec spec;
  spec.name = "Cymbet EVAL-09";
  spec.reference = "[12]";
  spec.commercial = true;
  spec.conditioning = taxonomy::ConditioningLocation::kPowerUnit;
  spec.swappability = taxonomy::Swappability::kHarvestersAndStorage;
  spec.intelligence = taxonomy::IntelligenceLocation::kPowerUnit;
  spec.digital_interface = true;
  spec.swappable_sensor_node = true;
  spec.swappable_storage_desc = "Yes, battery";
  spec.swappable_harvesters_desc = "Yes, 4";
  spec.quiescent_current = Amps{20e-6};
  auto p = std::make_unique<Platform>(spec);

  const Seconds period{60.0};
  p->add_input(chain_of(indoor_pv("f.pv"),
                        std::make_unique<FixedPoint>(Volts{2.0}),
                        Converter::boost_frontend("f.fe.pv"), period));
  p->add_input(chain_of(harvest::RfHarvester("f.rf", {}),
                        std::make_unique<FixedPoint>(Volts{2.0}),
                        Converter::boost_frontend("f.fe.rf"), period));
  Converter teg_fe = [] {
    Converter::Params cp;
    cp.topology = power::Topology::kBoost;
    cp.peak_efficiency = 0.75;
    cp.rated_power = Watts{10e-3};
    cp.quiescent_current = Amps{1.0e-6};
    cp.min_input = Volts{0.05};
    cp.max_input = Volts{2.0};
    return Converter("f.fe.teg", cp);
  }();
  p->add_input(chain_of(machinery_teg("f.teg"),
                        std::make_unique<FixedPoint>(Volts{0.15}), std::move(teg_fe),
                        period));
  p->add_input(chain_of(VibrationHarvester::piezo("f.piezo"),
                        std::make_unique<FixedPoint>(Volts{3.3}),
                        Converter::boost_frontend("f.fe.piezo"), period));

  p->add_storage(
      std::make_unique<Battery>(Battery::thin_film("f.enerchip", AmpHours{100e-6})),
      0);
  p->add_storage(std::make_unique<Battery>(Battery::li_ion("f.extli", AmpHours{0.1})),
                 1);

  p->set_output(OutputChain(Converter::nano_ldo("f.out"), Volts{3.0}));
  p->set_node(make_node("f.node", Seconds{120.0}, Amps{0.0}));

  std::vector<std::function<bool()>> probes;
  for (std::size_t i = 0; i < p->input_count(); ++i) {
    const auto& chain = p->input(i);
    probes.emplace_back(
        [&chain] { return chain.transducer_power().value() > 1e-6; });
  }
  p->set_monitor(std::make_unique<manager::ActivityFlagMonitor>(std::move(probes)));
  return p;
}

// ---------------------------------------------------------------------------
// System G — Microstrain EH-Link
// ---------------------------------------------------------------------------

std::unique_ptr<Platform> build_system_g(std::uint64_t /*seed*/) {
  PlatformSpec spec;
  spec.name = "Microstrain EH-Link";
  spec.reference = "[13]";
  spec.commercial = true;
  spec.conditioning = taxonomy::ConditioningLocation::kPowerUnit;
  spec.swappability = taxonomy::Swappability::kHarvestersAndStorage;
  spec.intelligence = taxonomy::IntelligenceLocation::kNone;
  spec.swappable_sensor_node = false;  // sensor node is the power unit
  spec.swappable_storage_desc = "Yes";
  spec.swappable_harvesters_desc = "Yes, 3";
  spec.quiescent_current = Amps{32e-6};
  spec.quiescent_is_bound = true;
  auto p = std::make_unique<Platform>(spec);

  const Seconds period{60.0};
  p->add_input(chain_of(VibrationHarvester::piezo("g.piezo"),
                        std::make_unique<FixedPoint>(Volts{3.3}),
                        mppt_frontend("g.fe.piezo"), period));
  p->add_input(chain_of(VibrationHarvester::electromagnetic("g.coil"),
                        std::make_unique<FixedPoint>(Volts{1.2}),
                        mppt_frontend("g.fe.coil"), period));
  p->add_input(chain_of(AcDcSource("g.acdc", {}),
                        std::make_unique<FixedPoint>(Volts{4.0}),
                        mppt_frontend("g.fe.acdc"), period));

  p->add_storage(
      std::make_unique<Battery>(Battery::thin_film("g.tf", AmpHours{0.7e-3})), 0);

  p->set_output(OutputChain(Converter::nano_ldo("g.out"), Volts{3.0}));
  p->set_node(make_node("g.node", Seconds{60.0}, Amps{0.0}));
  p->set_monitor(std::make_unique<manager::NullMonitor>());
  return p;
}

// ---------------------------------------------------------------------------
// Sec. IV — proposed smart harvester scheme
// ---------------------------------------------------------------------------

std::unique_ptr<Platform> build_smart_harvester(std::uint64_t /*seed*/) {
  PlatformSpec spec;
  spec.name = "Smart Harvester (proposed)";
  spec.reference = "Sec. IV";
  spec.conditioning = taxonomy::ConditioningLocation::kPerModule;
  spec.swappability = taxonomy::Swappability::kCompletelyFlexible;
  spec.intelligence = taxonomy::IntelligenceLocation::kEnergyDevices;
  spec.digital_interface = true;
  spec.swappable_sensor_node = true;
  spec.shared_ports = true;
  spec.swappable_storage_desc = "Yes, any";
  spec.swappable_harvesters_desc = "Yes, any";
  spec.quiescent_current = Amps{3e-6};
  auto p = std::make_unique<Platform>(spec);

  // Per-device intelligence: each module's microprocessor knows its own
  // transducer's I-V law (it carries the datasheet) and applies the matched
  // tracking rule — fractional open-circuit voltage with the per-type
  // optimum fraction: 0.5 for Thevenin-like sources (wind, TEG, piezo),
  // 0.76 for the PV diode curve. A shared central tracker cannot have this
  // per-device knowledge; a fixed-point module cannot adapt at all.
  auto local_voc = [](double fraction) {
    FractionalVoc::Params fp;
    fp.fraction = fraction;
    fp.overhead_per_update = Joules{2e-6};
    fp.sample_time = Seconds{1e-3};
    return std::make_unique<FractionalVoc>(fp);
  };
  const Seconds period{5.0};
  p->add_input(chain_of(indoor_pv("s.pv"), local_voc(0.76),
                        module_interface("s.if.pv"), period));
  p->add_input(chain_of(hvac_turbine("s.wind"), local_voc(0.5),
                        module_interface("s.if.wind"), period));
  Converter teg_if = [] {
    Converter::Params cp;
    cp.topology = power::Topology::kBoost;
    cp.peak_efficiency = 0.78;
    cp.rated_power = Watts{5e-3};
    cp.quiescent_current = Amps{0.4e-6};
    cp.min_input = Volts{0.05};
    cp.max_input = Volts{2.0};
    return Converter("s.if.teg", cp);
  }();
  p->add_input(chain_of(machinery_teg("s.teg"), local_voc(0.5),
                        std::move(teg_if), period));
  p->add_input(chain_of(VibrationHarvester::piezo("s.piezo"), local_voc(0.5),
                        module_interface("s.if.piezo"), period));

  Supercapacitor::Params sc;
  sc.main_capacitance = Farads{10.0};
  sc.initial_voltage = Volts{3.0};
  const auto cap_slot =
      p->add_storage(std::make_unique<Supercapacitor>("s.supercap", sc), 0);
  const auto batt_slot = p->add_storage(
      std::make_unique<Battery>(Battery::li_ion("s.liion", AmpHours{0.2})), 1);

  p->set_output(OutputChain(Converter::smart_buck_boost("s.out"), Volts{2.5}));
  p->set_node(make_node("s.node", Seconds{120.0}, Amps{0.0}));

  p->add_module_port(harvester_port(
      0x10, p->input(0),
      harvester_datasheet(HarvesterKind::kPhotovoltaic, "SH-PV", Watts{1e-3},
                          Volts{2.0})));
  p->add_module_port(harvester_port(
      0x11, p->input(1),
      harvester_datasheet(HarvesterKind::kWind, "SH-WT", Watts{3e-3}, Volts{1.3})));
  p->add_module_port(harvester_port(
      0x12, p->input(2),
      harvester_datasheet(HarvesterKind::kThermoelectric, "SH-TEG", Watts{2e-3},
                          Volts{0.15})));
  p->add_module_port(harvester_port(
      0x13, p->input(3),
      harvester_datasheet(HarvesterKind::kPiezo, "SH-PZ", Watts{1e-3}, Volts{3.3})));
  p->add_module_port(storage_port(
      0x14, *p, cap_slot,
      storage_datasheet(p->store(cap_slot), "SH-SC10F", Volts{0.0}, Volts{5.0})));
  p->add_module_port(storage_port(
      0x15, *p, batt_slot,
      storage_datasheet(p->store(batt_slot), "SH-LI200", Volts{3.0}, Volts{4.2})));

  p->set_monitor(std::make_unique<manager::DigitalBusMonitor>(
      p->i2c(),
      std::vector<std::uint8_t>{0x10, 0x11, 0x12, 0x13, 0x14, 0x15}));
  p->set_duty_cycle_controller(manager::DutyCycleController{});
  return p;
}

std::unique_ptr<Platform> build(SystemId id, std::uint64_t seed) {
  switch (id) {
    case SystemId::kSmartPowerUnit: return build_system_a(seed);
    case SystemId::kPlugAndPlay: return build_system_b(seed);
    case SystemId::kAmbiMax: return build_system_c(seed);
    case SystemId::kMpWiNode: return build_system_d(seed);
    case SystemId::kMax17710Eval: return build_system_e(seed);
    case SystemId::kCymbetEval09: return build_system_f(seed);
    case SystemId::kEhLink: return build_system_g(seed);
    case SystemId::kSmartHarvester: return build_smart_harvester(seed);
  }
  return nullptr;
}

std::vector<std::unique_ptr<Platform>> build_all_surveyed(std::uint64_t seed) {
  std::vector<std::unique_ptr<Platform>> out;
  out.push_back(build_system_a(seed));
  out.push_back(build_system_b(seed));
  out.push_back(build_system_c(seed));
  out.push_back(build_system_d(seed));
  out.push_back(build_system_e(seed));
  out.push_back(build_system_f(seed));
  out.push_back(build_system_g(seed));
  return out;
}

}  // namespace msehsim::systems
