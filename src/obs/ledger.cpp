#include "obs/ledger.hpp"

#include <algorithm>
#include <cmath>

#include "core/fmt.hpp"

namespace msehsim::obs {

namespace {

void line(std::string& out, const char* name, double v) {
  out += name;
  out += '=';
  append_double(out, v);  // locale-independent, round-trip exact (core/fmt)
  out += '\n';
}

}  // namespace

double EnergyLedger::residual_j() const {
  const double inflow = harvested_j + storage_discharged_j + unserved_j;
  const double outflow =
      quiescent_j + bus_load_j + storage_charged_j + wasted_j;
  return inflow - outflow;
}

double EnergyLedger::relative_residual() const {
  const double gross = harvested_j + storage_discharged_j + unserved_j +
                       quiescent_j + bus_load_j + storage_charged_j + wasted_j;
  return std::fabs(residual_j()) / std::max(1.0, gross);
}

double EnergyLedger::source_residual_j(std::size_t i) const {
  const auto& s = sources.at(i);
  return s.transducer_j -
         (s.conversion_loss_j + s.tracker_overhead_j + s.delivered_j);
}

std::string EnergyLedger::sources_to_string() const {
  std::string out;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto& s = sources[i];
    const std::string prefix = "ledger.source[" + std::to_string(i) + "].";
    out += prefix + "name=" + s.name + "\n";
    out += prefix + "kind=" + s.kind + "\n";
    line(out, (prefix + "transducer_j").c_str(), s.transducer_j);
    line(out, (prefix + "conversion_loss_j").c_str(), s.conversion_loss_j);
    line(out, (prefix + "tracker_overhead_j").c_str(), s.tracker_overhead_j);
    line(out, (prefix + "delivered_j").c_str(), s.delivered_j);
    line(out, (prefix + "share").c_str(), s.share);
    out += prefix + "mpp_cache_hits=" + std::to_string(s.mpp_cache_hits) + "\n";
    out += prefix + "mpp_recomputes=" + std::to_string(s.mpp_recomputes) + "\n";
  }
  return out;
}

}  // namespace msehsim::obs
