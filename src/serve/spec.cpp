#include "serve/spec.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/error.hpp"
#include "core/fmt.hpp"
#include "env/environment.hpp"
#include "serve/json.hpp"
#include "systems/catalog.hpp"

namespace msehsim::serve {

namespace {

/// Scenario labels land in the canonical form (space-separated) and in
/// exported JSON, so the accepted alphabet is the same conservative one the
/// fault-schedule parser uses for target names: no whitespace, no quotes,
/// nothing that needs escaping anywhere downstream.
bool valid_scenario_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// The request's platform names, in known_platforms() order.
struct NamedPlatform { const char* name; systems::SystemId id; };
constexpr NamedPlatform kPlatforms[] = {
    {"system-a", systems::SystemId::kSmartPowerUnit},
    {"system-b", systems::SystemId::kPlugAndPlay},
    {"system-c", systems::SystemId::kAmbiMax},
    {"system-d", systems::SystemId::kMpWiNode},
    {"system-e", systems::SystemId::kMax17710Eval},
    {"system-f", systems::SystemId::kCymbetEval09},
    {"system-g", systems::SystemId::kEhLink},
    {"smart-harvester", systems::SystemId::kSmartHarvester},
};

/// The request's scenario kinds, in known_scenario_kinds() order.
using PresetFn = env::Environment (*)(std::uint64_t seed);
struct NamedPreset { const char* name; PresetFn make; };
constexpr NamedPreset kPresets[] = {
    {"outdoor", &env::Environment::outdoor},
    {"indoor-industrial", &env::Environment::indoor_industrial},
    {"agricultural", &env::Environment::agricultural},
    {"office", &env::Environment::office},
};

systems::SystemId platform_id(const std::string& name) {
  for (const NamedPlatform& row : kPlatforms)
    if (name == row.name) return row.id;
  throw SpecError("campaign request: unknown platform \"" + name + "\"");
}

PresetFn preset(const std::string& kind) {
  for (const NamedPreset& row : kPresets)
    if (kind == row.name) return row.make;
  throw SpecError("campaign request: unknown scenario kind \"" + kind + "\"");
}

template <typename Row, std::size_t N>
std::vector<std::string> names_of(const Row (&table)[N]) {
  std::vector<std::string> names;
  for (const Row& row : table) names.emplace_back(row.name);
  return names;
}

/// Strict member accessor: the body may only contain keys this schema
/// names, so a typo ("lanewidth") is a 400, never a silently-ignored knob.
/// Like every check below, it builds its message only when it fails.
void require_known_keys(const JsonValue& object,
                        std::initializer_list<std::string_view> known,
                        const char* where) {
  for (const auto& [key, value] : object.as_object()) {
    (void)value;
    bool ok = false;
    for (const std::string_view k : known) ok = ok || key == k;
    if (!ok)
      throw SpecError(std::string("campaign request: unknown ") + where +
                      " key \"" + key + "\"");
  }
}

double positive_finite(const JsonValue& v, const char* what) {
  const double x = v.as_double();
  if (!(std::isfinite(x) && x > 0.0))
    throw SpecError(std::string("campaign request: ") + what +
                    " must be a positive finite number");
  return x;
}

}  // namespace

const std::vector<std::string>& known_platforms() {
  static const std::vector<std::string> names = names_of(kPlatforms);
  return names;
}

const std::vector<std::string>& known_scenario_kinds() {
  static const std::vector<std::string> kinds = names_of(kPresets);
  return kinds;
}

CampaignRequest parse_campaign_request(const std::string& body,
                                       std::uint64_t max_jobs,
                                       double max_steps) {
  const JsonValue root = parse_json(body);
  if (!root.is_object())
    throw SpecError("campaign request: body must be an object");
  require_known_keys(root, {"platforms", "scenarios", "seeds"},
                     "request");

  CampaignRequest req;

  const JsonValue* platforms = root.find("platforms");
  if (platforms == nullptr)
    throw SpecError("campaign request: missing \"platforms\" array");
  for (const JsonValue& p : platforms->as_array()) {
    (void)platform_id(p.as_string());  // validates the name
    req.platforms.push_back(p.as_string());
  }

  const JsonValue* scenarios = root.find("scenarios");
  if (scenarios == nullptr)
    throw SpecError("campaign request: missing \"scenarios\" array");
  for (const JsonValue& s : scenarios->as_array()) {
    if (!s.is_object())
      throw SpecError("campaign request: each scenario must be an object");
    require_known_keys(s, {"name", "kind", "duration_s", "dt_s"}, "scenario");
    ScenarioRequest sr;
    const JsonValue* name = s.find("name");
    if (name == nullptr)
      throw SpecError("campaign request: scenario missing \"name\"");
    sr.name = name->as_string();
    if (!valid_scenario_name(sr.name))
      throw SpecError("campaign request: scenario name \"" + sr.name +
                      "\" must be 1-64 chars of [A-Za-z0-9._-]");
    const JsonValue* kind = s.find("kind");
    if (kind == nullptr)
      throw SpecError("campaign request: scenario missing \"kind\"");
    sr.kind = kind->as_string();
    (void)preset(sr.kind);  // validates the kind
    const JsonValue* duration = s.find("duration_s");
    if (duration == nullptr)
      throw SpecError("campaign request: scenario missing \"duration_s\"");
    sr.duration_s = positive_finite(*duration, "duration_s");
    if (const JsonValue* dt = s.find("dt_s"))
      sr.dt_s = positive_finite(*dt, "dt_s");
    if (!(sr.duration_s >= sr.dt_s))
      throw SpecError("campaign request: duration_s must be >= dt_s");
    req.scenarios.push_back(std::move(sr));
  }

  const JsonValue* seeds = root.find("seeds");
  if (seeds == nullptr)
    throw SpecError("campaign request: missing \"seeds\" array");
  for (const JsonValue& s : seeds->as_array()) {
    if (!s.is_number())
      throw SpecError("campaign request: seeds must be numbers");
    // Re-parse the raw spelling: seeds span the full u64 range, where a
    // double round-trip would silently quantize above 2^53.
    const auto v = parse_unsigned(s.raw_number());
    if (!v.has_value())
      throw SpecError("campaign request: seed \"" + s.raw_number() +
                      "\" must be an unsigned integer");
    req.seeds.push_back(*v);
  }

  // Admission control starts at the parser: bound the grid and the total
  // step budget before any factory runs, so an oversized request costs the
  // daemon one parse, not one campaign.
  const std::uint64_t jobs = static_cast<std::uint64_t>(req.platforms.size()) *
                             req.scenarios.size() * req.seeds.size();
  if (!(jobs <= max_jobs))
    throw SpecError("campaign request: grid of " + std::to_string(jobs) +
                    " jobs exceeds the server cap of " +
                    std::to_string(max_jobs));
  double total_steps = 0.0;
  for (const auto& s : req.scenarios)
    total_steps += (s.duration_s / s.dt_s) *
                   static_cast<double>(req.platforms.size()) *
                   static_cast<double>(req.seeds.size());
  if (!(total_steps <= max_steps))
    throw SpecError("campaign request: expected step count " +
                    format_double(total_steps) + " exceeds the server cap of " +
                    format_double(max_steps));
  return req;
}

std::string canonical_form(const CampaignRequest& request) {
  // Version-prefixed, newline-framed, space-separated fields; every numeric
  // in round-trip-exact core/fmt form so "3600", "3600.0", and "3.6e3" in
  // the body all canonicalize to the same bytes.
  std::string out = "msehsim-campaign-request v1\n";
  for (const auto& p : request.platforms) out += "platform " + p + "\n";
  for (const auto& s : request.scenarios) {
    out += "scenario " + s.name + " " + s.kind + " " +
           format_double(s.duration_s) + " " + format_double(s.dt_s) + "\n";
  }
  for (const std::uint64_t s : request.seeds)
    out += "seed " + std::to_string(s) + "\n";
  return out;
}

campaign::CampaignSpec to_campaign_spec(
    const CampaignRequest& request,
    std::shared_ptr<env::TraceCache> shared_cache, unsigned threads) {
  campaign::CampaignSpec spec;
  spec.threads = threads;
  spec.shared_trace_cache = std::move(shared_cache);
  for (const auto& name : request.platforms) {
    const systems::SystemId id = platform_id(name);
    spec.platforms.push_back(
        {name, [id](std::uint64_t seed) { return systems::build(id, seed); }});
  }
  for (const auto& s : request.scenarios) {
    campaign::Scenario scenario;
    scenario.name = s.name;
    // Key the persistent trace cache on the generator identity, not the
    // request's label: two requests naming the same preset differently share
    // one cached timeline, and reusing a label for a different preset can
    // never serve the wrong trace.
    scenario.trace_key = "preset:" + s.kind;
    scenario.duration = Seconds{s.duration_s};
    scenario.options.dt = Seconds{s.dt_s};
    scenario.environment = [make = preset(s.kind)](std::uint64_t seed) {
      return std::make_unique<env::Environment>(make(seed));
    };
    spec.scenarios.push_back(std::move(scenario));
  }
  spec.seeds = request.seeds;
  return spec;
}

}  // namespace msehsim::serve
