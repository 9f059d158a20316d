// perfbench — the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>] [--reference <file>]
//             [--print-reference] [--source-id <text>]
//
// Runs one named workload for the given number of seconds, checks its
// outputs, prints human-readable notes, then one JSON object as the last
// line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are the
// per-layer set (perfbench/README.md lists both).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

using namespace perfbench;

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        while (!v.empty() && v.front() == ' ') v.erase(0, 1);
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--reference") {
      opt.reference_file = value();
    } else if (a == "--print-reference") {
      opt.print_reference = true;
    } else if (a == "--source-id") {
      opt.source_id = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0) || opt.seconds > 120.0)
    usage("--seconds must be in (0, 120]");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "perfbench: refusing to report from a non-optimized build "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  std::printf(
      "# fingerprint: compiler=\"%s\" build_type=%s flags=\"%s\" nproc=%u "
      "cpu=\"%s\" source=%s\n",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
      std::thread::hardware_concurrency(), cpu_model().c_str(),
      opt.source_id.c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " smoke" : "");
  std::fflush(stdout);

  Report report;
  try {
    if (opt.workload == "survey_grid") {
      run_survey_grid(opt, report);
    } else if (opt.workload == "buffer_sweep") {
      run_buffer_sweep(opt, report);
    } else if (opt.workload == "fault_failover") {
      run_fault_failover(opt, report);
    } else if (opt.workload == "daemon_mix") {
      run_daemon_mix(opt, report);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    if (opt.trace) {
      replay_layers(opt, report);
      // Layers a workload never calls read 0: campaign workloads bypass the
      // serve layer and the persistent trace cache, only fault_failover
      // injects faults, and the daemon's pools are not the benchmark's.
      const char* const bypassed[][2] = {
          {"campaign.pool_efficiency", "ratio"},
          {"fault.build_injector_us", "us"},
          {"fault.events", "count"},
          {"serve.hit_req_p50_ms", "ms"},
          {"serve.scrape_req_p50_ms", "ms"},
          {"serve.result_cache.hit_ratio", "ratio"},
          {"serve.parse_us", "us"},
          {"serve.canonical_us", "us"},
          {"obs.scrape_us", "us"},
          {"env.trace_cache.load_us", "us"},
          {"env.trace_cache.hit_ratio", "ratio"}};
      for (const auto& [name, unit] : bypassed)
        if (report.metrics.count(name) == 0) report.set(name, 0.0, unit);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!opt.trace) report.set("peak_rss_mb", peak_rss_mb(), "MB");

  for (const auto& line : report.notes) std::printf("# %s\n", line.c_str());
  const double failed_fraction =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("# failed_fraction=%.17g (%llu of %llu)\n", failed_fraction,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  std::ostringstream json;
  json << "{\"correct\": "
       << (report.correct && report.failed == 0 && report.attempted > 0
               ? "true"
               : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : report.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    json << (first ? "" : ", ") << "\"" << json_escape(name)
         << "\": {\"value\": " << num << ", \"unit\": \"" << json_escape(m.unit)
         << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
