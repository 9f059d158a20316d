#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Digest::add(const std::string& bytes) {
  for (const unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

void Report::fail(const std::string& why, std::uint64_t count) {
  failed += count;
  correct = false;
  note("FAILED: " + why);
}

unsigned bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 4u);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string reference_digest(const Options& opt, const std::string& key) {
  std::ifstream in(opt.reference_file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string k;
    std::string digest;
    if (row >> k >> digest && k == key) return digest;
  }
  return {};
}

void check_reference(const Options& opt, const std::string& key,
                     const std::string& digest, Report& report) {
  if (opt.print_reference) {
    std::printf("REFERENCE %s %s\n", key.c_str(), digest.c_str());
    return;
  }
  const std::string want = reference_digest(opt, key);
  if (want.empty()) {
    report.fail("no reference digest for " + key + " in " + opt.reference_file);
  } else if (want != digest) {
    report.fail("reference digest mismatch for " + key + ": got " + digest +
                ", want " + want);
  } else {
    report.note("reference " + key + " digest " + digest + " ok");
  }
}

LatencySummary summarize_ms(const std::vector<double>& seconds, double tail_q) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (const double s : seconds) ms.push_back(s * 1e3);
  LatencySummary out;
  out.samples = ms.size();
  out.p50_ms = median(ms);
  out.tail_ms = quantile(ms, tail_q);
  out.beyond_tail = static_cast<std::size_t>(
      std::count_if(ms.begin(), ms.end(), [&](double x) { return x > out.tail_ms; }));
  return out;
}

void report_setup(Report& report, const std::vector<double>& samples) {
  report.set("setup_s", median(samples), "s");
  char buf[160];
  std::snprintf(buf, sizeof buf, "setup: %zu repetitions, quartiles %.3g / %.3g / %.3g us",
                samples.size(), quantile(samples, 0.25) * 1e6, median(samples) * 1e6,
                quantile(samples, 0.75) * 1e6);
  report.note(buf);
}

}  // namespace perfbench
