// daemon_mix: an in-process serve::Daemon on loopback, driven by a closed
// loop of two clients (daemon callers wait for each reply). Both clients
// run the same fixed sequence in rounds, meeting at a barrier after each
// phase, so every request class is timed under its own load only:
//
//   cold    a novel spec (trace compile + campaign run), then the same spec
//           with its scenario renamed (the trace cache maps the stored
//           timeline, the result cache misses)
//   hit     kHitsPerRound exact repeats of the client's recent requests:
//           result-cache hits, byte-compared with the first response
//   scrape  one GET /metrics
//
// The novel specs walk a fixed cycle over every platform pair and scenario
// kind; --seed picks only their trace seeds and which earlier requests are
// repeated, so the work per round does not depend on the seed.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "core/random.hpp"
#include "env/trace_cache.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/json.hpp"
#include "serve/spec.hpp"

namespace perfbench {

using namespace msehsim;

namespace {

constexpr int kClients = 2;
/// Exact repeats per client per round. An assumption, not a measurement:
/// no published trace gives how often daemon callers resend an identical
/// spec. Twelve makes hits 80% of requests, so the overall median lies
/// well inside the hit class and measures the service's own overhead.
constexpr int kHitsPerRound = 12;
constexpr double kTailQ = 0.99;
/// Repeats reissue one of the client's most recent cold requests.
constexpr std::size_t kRepeatWindow = 64;
/// Set-up sampling time after each timed round.
constexpr double kSetupBurstSeconds = 0.005;

enum Class { kNovel, kRelabel, kRepeat, kScrape, kClassCount };
const char* const kClassNames[] = {"novel", "relabel", "repeat", "scrape"};

struct Response {
  int status{0};
  std::string cache;  ///< X-Msehsim-Result-Cache header
  std::string body;
};

/// One blocking HTTP/1.1 exchange with 127.0.0.1:@p port; the server closes
/// after each response, so reading to EOF frames it.
Response http_exchange(std::uint16_t port, const std::string& raw) {
  Response out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return out;
  }
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string wire;
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos || wire.size() < 12) return out;
  out.status = std::atoi(wire.c_str() + 9);
  out.body = wire.substr(head_end + 4);
  const std::string head = wire.substr(0, head_end);
  const std::string key = "X-Msehsim-Result-Cache: ";
  if (const auto at = head.find(key); at != std::string::npos)
    out.cache = head.substr(at + key.size(), head.find("\r\n", at) - at - key.size());
  return out;
}

std::string post(const std::string& body) {
  return "POST /v1/campaign HTTP/1.1\r\nHost: localhost\r\nContent-Type: "
         "application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

const std::string kScrapeRequest = "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";

/// A request a client can reissue: its spec and the first response body.
struct Issued {
  std::vector<std::string> platforms;
  std::string kind;
  std::vector<std::uint64_t> seeds;
  std::string label;
  std::string body;
  std::string first_response;
};

std::string request_body(const Issued& r, double duration_s) {
  std::string b = "{\"platforms\": [";
  for (std::size_t i = 0; i < r.platforms.size(); ++i)
    b += (i ? ", \"" : "\"") + r.platforms[i] + "\"";
  char scen[200];
  std::snprintf(scen, sizeof scen,
                "], \"scenarios\": [{\"name\": \"%s\", \"kind\": \"%s\", "
                "\"duration_s\": %.17g, \"dt_s\": 5}], \"seeds\": [",
                r.label.c_str(), r.kind.c_str(), duration_s);
  b += scen;
  for (std::size_t i = 0; i < r.seeds.size(); ++i)
    b += (i ? ", " : "") + std::to_string(r.seeds[i]);
  return b + "]}";
}

/// Ledger gate on a results_json body: every job's bus identity must close
/// to 1e-9 of its gross flow. Returns the number of failing jobs (1 for a
/// body that does not parse).
std::uint64_t bad_ledgers(const std::string& body) try {
  const serve::JsonValue root = serve::parse_json(body);
  const serve::JsonValue* jobs = root.find("jobs");
  if (jobs == nullptr) return 1;
  std::uint64_t bad = 0;
  for (const auto& job : jobs->as_array()) {
    const serve::JsonValue* f = job.find("fields");
    const auto get = [&](const char* name) {
      const serve::JsonValue* v = f == nullptr ? nullptr : f->find(name);
      return v == nullptr ? 0.0 : v->as_double();
    };
    const double in = get("ledger.harvested_j") + get("ledger.storage_discharged_j") +
                      get("ledger.unserved_j");
    const double out = get("ledger.quiescent_j") + get("ledger.bus_load_j") +
                       get("ledger.storage_charged_j") + get("ledger.wasted_j");
    const double rel = std::abs(in - out) / std::max(1.0, in + out);
    if (f == nullptr || !(rel < 1e-9)) ++bad;
  }
  return bad;
} catch (const std::exception&) {
  return 1;
}

struct Sample {
  Class cls;
  double seconds;
  double platform_steps;
};

/// Everything one client did; merged after the loop.
struct ClientLog {
  std::vector<Sample> samples;
  std::vector<Issued> issued;
  std::vector<std::string> failures;
  std::uint64_t failed{0};
  std::uint64_t repeats_not_hit{0};
};

struct MixConfig {
  double duration_s{86400.0};
  std::size_t platforms{2};
  std::size_t seeds{2};
};

/// One closed-loop client: issues its share of each phase, waits for every
/// reply and checks it.
class Client {
 public:
  Client(std::uint16_t port, int id, std::uint64_t seed, const MixConfig& cfg,
         ClientLog& log)
      : port_(port),
        id_(id),
        rng_(seed, static_cast<std::uint64_t>(id)),
        cfg_(cfg),
        log_(log),
        steps_per_request_(static_cast<double>(cfg.platforms * cfg.seeds) *
                           cfg.duration_s / 5.0) {}

  /// A novel spec, then the same spec relabelled. Novel spec k of the run
  /// (k = round x clients + id) takes platform pair k mod 8 and scenario
  /// kind k / 8 mod 4.
  void cold_phase(std::size_t round) {
    const auto& platforms = serve::known_platforms();
    const auto& kinds = serve::known_scenario_kinds();
    const std::size_t k = round * kClients + static_cast<std::size_t>(id_);
    Issued req;
    for (std::size_t i = 0; i < cfg_.platforms; ++i)
      req.platforms.push_back(platforms[(k + i * 3) % platforms.size()]);
    req.kind = kinds[(k / platforms.size()) % kinds.size()];
    for (std::size_t i = 0; i < cfg_.seeds; ++i) req.seeds.push_back(rng_.next_u32());
    req.label = "n" + std::to_string(id_) + "-" + std::to_string(round);
    issue_cold(kNovel, req);
    req.label = "r" + std::to_string(id_) + "-" + std::to_string(round);
    issue_cold(kRelabel, std::move(req));
  }

  void hit_phase() {
    for (int i = 0; i < kHitsPerRound && !log_.issued.empty(); ++i) {
      const auto window =
          static_cast<std::uint32_t>(std::min(log_.issued.size(), kRepeatWindow));
      const Issued& origin = log_.issued[log_.issued.size() - 1 - rng_.next_below(window)];
      const Response resp = exchange(kRepeat, post(origin.body));
      if (resp.status != 200) continue;
      if (resp.body != origin.first_response) {
        std::size_t at = 0;
        while (at < resp.body.size() && resp.body[at] == origin.first_response[at]) ++at;
        failure(kRepeat, "hit bytes differ from the first response at byte " +
                             std::to_string(at));
      }
      if (resp.cache != "hit") ++log_.repeats_not_hit;
    }
  }

  void scrape_phase() { (void)exchange(kScrape, kScrapeRequest); }

 private:
  /// One timed exchange, logged under @p cls; a non-200 reply fails.
  Response exchange(Class cls, const std::string& raw) {
    const auto start = Clock::now();
    Response resp = http_exchange(port_, raw);
    const double seconds = seconds_since(start);
    const bool cold = cls == kNovel || cls == kRelabel;
    log_.samples.push_back({cls, seconds, cold ? steps_per_request_ : 0.0});
    if (resp.status != 200) failure(cls, "HTTP status " + std::to_string(resp.status));
    return resp;
  }

  void issue_cold(Class cls, Issued req) {
    req.body = request_body(req, cfg_.duration_s);
    const Response resp = exchange(cls, post(req.body));
    if (resp.status != 200) return;
    if (const std::uint64_t bad = bad_ledgers(resp.body); bad > 0)
      failure(cls, std::to_string(bad) + " jobs with ledger residual >= 1e-9");
    req.first_response = resp.body;
    log_.issued.push_back(std::move(req));
    // Responses beyond the repeat window are never compared again; drop
    // them so the benchmark's own memory stays flat over a run.
    if (log_.issued.size() > kRepeatWindow) {
      std::string& old = log_.issued[log_.issued.size() - 1 - kRepeatWindow].first_response;
      std::string().swap(old);
    }
  }

  void failure(Class cls, const std::string& why) {
    ++log_.failed;
    if (log_.failures.size() < 5)
      log_.failures.push_back(std::string(kClassNames[cls]) + ": " + why);
  }

  std::uint16_t port_;
  int id_;
  Pcg32 rng_;
  const MixConfig& cfg_;
  ClientLog& log_;
  double steps_per_request_;
};

serve::DaemonOptions daemon_options(const std::string& cache_dir) {
  serve::DaemonOptions o;
  o.campaign_threads = 2;
  o.max_concurrent_campaigns = 2;
  o.trace_cache_dir = cache_dir;
  o.trace_cache_max_bytes = 64ull << 20;
  // Repeats draw from each client's last kRepeatWindow cold requests, far
  // fewer than this cap, so a repeat is always a hit and memory stays flat
  // over a run. (A re-run after eviction would not be byte-identical: the
  // response counts the shared trace cache's lifetime hits under
  // "trace_compiles".)
  o.result_cache_entries = 256;
  return o;
}

struct MixRun {
  std::vector<ClientLog> logs;
  /// Loop wall time, minus the time spent in the between-rounds hook.
  double wall_s{0.0};
};

/// Runs whole rounds on both clients until @p seconds have passed (at least
/// one round). @p between_rounds, when set, runs on one thread while both
/// clients wait; its time is not loop time.
MixRun run_mix(std::uint16_t port, std::uint64_t seed, const MixConfig& cfg,
               double seconds, const std::function<void()>& between_rounds = {}) {
  MixRun out;
  out.logs.resize(kClients);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  constexpr int kPhases = 3;
  int phase = 0;
  bool done = false;
  double paused_s = 0.0;
  // Runs once per phase, after both clients arrive and before either goes on.
  const auto phase_end = [&]() noexcept {
    if (++phase % kPhases != 0) return;
    if (between_rounds) paused_s += time_s(between_rounds);
    done = Clock::now() >= deadline;
  };
  std::barrier sync(kClients, phase_end);
  const auto client = [&](int id) {
    ClientLog& log = out.logs[static_cast<std::size_t>(id)];
    try {
      Client c(port, id, seed, cfg, log);
      for (std::size_t round = 0; !done; ++round) {
        c.cold_phase(round);
        sync.arrive_and_wait();
        c.hit_phase();
        sync.arrive_and_wait();
        c.scrape_phase();
        sync.arrive_and_wait();
      }
    } catch (const std::exception& e) {
      // Leave the barrier so the other client finishes the run alone.
      ++log.failed;
      log.failures.push_back(std::string("client stopped: ") + e.what());
      sync.arrive_and_drop();
    }
  };
  std::vector<std::thread> clients;
  for (int id = 0; id < kClients; ++id) clients.emplace_back(client, id);
  for (auto& t : clients) t.join();
  out.wall_s = seconds_since(start) - paused_s;
  return out;
}

void account(const std::vector<ClientLog>& logs, Report& report) {
  for (const auto& log : logs) {
    report.attempted += log.samples.size();
    for (const auto& why : log.failures) report.note("FAILED: " + why);
    if (log.failed > 0) {
      report.failed += log.failed;
      report.correct = false;
    }
  }
}

std::vector<double> latencies(const std::vector<ClientLog>& logs, int cls_mask) {
  std::vector<double> out;
  for (const auto& log : logs)
    for (const auto& s : log.samples)
      if (cls_mask & (1 << s.cls)) out.push_back(s.seconds);
  return out;
}

constexpr int kAll = (1 << kClassCount) - 1;
constexpr int kCold = (1 << kNovel) | (1 << kRelabel);

/// The loop's metrics, with a note of each class's count and median.
struct MixSummary {
  LatencySummary all, cold, hit;
  double steps_per_s{0.0};
  double req_per_s{0.0};
};

MixSummary summarize(const MixRun& run, Report& report) {
  std::size_t n = 0;
  double steps = 0.0;
  std::size_t not_hit = 0;
  for (const auto& log : run.logs) {
    n += log.samples.size();
    not_hit += log.repeats_not_hit;
    for (const auto& s : log.samples) steps += s.platform_steps;
  }
  MixSummary s;
  s.all = summarize_ms(latencies(run.logs, kAll), kTailQ);
  s.cold = summarize_ms(latencies(run.logs, kCold), 0.5);
  s.hit = summarize_ms(latencies(run.logs, 1 << kRepeat), 0.5);
  s.steps_per_s = steps / run.wall_s;
  s.req_per_s = static_cast<double>(n) / run.wall_s;
  std::string line = "requests=" + std::to_string(n) + " (" +
                     std::to_string(not_hit) + " repeats not served as hits); p50 ms:";
  for (int c = 0; c < kClassCount; ++c) {
    const LatencySummary cls = summarize_ms(latencies(run.logs, 1 << c), 0.5);
    char buf[80];
    std::snprintf(buf, sizeof buf, " %s %.3f (n=%zu)", kClassNames[c], cls.p50_ms,
                  cls.samples);
    line += buf;
  }
  char buf[120];
  std::snprintf(buf, sizeof buf, "; tail=p%g (%zu samples beyond it)", kTailQ * 100.0,
                s.all.beyond_tail);
  report.note(line + buf);
  return s;
}

}  // namespace

void run_daemon_mix(const Options& opt, Report& report) {
  namespace fs = std::filesystem;
  MixConfig cfg;
  if (opt.smoke) cfg.duration_s = 3600.0;
  const fs::path root = fs::path(opt.work_dir) / ("daemon-" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  serve::Daemon daemon(daemon_options((root / "cache").string()));
  daemon.start();
  const std::uint16_t port = daemon.port();

  // Reference sequence on one client: a novel request, its relabel and an
  // exact repeat, folded into one digest of the response bodies.
  {
    Issued ref;
    ref.platforms = {"system-a", "system-b"};
    ref.kind = "outdoor";
    ref.seeds = {20130318, 20130319};
    ref.label = "reference";
    Digest d;
    const std::string first = request_body(ref, cfg.duration_s);
    ref.label = "reference-relabelled";
    const std::string second = request_body(ref, cfg.duration_s);
    for (const std::string* body : {&first, &second, &first}) {
      const Response r = http_exchange(port, post(*body));
      ++report.attempted;
      if (r.status != 200) report.fail("reference request: HTTP " + std::to_string(r.status));
      if (const std::uint64_t bad = bad_ledgers(r.body); bad > 0)
        report.fail("reference request: ledger residual >= 1e-9", bad);
      d.add(r.body);
    }
    check_reference(opt, std::string("daemon_mix") + (opt.smoke ? ".smoke" : ""),
                    d.hex(), report);
  }

  // Warm-up: untimed rounds (their own seed) so the timed loop starts on a
  // busy host with populated caches.
  if (warmup_seconds(opt) > 0.0)
    account(run_mix(port, ~opt.seed, cfg, warmup_seconds(opt)).logs, report);

  if (!opt.trace) {
    // Set-up: daemon construct + bind (the listener is bound in the
    // constructor), sampled in short bursts between timed rounds so the
    // samples see the same host as the loop. Workers are not started:
    // starting and stopping thousands of servers in a row hit a lost wakeup
    // in HttpServer::stop (it sets `stopping` without holding the queue
    // mutex), and a worker slept forever.
    std::vector<double> setups;
    std::uint64_t setup_errors = 0;
    const auto setup_burst = [&] {
      const auto burst = Clock::now();
      do {
        try {
          setups.push_back(time_s([&] {
            serve::Daemon d(daemon_options((root / "setup").string()));
            (void)d.port();
          }));
        } catch (const std::exception&) {
          ++setup_errors;
        }
      } while (seconds_since(burst) < kSetupBurstSeconds);
    };
    const MixRun run = run_mix(port, opt.seed, cfg, opt.seconds, setup_burst);
    account(run.logs, report);
    if (setup_errors > 0) {
      report.attempted += setup_errors;
      report.fail("daemon set-up threw", setup_errors);
    }
    report_setup(report, setups);
    const MixSummary s = summarize(run, report);
    report.set("sim_steps_per_s", s.steps_per_s, "steps/s");
    report.set("req_p50_ms", s.all.p50_ms, "ms");
    report.set("req_tail_ms", s.all.tail_ms, "ms");
    report.set("req_per_s", s.req_per_s, "req/s");
    report.set("cold_req_p50_ms", s.cold.p50_ms, "ms");
  } else {
    // Tracing overhead: alternate untraced and traced windows of the loop
    // and compare the latency of requests that ran a campaign.
    auto& collector = obs::TraceCollector::instance();
    MixRun plain;
    std::vector<ClientLog> traced;
    const double window = opt.seconds / 4.0;
    for (int round = 0; round < 2; ++round) {
      MixRun p = run_mix(port, opt.seed + 2 * round, cfg, window);
      plain.wall_s += p.wall_s;
      for (auto& log : p.logs) plain.logs.push_back(std::move(log));
      collector.enable();
      for (auto& log : run_mix(port, opt.seed + 2 * round + 1, cfg, window).logs)
        traced.push_back(std::move(log));
      collector.disable();
    }
    account(plain.logs, report);
    account(traced, report);
    const MixSummary s = summarize(plain, report);
    const double traced_cold = median(latencies(traced, kCold));
    report.set("obs.trace_overhead", traced_cold / median(latencies(plain.logs, kCold)),
               "ratio");
    report.set("serve.hit_req_p50_ms", s.hit.p50_ms, "ms");
    report.set("serve.scrape_req_p50_ms", median(latencies(plain.logs, 1 << kScrape)) * 1e3,
               "ms");

    const serve::ResultCacheStats rc = daemon.result_cache_stats();
    report.set("serve.result_cache.hit_ratio",
               rc.hits + rc.misses == 0
                   ? 0.0
                   : static_cast<double>(rc.hits) / static_cast<double>(rc.hits + rc.misses),
               "ratio");

    // serve: request parsing and canonicalization on this run's own bodies.
    std::vector<std::string> bodies;
    for (const auto& log : plain.logs)
      for (const auto& r : log.issued) bodies.push_back(r.body);
    std::vector<double> parse_t;
    std::vector<double> canon_t;
    for (const auto& b : bodies) {
      serve::CampaignRequest req;
      parse_t.push_back(time_s([&] { req = serve::parse_campaign_request(b); }));
      std::string c;
      canon_t.push_back(time_s([&] { c = serve::canonical_form(req); }));
    }
    report.set("serve.parse_us", median(parse_t) * 1e6, "us");
    report.set("serve.canonical_us", median(canon_t) * 1e6, "us");

    std::vector<double> scrape_t;
    for (int i = 0; i < 20; ++i) scrape_t.push_back(time_s([&] { (void)daemon.scrape(); }));
    report.set("obs.scrape_us", median(scrape_t) * 1e6, "us");

    // env.trace_cache: load hits on the daemon's own directory, through a
    // second handle (the daemon's is private), for the novel specs issued.
    env::TraceCache cache((root / "cache").string());
    std::vector<double> load_t;
    for (const auto& log : plain.logs)
      for (const auto& r : log.issued)
        for (const std::uint64_t seed : r.seeds) {
          env::TraceCacheKey key{"preset:" + r.kind, seed, Seconds{5.0},
                                 Seconds{cfg.duration_s}};
          std::shared_ptr<const env::CompiledTrace> t;
          const double dt = time_s([&] { t = cache.load(key); });
          if (t != nullptr && load_t.size() < 64) load_t.push_back(dt);
        }
    report.set("env.trace_cache.load_us", median(load_t) * 1e6, "us");
    // Hit ratio of the daemon's shared cache, from its own scrape.
    const std::string scrape = daemon.scrape();
    const auto counter = [&](const std::string& name) {
      const auto at = scrape.find("\n" + name + " ");
      return at == std::string::npos ? 0.0
                                     : std::strtod(scrape.c_str() + at + name.size() + 2, nullptr);
    };
    const double th = counter("msehsim_trace_cache_hits_total");
    const double tm = counter("msehsim_trace_cache_misses_total");
    report.set("env.trace_cache.hit_ratio", th + tm == 0.0 ? 0.0 : th / (th + tm), "ratio");

    // Campaign counters and the metrics merge on the first novel spec.
    if (!bodies.empty()) {
      const serve::CampaignRequest req = serve::parse_campaign_request(bodies.front());
      campaign::Campaign c(serve::to_campaign_spec(req, nullptr, 2));
      c.run();
      report_campaign_counters(c, report);
    }
  }

  // Let the workers settle back onto the queue wait before stopping (see
  // the lost wakeup above).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  daemon.stop();
  fs::remove_all(root);
}

}  // namespace perfbench
