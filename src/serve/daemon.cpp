#include "serve/daemon.hpp"

#include <chrono>
#include <condition_variable>
#include <map>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/export.hpp"
#include "core/error.hpp"
#include "env/trace_cache.hpp"
#include "obs/prometheus.hpp"
#include "serve/spec.hpp"

namespace msehsim::serve {

namespace {

/// Wall-clock request latency buckets (seconds). Ops-facing only — nothing
/// here feeds a result byte, so wall clock is the right clock for once.
const std::vector<double> kLatencyBounds = {0.01, 0.05, 0.25, 1.0,
                                            5.0,  30.0, 120.0};

HttpResponse json_error(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  std::string escaped;
  for (const char c : message) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      escaped += ' ';
      continue;
    }
    escaped += c;
  }
  resp.body = "{\"error\": \"" + escaped + "\"}\n";
  return resp;
}

}  // namespace

/// One in-flight campaign run that identical concurrent requests park on.
struct Daemon::Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done{false};
  std::shared_ptr<const std::string> body;  ///< null on failure
  std::string error;
};

struct Daemon::Impl {
  std::unique_ptr<HttpServer> server;
  std::shared_ptr<env::TraceCache> trace_cache;  ///< may be null
  ResultCache result_cache;

  // Admission: how many campaigns may run at once. HTTP workers beyond
  // this wait (bounded) so a burst degrades to queueing, then to 503 —
  // never to an unbounded pile of thread-pools.
  std::mutex admission_mu;
  std::condition_variable admission_cv;
  unsigned running_campaigns{0};

  // Single-flight: canonical form -> the run to wait for. Keyed by the
  // full form, so only byte-equal requests ever coalesce.
  std::mutex flights_mu;
  std::map<std::string, std::shared_ptr<Flight>> flights;

  // The serve.* counters and the request latency histogram, registered up
  // front so an idle scrape lists every row at 0, plus every finished
  // campaign's merged metrics snapshot; all under one lock. The references
  // resolve each row once (map nodes never move).
  mutable std::mutex metrics_mu;
  obs::Registry metrics;
  obs::Counter& requests = metrics.counter("serve.requests");
  obs::Counter& responses_ok = metrics.counter("serve.responses.ok");
  obs::Counter& responses_client_error =
      metrics.counter("serve.responses.client_error");
  obs::Counter& responses_server_error =
      metrics.counter("serve.responses.server_error");
  obs::Counter& campaign_requests = metrics.counter("serve.campaign.requests");
  obs::Counter& campaign_runs = metrics.counter("serve.campaign.runs");
  obs::Counter& campaign_jobs = metrics.counter("serve.campaign.jobs");
  obs::Counter& coalesced_waits =
      metrics.counter("serve.campaign.coalesced_waits");
  obs::Counter& admission_rejected =
      metrics.counter("serve.admission.rejected");
  obs::Counter& scrapes = metrics.counter("serve.metrics.scrapes");
  obs::Histogram& latency =
      metrics.histogram("serve.request_latency_s", kLatencyBounds);
  obs::MetricsSnapshot campaign_metrics;  ///< merged across finished runs

  Impl(const DaemonOptions& options)
      : result_cache(options.result_cache_entries,
                     options.result_cache_bytes) {
    if (!options.trace_cache_dir.empty())
      trace_cache = std::make_shared<env::TraceCache>(
          options.trace_cache_dir, options.trace_cache_max_bytes);
  }
};

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>(options_)) {
  impl_->server = std::make_unique<HttpServer>(
      options_.http, [this](const HttpRequest& req) { return handle(req); });
}

Daemon::~Daemon() { stop(); }

void Daemon::start() { impl_->server->start(); }

void Daemon::stop() {
  if (impl_->server) impl_->server->stop();
}

std::uint16_t Daemon::port() const { return impl_->server->port(); }

ResultCacheStats Daemon::result_cache_stats() const {
  return impl_->result_cache.stats();
}

HttpResponse Daemon::handle(const HttpRequest& request) {
  HttpResponse resp;
  if (request.target == "/v1/campaign") {
    resp = request.method == "POST"
               ? handle_campaign(request)
               : json_error(405, "use POST /v1/campaign");
  } else if (request.target == "/metrics") {
    resp = request.method == "GET" ? handle_metrics()
                                   : json_error(405, "use GET /metrics");
  } else if (request.target == "/healthz") {
    resp.body = "ok\n";
  } else {
    resp = json_error(404, "no such endpoint: " + request.target);
  }
  const std::lock_guard<std::mutex> lock(impl_->metrics_mu);
  impl_->requests.add();
  if (resp.status < 400) impl_->responses_ok.add();
  else if (resp.status < 500) impl_->responses_client_error.add();
  else impl_->responses_server_error.add();
  return resp;
}

HttpResponse Daemon::handle_campaign(const HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  const auto observe_latency = [&] {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const std::lock_guard<std::mutex> lock(impl_->metrics_mu);
    impl_->campaign_requests.add();
    impl_->latency.observe(seconds);
  };

  CampaignRequest parsed;
  try {
    parsed = parse_campaign_request(request.body, options_.max_jobs,
                                    options_.max_steps);
  } catch (const std::exception& e) {
    observe_latency();
    return json_error(400, e.what());
  }
  const std::string canonical = canonical_form(parsed);

  // Fast path: the memo already holds these bytes.
  if (const auto body = impl_->result_cache.load(canonical)) {
    observe_latency();
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = *body;
    resp.extra_headers.emplace_back("X-Msehsim-Result-Cache", "hit");
    return resp;
  }

  // Single-flight: if an identical request is already running, park on it
  // instead of spending a second campaign on the same bytes.
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock(impl_->flights_mu);
    auto& slot = impl_->flights[canonical];
    if (!slot) {
      slot = std::make_shared<Flight>();
      leader = true;
    }
    flight = slot;
  }

  if (!leader) {
    {
      const std::lock_guard<std::mutex> lock(impl_->metrics_mu);
      impl_->coalesced_waits.add();
    }
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    observe_latency();
    if (!flight->body) return json_error(500, flight->error);
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = *flight->body;
    resp.extra_headers.emplace_back("X-Msehsim-Result-Cache", "coalesced");
    return resp;
  }

  // Leader: acquire an admission slot, run the campaign, publish.
  const auto finish_flight = [&](std::shared_ptr<const std::string> body,
                                 std::string error) {
    {
      const std::lock_guard<std::mutex> lock(impl_->flights_mu);
      impl_->flights.erase(canonical);
    }
    const std::lock_guard<std::mutex> lock(flight->mu);
    flight->body = std::move(body);
    flight->error = std::move(error);
    flight->done = true;
    flight->cv.notify_all();
  };

  {
    std::unique_lock<std::mutex> lock(impl_->admission_mu);
    const bool admitted = impl_->admission_cv.wait_for(
        lock, std::chrono::milliseconds(options_.admission_timeout_ms), [&] {
          return impl_->running_campaigns < options_.max_concurrent_campaigns;
        });
    if (!admitted) {
      {
        const std::lock_guard<std::mutex> mlock(impl_->metrics_mu);
        impl_->admission_rejected.add();
      }
      finish_flight(nullptr, "server saturated, retry later");
      observe_latency();
      return json_error(503, "server saturated, retry later");
    }
    ++impl_->running_campaigns;
  }

  std::shared_ptr<const std::string> body;
  std::string error;
  try {
    campaign::CampaignSpec spec = to_campaign_spec(
        parsed, impl_->trace_cache, options_.campaign_threads);
    campaign::Campaign campaign(std::move(spec));
    campaign.run();
    std::string rendered = campaign::results_json(campaign);
    obs::MetricsSnapshot metrics = campaign.metrics();
    {
      const std::lock_guard<std::mutex> lock(impl_->metrics_mu);
      impl_->campaign_runs.add();
      impl_->campaign_jobs.add(campaign.results().size());
      // Campaign snapshots embed the shared trace cache's *lifetime*
      // counters; merging those across campaigns would double-count every
      // prior request. Drop them here — the scrape re-adds live totals
      // straight from the cache.
      obs::MetricsSnapshot filtered;
      for (auto& row : metrics.rows)
        if (row.name.rfind("trace_cache.", 0) != 0)
          filtered.rows.push_back(std::move(row));
      impl_->campaign_metrics.merge(filtered);
    }
    impl_->result_cache.store(canonical, rendered);
    body = std::make_shared<const std::string>(std::move(rendered));
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "unknown error running campaign";
  }

  {
    const std::lock_guard<std::mutex> lock(impl_->admission_mu);
    --impl_->running_campaigns;
  }
  impl_->admission_cv.notify_one();
  finish_flight(body, error);
  observe_latency();

  if (!body) return json_error(500, error);
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = *body;
  resp.extra_headers.emplace_back("X-Msehsim-Result-Cache", "miss");
  return resp;
}

obs::MetricsSnapshot Daemon::snapshot_locked() const {
  // Caller holds metrics_mu. The cache rows are live reads, added to a
  // copy of the serve.* registry.
  obs::Registry reg = impl_->metrics;
  const ResultCacheStats rc = impl_->result_cache.stats();
  reg.counter("serve.result_cache.hits").add(rc.hits);
  reg.counter("serve.result_cache.misses").add(rc.misses);
  reg.counter("serve.result_cache.insertions").add(rc.insertions);
  reg.counter("serve.result_cache.evictions").add(rc.evictions);
  reg.gauge("serve.result_cache.bytes").set(static_cast<double>(rc.bytes));

  if (impl_->trace_cache) {
    const env::TraceCacheStats tc = impl_->trace_cache->stats();
    reg.counter("trace_cache.hits").add(tc.hits);
    reg.counter("trace_cache.misses").add(tc.misses);
    reg.counter("trace_cache.evictions").add(tc.evictions);
    reg.gauge("trace_cache.bytes_mapped")
        .set(static_cast<double>(tc.bytes_mapped));
  }

  obs::MetricsSnapshot snap = reg.snapshot();
  snap.merge(impl_->campaign_metrics);
  return snap;
}

std::string Daemon::scrape() const {
  obs::MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(impl_->metrics_mu);
    impl_->scrapes.add();
    snap = snapshot_locked();
  }
  return obs::prometheus_text(snap);
}

HttpResponse Daemon::handle_metrics() const {
  std::string body = scrape();
  // Lint gate: the strict parser is cheap next to a campaign, and a scrape
  // that fails it must be a loud 500 — Prometheus silently dropping samples
  // from a malformed exposition is the worst observability failure mode.
  const std::string lint = obs::prometheus_lint(body);
  if (!lint.empty()) return json_error(500, "metrics lint failed: " + lint);
  HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = std::move(body);
  return resp;
}

}  // namespace msehsim::serve
