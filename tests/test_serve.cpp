// The campaign daemon, bottom up: the strict JSON parser, request
// validation and canonicalization, the response memo, and a live
// HTTP round-trip through a real Daemon on an ephemeral port. The
// integration tests drive the acceptance contract directly: two identical
// POSTs return byte-identical bodies with the second served from the
// ResultCache, and every /metrics scrape passes the repo's own linter.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/random.hpp"
#include "obs/prometheus.hpp"
#include "serve/daemon.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "serve/result_cache.hpp"
#include "serve/spec.hpp"

namespace msehsim::serve {
namespace {

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesTheBasicShapes) {
  const auto v = parse_json(
      R"( {"a": [1, 2.5, -3e2], "b": "x\ty", "c": true, "d": null} )");
  ASSERT_TRUE(v.is_object());
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[0].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(a->as_array()[2].as_double(), -300.0);
  EXPECT_EQ(v.find("b")->as_string(), "x\ty");
  EXPECT_TRUE(v.find("c")->as_bool());
  EXPECT_TRUE(v.find("d")->is_null());
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(ServeJson, NumbersKeepTheirRawSpelling) {
  // Seeds span the full u64 range; a double round-trip would quantize
  // 18446744073709551615 to 18446744073709551616. The raw spelling is how
  // the spec layer re-parses exactly.
  const auto v = parse_json(R"([18446744073709551615, 1e3, 0.5])");
  EXPECT_EQ(v.as_array()[0].raw_number(), "18446744073709551615");
  EXPECT_EQ(v.as_array()[1].raw_number(), "1e3");
  EXPECT_EQ(v.as_array()[2].raw_number(), "0.5");
}

TEST(ServeJson, StringEscapesIncludingSurrogatePairs) {
  // é -> é, € -> €, and the 😀 surrogate pair -> 😀,
  // all as UTF-8 bytes; raw UTF-8 in the body passes through untouched.
  const auto v = parse_json(R"("\u00e9\u20ac\ud83d\ude00é\\\"\/\b\f\n\r\t")");
  EXPECT_EQ(v.as_string(),
            "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xc3\xa9\\\"/\b\f\n\r\t");
}

TEST(ServeJson, RejectsEverythingTheGrammarForbids) {
  for (const char* bad : {
           "",              // nothing at all
           "{",             // unterminated object
           "[1, ]",         // trailing comma
           "{\"a\": 1,}",   // trailing comma in object
           "01",            // leading zero
           "1.",            // bare decimal point
           ".5",            // leading decimal point
           "+1",            // leading plus
           "NaN",           // not a JSON literal
           "Infinity",      //
           "tru",           // truncated keyword
           "\"unterminated",
           "\"bad \\x escape\"",
           "\"lone \\ud83d surrogate\"",
           "{\"a\": 1} trailing",
           "{'single': 1}",
           "{\"dup\": 1, \"dup\": 2}",  // duplicate keys rejected
           "{\"a\" 1}",     // missing colon
           "[1 2]",         // missing comma
       }) {
    EXPECT_THROW((void)parse_json(bad), SpecError) << bad;
  }
}

TEST(ServeJson, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 40; ++i) deep += '[';
  for (int i = 0; i < 40; ++i) deep += ']';
  EXPECT_THROW((void)parse_json(deep, 32), SpecError);
  EXPECT_NO_THROW((void)parse_json(deep, 64));
}

TEST(ServeJson, AccessorsThrowOnKindMismatch) {
  const auto v = parse_json("[1]");
  EXPECT_THROW((void)v.as_object(), SpecError);
  EXPECT_THROW((void)v.as_string(), SpecError);
  EXPECT_THROW((void)v.as_array()[0].as_bool(), SpecError);
}

// ---------------------------------------------------------------------------
// Request validation and canonical form
// ---------------------------------------------------------------------------

const char* kSmallBody = R"({
  "platforms": ["system-a"],
  "scenarios": [{"name": "hour", "kind": "outdoor",
                 "duration_s": 600, "dt_s": 5}],
  "seeds": [7]
})";

TEST(ServeSpec, ParsesAValidRequest) {
  const auto req = parse_campaign_request(kSmallBody);
  ASSERT_EQ(req.platforms.size(), 1u);
  EXPECT_EQ(req.platforms[0], "system-a");
  ASSERT_EQ(req.scenarios.size(), 1u);
  EXPECT_EQ(req.scenarios[0].kind, "outdoor");
  EXPECT_DOUBLE_EQ(req.scenarios[0].duration_s, 600.0);
  EXPECT_DOUBLE_EQ(req.scenarios[0].dt_s, 5.0);
  EXPECT_EQ(req.seeds, std::vector<std::uint64_t>{7});
}

TEST(ServeSpec, SeedsSpanTheFullU64Range) {
  const auto req = parse_campaign_request(
      R"({"platforms": ["system-a"],
          "scenarios": [{"name": "s", "kind": "office", "duration_s": 10}],
          "seeds": [18446744073709551615]})");
  EXPECT_EQ(req.seeds[0], 18446744073709551615ull);
}

TEST(ServeSpec, RejectsInvalidRequests) {
  const std::vector<const char*> bad = {
      // unknown top-level key (a typo must be a 400, not an ignored knob)
      R"({"platforms": [], "scenarios": [], "seeds": [], "lanewidth": 4})",
      // unknown scenario key
      R"({"platforms": [], "seeds": [],
          "scenarios": [{"name": "s", "kind": "office", "duration_s": 1,
                         "color": "red"}]})",
      // unknown platform / kind
      R"({"platforms": ["system-z"], "scenarios": [], "seeds": []})",
      R"({"platforms": [], "seeds": [],
          "scenarios": [{"name": "s", "kind": "lunar", "duration_s": 1}]})",
      // scenario name outside the conservative alphabet
      R"({"platforms": [], "seeds": [],
          "scenarios": [{"name": "has space", "kind": "office",
                         "duration_s": 1}]})",
      // non-integral / negative seeds
      R"({"platforms": [], "scenarios": [], "seeds": [1.5]})",
      R"({"platforms": [], "scenarios": [], "seeds": [-1]})",
      // non-positive / non-finite run shape
      R"({"platforms": [], "seeds": [],
          "scenarios": [{"name": "s", "kind": "office", "duration_s": 0}]})",
      R"({"platforms": [], "seeds": [],
          "scenarios": [{"name": "s", "kind": "office", "duration_s": 10,
                         "dt_s": -1}]})",
      // duration shorter than one step
      R"({"platforms": [], "seeds": [],
          "scenarios": [{"name": "s", "kind": "office", "duration_s": 1,
                         "dt_s": 5}]})",
      // the retired lane-width knob is an unknown key like any other
      R"({"platforms": [], "scenarios": [], "seeds": [], "lane_)"
      R"(width": 8})",
      // missing required arrays
      R"({"scenarios": [], "seeds": []})",
      R"({"platforms": [], "seeds": []})",
      R"({"platforms": [], "scenarios": []})",
  };
  for (const char* body : bad)
    EXPECT_THROW((void)parse_campaign_request(body), SpecError) << body;
}

TEST(ServeSpec, EnforcesJobAndStepCapsAtParseTime) {
  const std::string body =
      R"({"platforms": ["system-a", "system-b"],
          "scenarios": [{"name": "s", "kind": "office", "duration_s": 3600}],
          "seeds": [1, 2, 3]})";
  EXPECT_NO_THROW((void)parse_campaign_request(body, 6, 1e9));
  EXPECT_THROW((void)parse_campaign_request(body, 5, 1e9), SpecError);
  EXPECT_THROW((void)parse_campaign_request(body, 6, 100.0), SpecError);
}

TEST(ServeSpec, EmptyAxesAreAValidZeroJobGrid) {
  const auto req = parse_campaign_request(
      R"({"platforms": [], "scenarios": [], "seeds": []})");
  EXPECT_TRUE(req.platforms.empty());
  const auto spec = to_campaign_spec(req, nullptr, 1);
  campaign::Campaign c(spec);
  EXPECT_TRUE(c.run().empty());
}

TEST(ServeSpec, CanonicalFormIsSpellingInvariant) {
  // Same study, hostile formatting: key order shuffled, whitespace mangled,
  // numbers respelled. One cache entry.
  const auto a = parse_campaign_request(kSmallBody);
  const auto b = parse_campaign_request(
      R"({"seeds":[7],"scenarios":[{"dt_s":5.0,)"
      R"("duration_s":6e2,"kind":"outdoor","name":"hour"}],)"
      R"("platforms":["system-a"]})");
  EXPECT_EQ(canonical_form(a), canonical_form(b));

  // And every byte-affecting field separates keys.
  auto c = a;
  c.seeds[0] = 8;
  EXPECT_NE(canonical_form(a), canonical_form(c));
  auto d = a;
  d.scenarios[0].dt_s = 1.0;
  EXPECT_NE(canonical_form(a), canonical_form(d));
  auto e = a;
  e.platforms.push_back("system-b");
  EXPECT_NE(canonical_form(a), canonical_form(e));
  auto f = a;
  f.scenarios[0].kind = "office";
  EXPECT_NE(canonical_form(a), canonical_form(f));
}

TEST(ServeSpec, KnownNamesMatchTheCatalog) {
  EXPECT_EQ(known_platforms().size(), 8u);
  EXPECT_EQ(known_scenario_kinds().size(), 4u);
  for (const auto& p : known_platforms()) {
    const auto req = parse_campaign_request(
        R"({"platforms": [")" + p +
        R"("], "scenarios": [], "seeds": []})");
    EXPECT_EQ(req.platforms[0], p);
  }
}

// ---------------------------------------------------------------------------
// SpecFuzz: fixed-seed mutations of valid bodies through both parsers
// ---------------------------------------------------------------------------

/// Valid request bodies every mutation starts from: the small body, a
/// multi-axis grid with respelled numbers and a full-range seed, an escape-
/// laden (valid) scenario name, and the empty grid.
const std::vector<std::string>& fuzz_bodies() {
  static const std::vector<std::string> bodies = {
      kSmallBody,
      R"({"platforms": ["system-a", "system-b", "system-d"],
          "scenarios": [{"name": "day", "kind": "office", "duration_s": 8.64e4,
                         "dt_s": 5.0},
                        {"name": "farm-1", "kind": "agricultural",
                         "duration_s": 3600}],
          "seeds": [0, 1, 18446744073709551615]})",
      "{\"seeds\":[3],\"scenarios\":[{\"dt_s\":1,\"duration_s\":60,"
      "\"kind\":\"indoor-industrial\",\"name\":\"\\u0061b\"}],"
      "\"platforms\":[\"system-c\"]}\r\n",
      R"({"platforms": [], "scenarios": [], "seeds": []})",
  };
  return bodies;
}

/// Uniform index below @p n.
std::size_t pick(Pcg32& rng, std::size_t n) {
  return rng.next_below(static_cast<std::uint32_t>(n));
}

/// Both parsers must either return or throw SpecError on @p body —
/// anything else (another exception type, a crash, a sanitizer report)
/// is a bug in how they treat untrusted input.
void expect_contained(const std::string& body) {
  const auto contained = [&](const char* parser, const auto& parse) {
    try {
      parse();
    } catch (const SpecError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << parser << " threw " << e.what() << " on: " << body;
    } catch (...) {
      ADD_FAILURE() << parser << " threw a non-exception on: " << body;
    }
  };
  contained("parse_json", [&] { (void)parse_json(body); });
  contained("parse_campaign_request",
            [&] { (void)parse_campaign_request(body); });
}

TEST(SpecFuzz, SeedBodiesAreValid) {
  for (const auto& body : fuzz_bodies())
    EXPECT_NO_THROW((void)parse_campaign_request(body)) << body;
}

TEST(SpecFuzz, TruncationAtEveryOffset) {
  std::size_t cases = 0;
  for (const auto& body : fuzz_bodies())
    for (std::size_t n = 0; n < body.size(); ++n, ++cases)
      expect_contained(body.substr(0, n));
  EXPECT_GT(cases, 500u);
}

TEST(SpecFuzz, ByteFlips) {
  Pcg32 rng(0xf022, 1);
  const auto& bodies = fuzz_bodies();
  for (int i = 0; i < 2500; ++i) {
    std::string body = bodies[pick(rng, bodies.size())];
    const std::uint32_t flips = 1 + rng.next_below(4);
    for (std::uint32_t k = 0; k < flips; ++k) {
      char& c = body[pick(rng, body.size())];
      // Half flip one bit, half overwrite with any byte (NUL, controls and
      // lone UTF-8 lead/continuation bytes included).
      c = rng.next_below(2) == 0
              ? static_cast<char>(c ^ (1u << rng.next_below(8)))
              : static_cast<char>(rng.next_below(256));
    }
    expect_contained(body);
  }
}

TEST(SpecFuzz, SpanDuplicationAndDeletion) {
  Pcg32 rng(0xf022, 2);
  const auto& bodies = fuzz_bodies();
  for (int i = 0; i < 2500; ++i) {
    std::string body = bodies[pick(rng, bodies.size())];
    const std::size_t at = pick(rng, body.size());
    const std::size_t len = 1 + pick(rng, body.size() - at);
    if (rng.next_below(2) == 0) {
      body.insert(at, body.substr(at, len));
    } else {
      body.erase(at, len);
    }
    expect_contained(body);
  }
}

TEST(SpecFuzz, DeepNestingIsRejectedWithoutRecursing) {
  const std::string opens(10000, '[');
  const std::string closes(10000, ']');
  for (const std::string& body :
       {opens, opens + closes, "{\"platforms\": " + opens + closes + "}",
        "{\"platforms\": " + opens})
    EXPECT_THROW((void)parse_json(body), SpecError);
  std::string objects;
  for (int i = 0; i < 10000; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)parse_json(objects), SpecError);
  expect_contained(opens + closes);
  expect_contained(objects);
}

// ---------------------------------------------------------------------------
// HttpFuzz: fixed-seed mutations of valid requests through the head parser
// ---------------------------------------------------------------------------

/// Valid requests every mutation starts from: a /metrics scrape, a
/// /healthz probe over HTTP/1.0, and a campaign POST with its body.
const std::vector<std::string>& http_requests() {
  static const std::vector<std::string> requests = {
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nAccept: */*\r\n\r\n",
      "GET /healthz HTTP/1.0\r\nUser-Agent:\tprobe/1.0 \r\n\r\n",
      "POST /v1/campaign HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/json\r\nExpect: 100-continue\r\n"
      "Content-Length: " +
          std::to_string(std::string(kSmallBody).size()) + "\r\n\r\n" +
          kSmallBody,
  };
  return requests;
}

/// The bytes HttpServer hands parse_request_head: everything before the
/// first blank line — or all of it when none arrives (the server would keep
/// reading, but the parser must cope with any bytes).
RequestHead parse_as_server(const std::string& bytes) {
  static const HttpServerOptions options;
  return parse_request_head(
      std::string_view(bytes).substr(0, bytes.find("\r\n\r\n")), options);
}

/// @p bytes must yield a request the server would serve, or one of the four
/// statuses it answers today (400/411/413/501) — nothing else: no other
/// status, no exception, no sanitizer report.
void expect_http_contained(const std::string& bytes) {
  RequestHead head;
  try {
    head = parse_as_server(bytes);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parse_request_head threw " << e.what();
    return;
  } catch (...) {
    ADD_FAILURE() << "parse_request_head threw a non-exception";
    return;
  }
  switch (head.status) {
    case 0:
      EXPECT_FALSE(head.request.method.empty());
      ASSERT_FALSE(head.request.target.empty());
      EXPECT_EQ(head.request.target.front(), '/');
      EXPECT_LE(head.content_length, HttpServerOptions{}.max_body_bytes);
      EXPECT_EQ(head.request.headers.count("transfer-encoding"), 0u);
      EXPECT_TRUE(head.request.body.empty());
      break;
    case 400:
    case 411:
    case 413:
    case 501:
      EXPECT_FALSE(head.error.empty());
      break;
    default:
      ADD_FAILURE() << "status " << head.status << " on " << bytes.size()
                    << " bytes";
  }
}

TEST(HttpFuzz, SeedRequestsParseAndErrorsKeepTheirStatus) {
  const auto& seeds = http_requests();
  const RequestHead metrics = parse_as_server(seeds[0]);
  EXPECT_EQ(metrics.status, 0);
  EXPECT_EQ(metrics.request.method, "GET");
  EXPECT_EQ(metrics.request.target, "/metrics");
  EXPECT_EQ(metrics.request.headers.at("host"), "127.0.0.1:8080");
  const RequestHead healthz = parse_as_server(seeds[1]);
  EXPECT_EQ(healthz.status, 0);
  EXPECT_EQ(healthz.request.headers.at("user-agent"), "probe/1.0");
  const RequestHead post = parse_as_server(seeds[2]);
  EXPECT_EQ(post.status, 0);
  EXPECT_EQ(post.content_length, std::string(kSmallBody).size());
  EXPECT_EQ(post.request.headers.at("expect"), "100-continue");

  const std::string max_body = std::to_string(HttpServerOptions{}.max_body_bytes);
  const std::vector<std::pair<std::string, int>> cases = {
      {"GET / HTTP/1.1\r\n\r\n", 0},
      {"GET / HTTP/2\r\n\r\n", 400},
      {"GET /\r\n\r\n", 400},
      {"GET metrics HTTP/1.1\r\n\r\n", 400},
      {" /metrics HTTP/1.1\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nno-colon\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\n: empty-name\r\n\r\n", 400},
      {"POST /v1/campaign HTTP/1.1\r\n\r\n", 411},
      {"PUT /x HTTP/1.1\r\nHost: a\r\n\r\n", 411},
      {"POST /v1/campaign HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"POST /v1/campaign HTTP/1.1\r\nContent-Length: " + max_body +
           "\r\n\r\n",
       0},
      {"POST /v1/campaign HTTP/1.1\r\nContent-Length: " + max_body +
           "1\r\n\r\n",
       413},
      {"POST /v1/campaign HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       501},
  };
  for (const auto& [bytes, status] : cases) {
    EXPECT_EQ(parse_as_server(bytes).status, status) << bytes;
    expect_http_contained(bytes);
  }
}

TEST(HttpFuzz, TruncationAtEveryOffset) {
  std::size_t cases = 0;
  for (const auto& request : http_requests())
    for (std::size_t n = 0; n < request.size(); ++n, ++cases)
      expect_http_contained(request.substr(0, n));
  EXPECT_GT(cases, 300u);
}

TEST(HttpFuzz, ByteFlips) {
  Pcg32 rng(0x4177, 1);
  const auto& requests = http_requests();
  for (int i = 0; i < 2500; ++i) {
    std::string bytes = requests[pick(rng, requests.size())];
    const std::uint32_t flips = 1 + rng.next_below(4);
    for (std::uint32_t k = 0; k < flips; ++k) {
      char& c = bytes[pick(rng, bytes.size())];
      c = rng.next_below(2) == 0
              ? static_cast<char>(c ^ (1u << rng.next_below(8)))
              : static_cast<char>(rng.next_below(256));
    }
    expect_http_contained(bytes);
  }
}

TEST(HttpFuzz, SpanDuplicationAndDeletion) {
  Pcg32 rng(0x4177, 2);
  const auto& requests = http_requests();
  for (int i = 0; i < 2500; ++i) {
    std::string bytes = requests[pick(rng, requests.size())];
    const std::size_t at = pick(rng, bytes.size());
    const std::size_t len = 1 + pick(rng, bytes.size() - at);
    if (rng.next_below(2) == 0) {
      bytes.insert(at, bytes.substr(at, len));
    } else {
      bytes.erase(at, len);
    }
    expect_http_contained(bytes);
  }
}

TEST(HttpFuzz, OverlongLinesAndOverflowingContentLength) {
  const std::string long_value(1 << 20, 'x');
  expect_http_contained("GET /" + long_value + " HTTP/1.1\r\n\r\n");
  expect_http_contained("GET / HTTP/1.1\r\nX-Long: " + long_value + "\r\n\r\n");
  expect_http_contained("GET / HTTP/1.1\r\n" + long_value + "\r\n\r\n");
  std::string many = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 10000; ++i) many += "X-" + std::to_string(i) + ": v\r\n";
  expect_http_contained(many + "\r\n");
  // 2^64 and beyond overflow the 64-bit parse: a 400, never a wrapped
  // small length. 2^64 - 1 parses and is over the body cap: a 413.
  for (const char* length :
       {"18446744073709551616", "99999999999999999999999999999999"}) {
    const std::string bytes = std::string("POST /v1/campaign HTTP/1.1\r\n") +
                              "Content-Length: " + length + "\r\n\r\n";
    EXPECT_EQ(parse_as_server(bytes).status, 400) << length;
    expect_http_contained(bytes);
  }
  EXPECT_EQ(parse_as_server("POST /v1/campaign HTTP/1.1\r\n"
                            "Content-Length: 18446744073709551615\r\n\r\n")
                .status,
            413);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

TEST(ServeResultCache, MissStoreHitDiscipline) {
  ResultCache cache;
  EXPECT_EQ(cache.load("spec-a"), nullptr);
  cache.store("spec-a", "body-a");
  const auto hit = cache.load("spec-a");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "body-a");
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.bytes, 6u);
}

TEST(ServeResultCache, OverwriteReplacesTheBody) {
  ResultCache cache;
  cache.store("k", "old");
  cache.store("k", "newer");
  EXPECT_EQ(*cache.load("k"), "newer");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().bytes, 5u);
}

TEST(ServeResultCache, EvictsLeastRecentlyUsedOverTheEntryCap) {
  ResultCache cache(/*max_entries=*/2, /*max_bytes=*/0);
  cache.store("a", "1");
  cache.store("b", "2");
  ASSERT_NE(cache.load("a"), nullptr);  // refresh a's recency
  cache.store("c", "3");                // b is now the LRU victim
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.load("a"), nullptr);
  EXPECT_EQ(cache.load("b"), nullptr);
  EXPECT_NE(cache.load("c"), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ServeResultCache, ByteCapBoundsResidency) {
  ResultCache cache(/*max_entries=*/0, /*max_bytes=*/10);
  cache.store("a", "12345");
  cache.store("b", "67890");
  cache.store("c", "abcde");  // pushes residency to 15 -> evict to <= 10
  EXPECT_LE(cache.stats().bytes, 10u);
  EXPECT_NE(cache.load("c"), nullptr);  // newest survives
}

TEST(ServeResultCache, EvictedBodyStaysValidForInFlightReaders) {
  ResultCache cache(/*max_entries=*/1, /*max_bytes=*/0);
  cache.store("a", "held body");
  const auto held = cache.load("a");
  cache.store("b", "evicts a");
  EXPECT_EQ(cache.load("a"), nullptr);
  // The shared_ptr keep-alive: the reader's view is unaffected.
  EXPECT_EQ(*held, "held body");
}

// ---------------------------------------------------------------------------
// Live daemon round-trips
// ---------------------------------------------------------------------------

struct ClientResponse {
  int status{0};
  std::map<std::string, std::string> headers;  ///< names lowercased
  std::string body;
};

/// One blocking HTTP/1.1 exchange against 127.0.0.1:@p port. The server
/// always closes, so "read to EOF" frames the response.
ClientResponse http_exchange(std::uint16_t port, const std::string& raw) {
  ClientResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string wire;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    wire.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const auto head_end = wire.find("\r\n\r\n");
  if (head_end == std::string::npos) return out;
  out.body = wire.substr(head_end + 4);
  const std::string head = wire.substr(0, head_end);
  std::size_t line_start = 0;
  bool first = true;
  while (line_start <= head.size()) {
    auto line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(line_start, line_end - line_start);
    if (first) {
      first = false;
      if (line.size() > 12) out.status = std::atoi(line.c_str() + 9);
    } else if (const auto colon = line.find(':'); colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      auto value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.erase(0, 1);
      out.headers[name] = value;
    }
    line_start = line_end + 2;
  }
  return out;
}

ClientResponse http_post(std::uint16_t port, const std::string& target,
                         const std::string& body) {
  return http_exchange(
      port, "POST " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
                "Content-Length: " + std::to_string(body.size()) +
                "\r\n\r\n" + body);
}

ClientResponse http_get(std::uint16_t port, const std::string& target) {
  return http_exchange(port,
                       "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

DaemonOptions test_options(const std::string& tag) {
  DaemonOptions options;
  options.http.port = 0;  // ephemeral
  options.http.workers = 3;
  options.campaign_threads = 2;
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("msehsim_d_" + tag);
  std::filesystem::remove_all(dir);
  options.trace_cache_dir = dir.string();
  return options;
}

class DaemonFixture : public ::testing::Test {
 protected:
  void Start(DaemonOptions options) {
    daemon_ = std::make_unique<Daemon>(std::move(options));
    daemon_->start();
  }
  void TearDown() override {
    if (daemon_) daemon_->stop();
  }
  std::unique_ptr<Daemon> daemon_;
};

TEST_F(DaemonFixture, DoublePostIsByteIdenticalWithTheSecondFromCache) {
  Start(test_options("double_post"));
  const auto first = http_post(daemon_->port(), "/v1/campaign", kSmallBody);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(first.headers.at("x-msehsim-result-cache"), "miss");
  EXPECT_NO_THROW((void)parse_json(first.body)) << first.body;

  // Different spelling of the same study: still the same cache entry.
  const auto second = http_post(
      daemon_->port(), "/v1/campaign",
      R"({"seeds":[7],"scenarios":[{"dt_s":5.0,"duration_s":6e2,)"
      R"("kind":"outdoor","name":"hour"}],"platforms":["system-a"]})");
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(second.headers.at("x-msehsim-result-cache"), "hit");
  EXPECT_EQ(first.body, second.body);  // the acceptance gate: identical bytes
  EXPECT_GE(daemon_->result_cache_stats().hits, 1u);

  // The hit is visible on the scrape, and the scrape lints clean.
  const auto metrics = http_get(daemon_->port(), "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(obs::prometheus_lint(metrics.body), "") << metrics.body;
  EXPECT_NE(metrics.body.find("msehsim_serve_result_cache_hits"),
            std::string::npos)
      << metrics.body;
}

TEST_F(DaemonFixture, MetricsStayLintCleanUnderConcurrentLoad) {
  Start(test_options("load"));
  // Mixed traffic: identical campaign posts (exercising single-flight and
  // the cache) racing metrics scrapes. Every scrape must lint clean —
  // /metrics 500s on lint failure, so status 200 alone proves it, and we
  // re-lint the body here for a readable failure.
  std::vector<std::thread> workers;
  std::vector<std::string> scrapes(4);
  for (int i = 0; i < 3; ++i) {
    workers.emplace_back([this] {
      for (int j = 0; j < 3; ++j) {
        const auto r = http_post(daemon_->port(), "/v1/campaign", kSmallBody);
        EXPECT_EQ(r.status, 200);
      }
    });
  }
  for (std::size_t i = 0; i < scrapes.size(); ++i) {
    workers.emplace_back([this, i, &scrapes] {
      const auto r = http_get(daemon_->port(), "/metrics");
      EXPECT_EQ(r.status, 200);
      scrapes[i] = r.body;
    });
  }
  for (auto& w : workers) w.join();
  for (const auto& body : scrapes)
    EXPECT_EQ(obs::prometheus_lint(body), "") << body;
  // One campaign ran; the rest were hits or coalesced waits.
  const auto s = daemon_->result_cache_stats();
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_GE(s.hits + s.misses, 9u);
}

TEST_F(DaemonFixture, ErrorPathsMapToTheRightStatusCodes) {
  auto options = test_options("errors");
  options.http.max_body_bytes = 512;
  Start(std::move(options));
  const auto port = daemon_->port();

  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  EXPECT_EQ(http_get(port, "/nope").status, 404);
  EXPECT_EQ(http_get(port, "/v1/campaign").status, 405);   // wrong method
  EXPECT_EQ(http_post(port, "/metrics", "{}").status, 405);
  EXPECT_EQ(http_post(port, "/v1/campaign", "not json").status, 400);
  EXPECT_EQ(http_post(port, "/v1/campaign", R"({"platforms": []})").status,
            400);  // missing arrays
  // Declared body over the cap: rejected before it is read.
  const std::string oversized(1024, 'x');
  EXPECT_EQ(http_post(port, "/v1/campaign", oversized).status, 413);
  // Malformed framing.
  EXPECT_EQ(http_exchange(port, "BOGUS\r\n\r\n").status, 400);
  EXPECT_EQ(http_exchange(port,
                          "POST /v1/campaign HTTP/1.1\r\n"
                          "Transfer-Encoding: chunked\r\n\r\n")
                .status,
            501);
  EXPECT_EQ(http_exchange(port, "POST /v1/campaign HTTP/1.1\r\n\r\n").status,
            411);  // missing Content-Length

  // Error traffic is still observable and the scrape still lints.
  const auto metrics = http_get(port, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(obs::prometheus_lint(metrics.body), "");
  EXPECT_NE(metrics.body.find("msehsim_serve_responses_client_error"),
            std::string::npos);
}

TEST_F(DaemonFixture, EmptyGridRequestServesAValidDocument) {
  Start(test_options("empty"));
  const auto r = http_post(daemon_->port(), "/v1/campaign",
                           R"({"platforms": [], "scenarios": [], "seeds": []})");
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_NO_THROW((void)parse_json(r.body)) << r.body;
  EXPECT_NE(r.body.find("\"jobs\": [\n  ]"), std::string::npos) << r.body;
  // Empty campaigns memoize like any other.
  const auto again = http_post(
      daemon_->port(), "/v1/campaign",
      R"({"platforms": [], "scenarios": [], "seeds": []})");
  EXPECT_EQ(again.headers.at("x-msehsim-result-cache"), "hit");
  EXPECT_EQ(r.body, again.body);
  // And the scrape carries campaign.* rows from the zero-job run.
  const auto metrics = http_get(daemon_->port(), "/metrics");
  EXPECT_EQ(obs::prometheus_lint(metrics.body), "") << metrics.body;
  EXPECT_NE(metrics.body.find("msehsim_campaign_jobs"), std::string::npos);
}

TEST_F(DaemonFixture, SharedTraceCacheServesWarmRequests) {
  Start(test_options("warm_trace"));
  // Two *different* studies over the same scenario shape: the second's
  // timelines come from the daemon's process-wide trace cache.
  (void)http_post(daemon_->port(), "/v1/campaign", kSmallBody);
  const auto r = http_post(
      daemon_->port(), "/v1/campaign",
      R"({"platforms": ["system-b"],
          "scenarios": [{"name": "renamed", "kind": "outdoor",
                         "duration_s": 600, "dt_s": 5}],
          "seeds": [7]})");
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_EQ(r.headers.at("x-msehsim-result-cache"), "miss");
  const auto metrics = http_get(daemon_->port(), "/metrics");
  // The scenario label differs but the generator identity (preset:outdoor,
  // seed 7, dt 5, 600 s) is the same — the trace cache must have hits.
  const auto pos = metrics.body.find("msehsim_trace_cache_hits_total ");
  ASSERT_NE(pos, std::string::npos) << metrics.body;
  const auto line_end = metrics.body.find('\n', pos);
  const std::string line = metrics.body.substr(pos, line_end - pos);
  const std::string value = line.substr(line.rfind(' ') + 1);
  EXPECT_NE(value, "0") << line;
}

TEST_F(DaemonFixture, RerunAfterResultEvictionIsByteIdentical) {
  // A one-entry result cache evicts A when its relabelled twin lands, so
  // the third POST recomputes A over a trace cache the relabelled request
  // already warmed. The body must still be A's first body: the document's
  // "trace_compiles" counts this campaign's slots, not the shared cache's
  // lifetime hits.
  DaemonOptions options = test_options("rerun_after_eviction");
  options.result_cache_entries = 1;
  Start(std::move(options));
  const char* body_a = R"({"platforms": ["system-b"],
      "scenarios": [{"name": "a", "kind": "outdoor",
                     "duration_s": 600, "dt_s": 5}],
      "seeds": [7, 8]})";
  const char* body_relabelled = R"({"platforms": ["system-b"],
      "scenarios": [{"name": "relabelled", "kind": "outdoor",
                     "duration_s": 600, "dt_s": 5}],
      "seeds": [7, 8]})";
  const auto first = http_post(daemon_->port(), "/v1/campaign", body_a);
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_NE(first.body.find("\"trace_compiles\": 2,"), std::string::npos)
      << first.body;
  const auto relabelled =
      http_post(daemon_->port(), "/v1/campaign", body_relabelled);
  ASSERT_EQ(relabelled.status, 200) << relabelled.body;
  const auto third = http_post(daemon_->port(), "/v1/campaign", body_a);
  ASSERT_EQ(third.status, 200) << third.body;
  EXPECT_EQ(third.headers.at("x-msehsim-result-cache"), "miss");
  EXPECT_EQ(first.body, third.body);
}

TEST_F(DaemonFixture, ScrapeHelperMatchesTheEndpointAndLintsClean) {
  Start(test_options("scrape"));
  (void)http_post(daemon_->port(), "/v1/campaign", kSmallBody);
  const auto direct = daemon_->scrape();
  EXPECT_EQ(obs::prometheus_lint(direct), "") << direct;
  for (const char* family :
       {"msehsim_serve_requests", "msehsim_serve_campaign_runs",
        "msehsim_serve_result_cache_misses", "msehsim_serve_request_latency_s",
        "msehsim_campaign_jobs"})
    EXPECT_NE(direct.find(family), std::string::npos) << family;
}

TEST(DaemonLifecycle, StopDrainsAndRestartRebinds) {
  auto options = test_options("lifecycle");
  Daemon daemon(options);
  daemon.start();
  const auto port = daemon.port();
  ASSERT_NE(port, 0);
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  daemon.stop();  // graceful drain; idempotent
  daemon.stop();
  // The port is released: a second daemon can bind it right back.
  auto again = test_options("lifecycle2");
  again.http.port = port;
  Daemon reborn(again);
  reborn.start();
  EXPECT_EQ(http_get(port, "/healthz").status, 200);
  reborn.stop();
}

// stop() racing idle workers into their wait: with the stopping flag set
// outside the queue mutex, a worker caught between its predicate check and
// its wait missed the wake-up and stop() hung joining it. The watchdog turns
// a hang into a failure instead of a stuck test binary.
TEST(HttpServerLifecycle, StartStopLoopNeverHangs) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(60), [&] { return done; })) {
      std::fprintf(stderr, "HttpServer::stop() hung: lost worker wake-up\n");
      std::abort();
    }
  });
  HttpServerOptions options;
  options.workers = 4;
  for (int i = 0; i < 2000; ++i) {
    HttpServer server(options, [](const HttpRequest&) { return HttpResponse{}; });
    server.start();
    server.stop();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  watchdog.join();
}

}  // namespace
}  // namespace msehsim::serve
