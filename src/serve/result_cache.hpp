// Memoized campaign responses — TraceCache's discipline, one level up.
//
// env::TraceCache memoizes compiled ambient timelines; ResultCache memoizes
// whole campaign *response bodies*. The contract that makes this sound is
// the repo's oldest: results are a pure function of (platform, scenario,
// seed) — proven byte-identical across thread counts, lane widths, and
// trace-cache states — so a response is a pure function of the request's
// canonical form and the library version. Identical requests from a
// million users are one campaign run and N-1 cache hits; that dedup is the
// daemon's entire scaling story.
//
// Discipline:
//   - key = the canonical request form itself — anything that could change
//     a response byte is in it by construction (serve::canonical_form), and
//     two requests share an entry only if their canonical forms are equal,
//     so one user can never be handed another's study. No version enters
//     the key: the memo lives in memory and dies with its binary (the
//     on-disk env::TraceCache, which outlives binaries, hashes a library
//     version into its keys).
//   - bounded: max_entries / max_bytes caps evict least-recently-used
//     entries, so a daemon fed a stream of distinct specs stays flat.
//
// Bodies are handed out as shared_ptr<const string>: an eviction never
// invalidates a response another worker is still writing to its socket
// (the same keep-alive guarantee the mmap'd trace entries give readers).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace msehsim::serve {

/// Monotone counters, surfaced on /metrics as serve.result_cache.*.
struct ResultCacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t insertions{0};
  std::uint64_t evictions{0};
  std::uint64_t bytes{0};       ///< bodies currently resident
};

/// Thread-safe (internally locked) response memo.
class ResultCache {
 public:
  /// @p max_entries and @p max_bytes bound residency (0 = unbounded).
  /// Oversized single bodies (> max_bytes) are simply never cached.
  explicit ResultCache(std::size_t max_entries = 1024,
                       std::uint64_t max_bytes = 256ull << 20);

  /// Probes for the response to @p canonical. A hit returns the stored
  /// body and refreshes its recency; a miss returns nullptr.
  [[nodiscard]] std::shared_ptr<const std::string> load(
      const std::string& canonical);

  /// Memoizes @p body under @p canonical, then evicts LRU entries until
  /// back under the caps. Re-storing an existing key overwrites it.
  void store(const std::string& canonical, std::string body);

  [[nodiscard]] ResultCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const std::string> body;
    std::uint64_t last_used{0};
  };

  void evict_locked();

  std::size_t max_entries_;
  std::uint64_t max_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;  ///< by canonical form
  std::uint64_t clock_{0};
  ResultCacheStats stats_;
};

}  // namespace msehsim::serve
