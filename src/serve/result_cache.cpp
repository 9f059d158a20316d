#include "serve/result_cache.hpp"

#include <algorithm>
#include <utility>

namespace msehsim::serve {

ResultCache::ResultCache(std::size_t max_entries, std::uint64_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

std::shared_ptr<const std::string> ResultCache::load(
    const std::string& canonical) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(canonical);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  it->second.last_used = ++clock_;
  ++stats_.hits;
  return it->second.body;
}

void ResultCache::store(const std::string& canonical, std::string body) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& entry = entries_[canonical];
  if (entry.body) stats_.bytes -= entry.body->size();
  entry.body = std::make_shared<const std::string>(std::move(body));
  entry.last_used = ++clock_;
  stats_.bytes += entry.body->size();
  ++stats_.insertions;
  evict_locked();
}

void ResultCache::evict_locked() {
  const auto over = [this] {
    return (max_entries_ != 0 && entries_.size() > max_entries_) ||
           (max_bytes_ != 0 && stats_.bytes > max_bytes_);
  };
  while (over() && !entries_.empty()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it)
      if (it->second.last_used < victim->second.last_used) victim = it;
    stats_.bytes -= victim->second.body->size();
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

ResultCacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace msehsim::serve
