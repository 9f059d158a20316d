#include "env/trace_cache.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace msehsim::env {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'M', 'S', 'E', 'H', 'T', 'R', 'C', '1'};

/// Part of the invalidation key: a new library release may change any
/// generator's numerics, so old entries must stop matching. Keep in sync
/// with the CMake project version.
constexpr const char* kLibraryVersion = "msehsim/1.0.0";

/// On-disk header, 64 bytes, naturally aligned little-endian PODs (the
/// simulator only targets little-endian; a foreign-endian file fails the
/// magic-adjacent sanity checks and degrades to a miss).
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t channel_mask;
  std::uint64_t key_hash;
  std::uint64_t steps;
  double dt;
  double duration;
  std::uint32_t desc_len;
  std::uint32_t payload_offset;
  std::uint64_t payload_bytes;
};
static_assert(sizeof(FileHeader) == 64, "header layout is part of the format");

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof(v)); }

/// Length-prefixed so adjacent strings cannot alias ("ab"+"c" vs "a"+"bc").
void fnv_string(std::uint64_t& h, std::string_view s) {
  fnv_u64(h, s.size());
  fnv_bytes(h, s.data(), s.size());
}

std::string hex16(std::uint64_t v) {
  char buf[17] = {};
  char* p = std::to_chars(buf, buf + 16, v, 16).ptr;
  std::string digits(buf, p);
  return std::string(16 - digits.size(), '0') + digits;
}

std::size_t round_up8(std::size_t n) { return (n + 7u) & ~std::size_t{7}; }

}  // namespace

TraceCache::TraceCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  sweep_orphaned_temps();
}

void TraceCache::sweep_orphaned_temps() {
  // A writer that crashed between ofstream and rename() leaves a
  // `<hash>.tmp.<pid>.<n>` file behind forever: it never matches the
  // `.mtrc` probe, so nothing would otherwise reclaim it. Sweep such
  // orphans when a cache opens the directory AND on every eviction pass —
  // a long-lived daemon opens its cache once and then runs for months, so
  // an open-only sweep would let crashed writers leak tmp files for the
  // life of the process. An age floor keeps a live writer in another
  // process safe — a store takes milliseconds, so anything older than the
  // floor can only be an orphan.
  constexpr auto kOrphanAge = std::chrono::minutes(15);
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (de.path().filename().string().find(".tmp.") == std::string::npos)
      continue;
    std::error_code fec;
    const auto mtime = de.last_write_time(fec);
    if (fec) continue;
    if (fs::file_time_type::clock::now() - mtime < kOrphanAge) continue;
    fs::remove(de.path(), fec);
  }
}

std::uint64_t TraceCache::key_hash(const TraceCacheKey& key) {
  std::uint64_t h = kFnvOffset;
  fnv_string(h, kLibraryVersion);
  fnv_u64(h, kFormatVersion);
  fnv_u64(h, CompiledTrace::kChannelCount);
  for (const char* name : CompiledTrace::channel_names()) fnv_string(h, name);
  fnv_string(h, key.scenario);
  fnv_u64(h, key.seed);
  fnv_u64(h, std::bit_cast<std::uint64_t>(key.dt.value()));
  fnv_u64(h, std::bit_cast<std::uint64_t>(key.duration.value()));
  return h;
}

std::string TraceCache::entry_path(const TraceCacheKey& key) const {
  return (fs::path(dir_) / (hex16(key_hash(key)) + ".mtrc")).string();
}

std::shared_ptr<const CompiledTrace> TraceCache::load(const TraceCacheKey& key) {
  obs::Span span{"env.trace_cache.probe", "env"};
  const auto miss = [this]() -> std::shared_ptr<const CompiledTrace> {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return nullptr;
  };

  const std::string path = entry_path(key);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return miss();

  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
      static_cast<std::size_t>(st.st_size) < sizeof(FileHeader)) {
    ::close(fd);
    return miss();
  }
  const auto file_bytes = static_cast<std::size_t>(st.st_size);

  void* base = nullptr;
  {
    obs::Span map_span{"env.trace_cache.map", "env"};
    base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  ::close(fd);
  if (base == MAP_FAILED) return miss();
  // From here the mapping's lifetime rides on this shared_ptr: validation
  // failures just drop it, and a successful load hands it to the trace.
  std::shared_ptr<const void> backing(
      base, [file_bytes](const void* p) {
        ::munmap(const_cast<void*>(p), file_bytes);
      });
  const auto* bytes = static_cast<const unsigned char*>(base);

  FileHeader h{};
  std::memcpy(&h, bytes, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) return miss();
  if (h.version != kFormatVersion) return miss();
  if (h.key_hash != key_hash(key)) return miss();
  if (h.steps == 0 || h.channel_mask >= (1u << CompiledTrace::kChannelCount))
    return miss();
  // A zero-length payload (no channels present) carries no samples: treat
  // it as a miss rather than hand playback an all-elided trace.
  if (h.channel_mask == 0 || h.payload_bytes == 0) return miss();
  const auto present =
      static_cast<std::size_t>(std::popcount(h.channel_mask));
  if (h.payload_offset % 8 != 0 ||
      h.payload_offset < sizeof(FileHeader) + h.desc_len)
    return miss();
  if (h.payload_bytes != present * h.steps * sizeof(double)) return miss();
  if (file_bytes != h.payload_offset + h.payload_bytes) return miss();
  if (!(h.dt > 0.0) || !(h.duration > 0.0)) return miss();

  std::shared_ptr<CompiledTrace> trace(new CompiledTrace());
  trace->dt_ = Seconds{h.dt};
  trace->duration_ = Seconds{h.duration};
  trace->steps_ = h.steps;
  trace->description_.assign(
      reinterpret_cast<const char*>(bytes + sizeof(FileHeader)), h.desc_len);
  const double* payload =
      reinterpret_cast<const double*>(bytes + h.payload_offset);
  std::size_t next = 0;
  for (int ch = 0; ch < CompiledTrace::kChannelCount; ++ch) {
    if (h.channel_mask & (1u << ch))
      trace->view_[static_cast<std::size_t>(ch)] = payload + (next++) * h.steps;
  }
  trace->backing_ = std::move(backing);
  trace->mapped_bytes_ = file_bytes;

  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    stats_.bytes_mapped += file_bytes;
  }
  return trace;
}

void TraceCache::store(const TraceCacheKey& key, const CompiledTrace& trace) {
  obs::Span span{"env.trace_cache.write", "env"};
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return;

  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kFormatVersion;
  h.key_hash = key_hash(key);
  h.steps = trace.step_count();
  h.dt = trace.dt().value();
  h.duration = trace.duration().value();
  for (int ch = 0; ch < CompiledTrace::kChannelCount; ++ch)
    if (trace.channel(ch) != nullptr) h.channel_mask |= 1u << ch;
  const std::string& desc = trace.description();
  h.desc_len = static_cast<std::uint32_t>(desc.size());
  h.payload_offset =
      static_cast<std::uint32_t>(round_up8(sizeof(FileHeader) + desc.size()));
  h.payload_bytes = static_cast<std::uint64_t>(
                        std::popcount(h.channel_mask)) *
                    h.steps * sizeof(double);
  // Never persist an entry load() would reject: an all-elided or empty
  // trace has a zero-length payload, which reads back as a miss anyway.
  if (h.payload_bytes == 0) return;

  // Unique temp name per (entry, process, attempt): a concurrent writer of
  // the same entry must never interleave into one temp file. rename() then
  // publishes the finished bytes atomically.
  static std::atomic<std::uint64_t> counter{0};
  const fs::path final_path = entry_path(key);
  const fs::path tmp_path =
      fs::path(dir_) / (hex16(h.key_hash) + ".tmp." +
                        std::to_string(::getpid()) + "." +
                        std::to_string(counter.fetch_add(1)));

  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out.write(desc.data(), static_cast<std::streamsize>(desc.size()));
    const std::size_t pad = h.payload_offset - sizeof(FileHeader) - desc.size();
    static constexpr char zeros[8] = {};
    out.write(zeros, static_cast<std::streamsize>(pad));
    for (int ch = 0; ch < CompiledTrace::kChannelCount; ++ch) {
      const double* v = trace.channel(ch);
      if (v == nullptr) continue;
      out.write(reinterpret_cast<const char*>(v),
                static_cast<std::streamsize>(trace.step_count() *
                                             sizeof(double)));
    }
    out.flush();
    if (!out.good()) {
      out.close();
      fs::remove(tmp_path, ec);
      return;
    }
  }

  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return;
  }
  evict_over_cap();
}

void TraceCache::evict_over_cap() {
  // The eviction pass doubles as the steady-state orphan reaper: it already
  // runs after every store and already walks the directory, so stale temps
  // are reclaimed for the whole life of a long-running process, not just at
  // open. Runs before the cap check — an unbounded cache still reaps.
  sweep_orphaned_temps();
  if (max_bytes_ == 0) return;
  struct Entry {
    fs::path path;
    std::uint64_t bytes;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (de.path().extension() != ".mtrc") continue;
    std::error_code fec;
    const auto bytes = de.file_size(fec);
    if (fec) continue;
    const auto mtime = de.last_write_time(fec);
    if (fec) continue;
    entries.push_back({de.path(), bytes, mtime});
    total += bytes;
  }
  if (ec || total <= max_bytes_) return;
  // Oldest-first; ties broken by path so eviction order is deterministic.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  });
  for (const auto& e : entries) {
    if (total <= max_bytes_) break;
    std::error_code rec;
    if (fs::remove(e.path, rec) && !rec) {
      total -= e.bytes;
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.evictions;
    }
  }
}

TraceCacheStats TraceCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace msehsim::env
