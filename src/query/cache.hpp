// query::SharedCache — the shared read cache behind the query service.
//
// One cache serves every concurrent reader proc of a Service: entries are
// whole data-sieving blocks (Hints::ds_buffer_size bytes, aligned within
// the file) keyed by (path, block offset) — the path already carries the
// generation (CheckpointSeries generation bases are distinct), so the key
// is effectively (generation, file, segment).  N readers of a hot region
// cost ~1 physical fetch instead of N.
//
// The cache itself is a plain deterministic LRU byte store: all simulated
// timing (fetch cost, hit copy cost, waiter blocking, prefetch settling)
// lives in query::Service.  Entries carry the *virtual completion time* of
// the fetch that produced them so a reader hitting a still-in-flight
// prefetched block can settle to it (Proc::clock_at_least) before copying.
//
// Blocks are handed out as shared_ptr so an entry evicted mid-copy stays
// alive for the reader holding it.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/units.hpp"

namespace paramrio::query {

class SharedCache {
 public:
  using BlockData = std::shared_ptr<const std::vector<std::byte>>;

  struct Key {
    std::string path;
    std::uint64_t offset = 0;  ///< block-aligned start within the file

    bool operator<(const Key& o) const {
      if (path != o.path) return path < o.path;
      return offset < o.offset;
    }
  };

  struct Found {
    BlockData data;
    double ready_time = 0.0;  ///< virtual completion time of the fetch
  };

  explicit SharedCache(std::uint64_t capacity_bytes = 256 * MiB)
      : capacity_(capacity_bytes) {}

  /// Look a block up, counting a hit or a miss and refreshing LRU recency.
  std::optional<Found> lookup(const Key& key);

  /// Probe without touching counters or recency (prefetch planning).
  bool contains(const Key& key) const { return entries_.count(key) != 0; }

  /// Insert (or replace) a block, evicting least-recently-used entries
  /// until the new total fits the capacity.  An oversized single block is
  /// still cached alone.
  void insert(const Key& key, BlockData data, double ready_time);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t hit_bytes() const { return hit_bytes_; }
  std::uint64_t inserted_bytes() const { return inserted_bytes_; }
  std::uint64_t current_bytes() const { return current_bytes_; }
  std::uint64_t capacity_bytes() const { return capacity_; }

 private:
  struct Entry {
    BlockData data;
    double ready_time = 0.0;
    std::list<Key>::iterator lru_it;
  };

  void evict_for(std::uint64_t incoming_bytes);

  std::uint64_t capacity_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< front = most recently used

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hit_bytes_ = 0;
  std::uint64_t inserted_bytes_ = 0;
  std::uint64_t current_bytes_ = 0;
};

}  // namespace paramrio::query
