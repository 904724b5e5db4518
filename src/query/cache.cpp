#include "query/cache.hpp"

namespace paramrio::query {

std::optional<SharedCache::Found> SharedCache::lookup(const Key& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  hit_bytes_ += it->second.data->size();
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return Found{it->second.data, it->second.ready_time};
}

void SharedCache::insert(const Key& key, BlockData data, double ready_time) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    current_bytes_ -= it->second.data->size();
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  evict_for(data->size());
  inserted_bytes_ += data->size();
  current_bytes_ += data->size();
  lru_.push_front(key);
  Entry e;
  e.data = std::move(data);
  e.ready_time = ready_time;
  e.lru_it = lru_.begin();
  entries_.emplace(key, std::move(e));
}

void SharedCache::evict_for(std::uint64_t incoming_bytes) {
  while (!entries_.empty() && current_bytes_ + incoming_bytes > capacity_) {
    const Key& victim = lru_.back();
    auto it = entries_.find(victim);
    current_bytes_ -= it->second.data->size();
    ++evictions_;
    entries_.erase(it);
    lru_.pop_back();
  }
}

}  // namespace paramrio::query
