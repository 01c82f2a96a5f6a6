#include "podium/serve/result_cache.h"

#include "podium/obs/metrics.h"

namespace podium::serve {

void ResultCache::RecordLookup(bool hit) const {
  auto& registry = obs::MetricsRegistry::Global();
  // Hoisted statics: the registry lookup takes a mutex, the Add does not.
  static obs::Counter& hits = registry.counter("serve.cache.hits");
  static obs::Counter& misses = registry.counter("serve.cache.misses");
  (hit ? hits : misses).Add();
}

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::optional<std::string> ResultCache::Get(const std::string& key) {
  if (capacity_ == 0) {
    RecordLookup(false);
    return std::nullopt;
  }
  // The lookup is recorded after mutex_ is released: the registry lookup
  // inside RecordLookup takes its own mutex, and nesting it under ours
  // pins a lock order no other registry caller is obliged to follow.
  std::optional<std::string> body;
  {
    util::MutexLock lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      body = it->second->second;
    }
  }
  RecordLookup(body.has_value());
  return body;
}

void ResultCache::Put(const std::string& key, std::string body) {
  if (capacity_ == 0) return;
  util::MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(body);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(body));
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

std::size_t ResultCache::size() const {
  util::MutexLock lock(mutex_);
  return lru_.size();
}

}  // namespace podium::serve
