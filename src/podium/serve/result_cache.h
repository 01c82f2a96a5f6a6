#ifndef PODIUM_SERVE_RESULT_CACHE_H_
#define PODIUM_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"

namespace podium::serve {

/// LRU cache of serialized response bodies keyed by CanonicalRequestKey.
/// Keys embed the snapshot generation, so a snapshot swap invalidates
/// entries implicitly: stale generations stop being looked up and age out
/// of the LRU list. Thread-safe; every hit/miss is recorded on the
/// "serve.cache.hits" / "serve.cache.misses" counters.
class ResultCache {
 public:
  /// `capacity` = maximum number of entries; 0 disables caching (every
  /// Get misses, Put is a no-op).
  explicit ResultCache(std::size_t capacity);

  /// The cached body for `key`, refreshing its recency, or nullopt.
  std::optional<std::string> Get(const std::string& key)
      PODIUM_EXCLUDES(mutex_);

  /// Inserts (or refreshes) `key`, evicting least-recently-used entries
  /// beyond capacity.
  void Put(const std::string& key, std::string body) PODIUM_EXCLUDES(mutex_);

  std::size_t size() const PODIUM_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<std::string, std::string>;  // key, body

  /// Records a hit/miss on the metrics registry. The registry has its
  /// own mutex, and the repo's lock hierarchy forbids nesting it under
  /// mutex_ (PR 4 removed exactly that nesting) — PODIUM_EXCLUDES makes
  /// the rule a compile error instead of a review comment.
  void RecordLookup(bool hit) const PODIUM_EXCLUDES(mutex_);

  const std::size_t capacity_;
  mutable util::Mutex mutex_{"serve.result_cache"};
  std::list<Entry> lru_ PODIUM_GUARDED_BY(mutex_);  // front = MRU
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      PODIUM_GUARDED_BY(mutex_);
};

}  // namespace podium::serve

#endif  // PODIUM_SERVE_RESULT_CACHE_H_
