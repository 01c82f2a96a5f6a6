#ifndef PODIUM_SERVE_SINGLE_FLIGHT_H_
#define PODIUM_SERVE_SINGLE_FLIGHT_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "podium/util/mutex.h"
#include "podium/util/result.h"
#include "podium/util/thread_annotations.h"

namespace podium::serve {

/// Request coalescing for identical concurrent work: while one caller (the
/// leader) is computing the value for a key, every other caller arriving
/// with the same key (a follower) parks until the leader finishes and then
/// shares its result — including errors, so a failing selection is not
/// retried N times in the same stampede. Once the leader finishes, the key
/// is forgotten: a later caller computes fresh (staleness is the cache's
/// concern, not ours).
///
/// The service puts this in front of the selection path so a cold-cache
/// stampede of identical requests costs one RunSelection instead of N.
class SingleFlight {
 public:
  struct Outcome {
    Status status = Status::Ok();
    std::string value;          // valid when status.ok()
    bool shared = false;        // true for followers
  };

  /// Runs `compute` if no flight for `key` is in progress (leader),
  /// otherwise blocks until the in-progress flight finishes and returns
  /// its result (follower, outcome.shared = true).
  ///
  /// `compute` runs without any SingleFlight lock held; it may block.
  Outcome Do(const std::string& key,
             const std::function<Result<std::string>()>& compute)
      PODIUM_EXCLUDES(mutex_);

  /// Test-only: runs on a follower after it joined a flight (its join is
  /// already visible on the serve.singleflight.shared counter) and before
  /// it parks, so tests can rendezvous N followers deterministically.
  void set_join_hook(std::function<void()> hook) PODIUM_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    join_hook_ = std::move(hook);
  }

 private:
  struct Flight {
    bool done = false;
    /// Callers parked on this flight; the leader moves its value out
    /// instead of copying it when there are none.
    std::size_t followers = 0;
    Status status = Status::Ok();
    std::string value;
  };

  util::Mutex mutex_{"serve.single_flight"};
  util::CondVar flight_done_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
      PODIUM_GUARDED_BY(mutex_);
  std::function<void()> join_hook_ PODIUM_GUARDED_BY(mutex_);
};

}  // namespace podium::serve

#endif  // PODIUM_SERVE_SINGLE_FLIGHT_H_
