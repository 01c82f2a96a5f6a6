#include "podium/serve/single_flight.h"

#include <utility>

#include "podium/obs/metrics.h"

namespace podium::serve {

SingleFlight::Outcome SingleFlight::Do(
    const std::string& key,
    const std::function<Result<std::string>()>& compute) {
  std::shared_ptr<Flight> flight;
  std::function<void()> hook;
  bool follower = false;
  {
    util::MutexLock lock(mutex_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      // Follower: share the in-progress flight. Count the join before
      // parking so a test (or an operator watching /metrics) can observe
      // the stampede while the leader is still running.
      follower = true;
      flight = it->second;
      hook = join_hook_;
      obs::MetricsRegistry::Global()
          .counter("serve.singleflight.shared")
          .Add();
    } else {
      flight = std::make_shared<Flight>();
      flights_.emplace(key, flight);
      obs::MetricsRegistry::Global()
          .counter("serve.singleflight.leader")
          .Add();
    }
  }

  Outcome outcome;
  if (follower) {
    if (hook) hook();
    util::MutexLock lock(mutex_);
    while (!flight->done) flight_done_.Wait(lock);
    outcome.status = flight->status;
    outcome.value = flight->value;
    outcome.shared = true;
    return outcome;
  }

  Result<std::string> result = compute();

  {
    util::MutexLock lock(mutex_);
    flight->done = true;
    if (result.ok()) {
      flight->value = std::move(result).value();
    } else {
      flight->status = result.status();
    }
    outcome.status = flight->status;
    outcome.value = flight->value;  // copy: followers still need theirs
    // Forget the key: the next request for it starts a fresh flight (the
    // result cache, not SingleFlight, is where completed work lives).
    flights_.erase(key);
  }
  flight_done_.NotifyAll();
  return outcome;
}

}  // namespace podium::serve
