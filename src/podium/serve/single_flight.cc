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
      ++flight->followers;
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
    // Forget the key: the next request for it starts a fresh flight (the
    // result cache, not SingleFlight, is where completed work lives). No
    // follower can join once the key is gone, so with none joined yet the
    // value is the leader's alone.
    flights_.erase(key);
    if (flight->followers == 0) {
      outcome.value = std::move(flight->value);
    } else {
      outcome.value = flight->value;  // copy: followers still need theirs
    }
  }
  flight_done_.NotifyAll();
  return outcome;
}

}  // namespace podium::serve
