// Thread-safe build-once memo: the first caller for a key builds the
// value, concurrent callers for the same key block on that one build,
// and every later caller gets the stored value.
//
// The build runs outside the map's lock, so callers needing other keys
// proceed in parallel.  A build that throws stores its exception, and
// every waiter (and every later caller for that key) rethrows it.
// Entries are never evicted: a returned reference stays valid for the
// map's lifetime.
//
// Waiters block on a future, not on a pool: a build must not submit work
// to a thread pool whose workers may be among its waiters.
#pragma once

#include <cstddef>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <utility>

namespace tv::util {

template <typename Key, typename Value>
class OnceMap {
 public:
  /// The value for `key`, built by `build()` (returning a Value) if no
  /// caller has asked for it yet.
  template <typename Build>
  const Value& get(const Key& key, Build&& build) {
    std::shared_future<Value> future;
    std::promise<Value> promise;
    bool builder = false;
    {
      std::lock_guard lock{mu_};
      const auto it = entries_.find(key);
      if (it != entries_.end()) {
        future = it->second;
      } else {
        builder = true;
        future = promise.get_future().share();
        entries_.emplace(key, future);
      }
    }
    if (builder) {
      try {
        promise.set_value(std::forward<Build>(build)());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();  // rethrows a build failure to every waiter.
  }

  /// Number of distinct keys built (or being built) so far.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock{mu_};
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  std::map<Key, std::shared_future<Value>> entries_;
};

}  // namespace tv::util
