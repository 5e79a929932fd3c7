// Work-stealing thread pool for the sweep engine.
//
// Each worker owns a deque: its own submissions go to the front (LIFO, for
// locality of nested fork/join work), external submissions are distributed
// round-robin to the backs, and an idle worker steals from the back of a
// sibling's deque.  All deques hang off one mutex — the pool schedules
// coarse tasks (whole experiment cells / repetitions), so contention on the
// lock is negligible next to the milliseconds each task runs.
//
// Two properties the rest of the code depends on:
//  * Blocking waits help: `parallel_for` runs queued tasks while it waits,
//    so nested parallel sections (a sweep cell that parallelizes its own
//    repetitions on the same pool) cannot deadlock.
//  * Shutdown drains: the destructor runs every task that was submitted
//    before it returns — no task is lost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tv::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to at least one).
  explicit ThreadPool(unsigned threads = default_thread_count());

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Hardware concurrency, clamped to at least one.
  [[nodiscard]] static unsigned default_thread_count();

  /// Queue a callable; the returned future carries its result (or the
  /// exception it threw).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); });
    return future;
  }

  /// Run `body(i)` for every i in [0, n), blocking until all complete.
  /// Iterations are claimed from a shared atomic counter by up to
  /// `thread_count()` strands; the calling thread helps run queued tasks
  /// while it waits (safe to call from inside a pool task).  If any
  /// iteration throws, the first exception observed is rethrown after all
  /// strands finish.
  template <typename F>
  void parallel_for(std::size_t n, F&& body) {
    if (n == 0) return;
    const std::size_t strands =
        std::min<std::size_t>(n, static_cast<std::size_t>(thread_count()));
    if (strands <= 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    std::vector<std::future<void>> futures;
    futures.reserve(strands);
    for (std::size_t s = 0; s < strands; ++s) {
      futures.push_back(submit([next, n, &body] {
        for (std::size_t i = (*next)++; i < n; i = (*next)++) body(i);
      }));
    }
    std::exception_ptr error;
    for (auto& future : futures) {
      while (future.wait_for(std::chrono::seconds{0}) !=
             std::future_status::ready) {
        if (!run_pending_task()) {
          future.wait_for(std::chrono::milliseconds{1});
        }
      }
      try {
        future.get();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  }

  /// Pop and run one queued task if any is available.  Returns whether a
  /// task ran.  Callable from any thread (this is the "help" primitive).
  bool run_pending_task();

 private:
  void worker_loop(unsigned index);
  void enqueue(std::function<void()> task);
  /// Pop from the front of `home`'s deque, else steal from the back of a
  /// sibling's.  Caller must hold mu_.
  bool pop_task_locked(std::function<void()>& out, std::size_t home);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<std::function<void()>>> queues_;
  std::vector<std::thread> workers_;
  std::size_t next_queue_ = 0;
  bool stop_ = false;
};

/// Run `produce(i)` for every i in [0, n) — on `pool` when it is non-null
/// and n > 1, else serially — and hand each result to `consume` strictly
/// in index order, freeing it once consumed.  Results complete in any
/// order; the slots hold them until their predecessors are out, so a
/// sink sees the same call sequence at any thread count.  `consume` runs
/// under a lock and may update unsynchronized state.
template <typename Produce, typename Consume>
void ordered_parallel_map(ThreadPool* pool, std::size_t n, Produce&& produce,
                          Consume&& consume) {
  using Result = std::invoke_result_t<Produce&, std::size_t>;
  std::vector<std::unique_ptr<Result>> slots(n);
  std::size_t next = 0;
  std::mutex mu;
  auto run_one = [&](std::size_t i) {
    auto result = std::make_unique<Result>(produce(i));
    std::lock_guard lock{mu};
    slots[i] = std::move(result);
    while (next < n && slots[next]) {
      consume(*slots[next]);
      slots[next].reset();
      ++next;
    }
  };
  if (pool != nullptr && n > 1) {
    pool->parallel_for(n, run_one);
  } else {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  }
}

/// The runners' side of the util::Sink contract: begin(spec), then each
/// produce(i) result in index order (see ordered_parallel_map) through
/// `tally` and into sink.cell(), then end().  Returns the wall seconds.
template <typename Sink, typename Spec, typename Produce, typename Tally>
double stream_results(ThreadPool* pool, std::size_t n, const Spec& spec,
                      Sink& sink, Produce&& produce, Tally&& tally) {
  const auto t0 = std::chrono::steady_clock::now();
  sink.begin(spec);
  ordered_parallel_map(pool, n, produce, [&](const auto& result) {
    tally(result);
    sink.cell(result);
  });
  sink.end();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace tv::util
