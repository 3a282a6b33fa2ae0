// Thread pool — the execution substrate of the batch compilation runtime.
//
// The pool has one operation: `parallel_for`, a deterministic indexed
// fan-out. A call pushes up to `lanes - 1` helper closures onto one shared
// FIFO; the caller and every helper that a worker picks up claim indices
// from the call's own atomic counter until it runs out. Because the caller
// always participates, the call is safe from inside a pool task (nested
// fan-outs never deadlock) and on a pool with zero threads (it then simply
// runs serially on the caller). A helper that a worker picks up after its
// call has returned finds the counter exhausted and exits at once.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace epg {

class ThreadPool {
 public:
  /// Worker threads this machine supports (>= 1).
  static std::size_t hardware_default();

  /// `threads` is the exact worker count; 0 is allowed and makes
  /// parallel_for a serial loop on the caller.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Run fn(0..count-1) on at most `max_lanes` concurrent lanes (0 means
  /// thread_count() + 1: every worker plus the calling thread, which always
  /// participates). Indices are claimed atomically, so each runs exactly
  /// once and a slow index holds up only its own lane. Exceptions thrown by
  /// `fn` propagate to the caller (the first one wins; remaining indices
  /// still run).
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t max_lanes = 0);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable wake_;               // workers sleep here
  std::deque<std::function<void()>> helpers_;  // guarded by mu_
  bool stop_ = false;                          // guarded by mu_
  std::vector<std::thread> workers_;           // last: they use the above
};

}  // namespace epg
