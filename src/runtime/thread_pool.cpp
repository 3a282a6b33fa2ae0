#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

#include "obs/trace.hpp"

namespace epg {

std::size_t ThreadPool::hardware_default() {
  const std::size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> helper;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this] { return stop_ || !helpers_.empty(); });
      // Every parallel_for has returned by the time the pool is destroyed,
      // so helpers left at stop are stale and drain without running fn.
      if (helpers_.empty()) return;
      helper = std::move(helpers_.front());
      helpers_.pop_front();
    }
    helper();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t max_lanes) {
  std::size_t lanes = std::min(thread_count() + 1, count);
  if (max_lanes != 0) lanes = std::min(lanes, max_lanes);
  if (lanes <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();
  // The submitting thread's trace recorder rides along so spans opened
  // inside pool lanes land in the same per-request trace. The recorder is
  // owned by the caller and may be destroyed as soon as parallel_for
  // returns, so the drain below is careful about lifetimes:
  //   * a helper that never wins an index exits without dereferencing the
  //     recorder (or `fn`) at all — late-scheduled helpers are harmless;
  //   * a helper that does win indices closes its span and uninstalls the
  //     recorder BEFORE publishing its completions, so by the time the
  //     caller's wait observes `completed == count` every recorder access
  //     happens-before the return (release on the fetch_add, acquire in
  //     the wait predicate).
  TraceRecorder* const trace = current_trace_recorder();
  auto drain = [state, count, trace, &fn] {
    std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    std::size_t claimed = 0;
    {
      ScopedTraceInstall install(trace);
      Span task_span("pool_drain", "executor");
      do {
        ++claimed;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mu);
          if (!state->error) state->error = std::current_exception();
        }
      } while ((i = state->next.fetch_add(1, std::memory_order_relaxed)) <
               count);
      task_span.arg("indices", static_cast<std::uint64_t>(claimed));
    }
    if (state->completed.fetch_add(claimed, std::memory_order_acq_rel) +
            claimed ==
        count) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->done.notify_all();
    }
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t h = 1; h < lanes; ++h) helpers_.push_back(drain);
  }
  for (std::size_t h = 1; h < lanes; ++h) wake_.notify_one();
  drain();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait(lock, [&] {
      return state->completed.load(std::memory_order_acquire) == count;
    });
    if (state->error) std::rethrow_exception(state->error);
  }
}

}  // namespace epg
