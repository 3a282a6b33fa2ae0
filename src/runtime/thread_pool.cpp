#include "runtime/thread_pool.hpp"

#include <exception>

#include "obs/trace.hpp"

namespace epg {

namespace {

// Identifies the pool/worker the current thread belongs to, so submit()
// can push to the local deque and parallel_for can detect re-entrancy.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_worker_id = 0;

}  // namespace

std::size_t ThreadPool::hardware_default() {
  const std::size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(std::size_t threads) {
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(wake_mu_);  // same window as submit()
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() const { return tls_pool == this; }

void ThreadPool::submit(std::function<void()> task) {
  if (queues_.empty()) {  // zero-worker pool: degrade to inline execution
    task();
    return;
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t target =
      on_worker_thread()
          ? tls_worker_id
          : round_robin_.fetch_add(1, std::memory_order_relaxed) %
                queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  // Publish under wake_mu_: a worker that has just found queued_ == 0 in
  // its wait predicate holds wake_mu_ until it blocks, so an unlocked
  // increment + notify could land in that window and be lost, leaving the
  // task queued with every worker asleep (and wait_idle() blocked on it).
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    queued_.fetch_add(1, std::memory_order_acq_rel);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_acquire(std::size_t self, std::function<void()>& out) {
  // Own deque first, newest task (LIFO keeps nested work depth-first)...
  {
    WorkerQueue& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  // ...then steal the oldest task from the first non-empty victim.
  for (std::size_t k = 1; k < queues_.size(); ++k) {
    WorkerQueue& q = *queues_[(self + k) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t id) {
  tls_pool = this;
  tls_worker_id = id;
  std::function<void()> task;
  while (true) {
    if (try_acquire(id, task)) {
      task();
      task = nullptr;
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(wake_mu_);
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || thread_count() == 0) {
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
  // inside pool tasks land in the same per-request trace. The recorder is
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
    }
    if (state->completed.fetch_add(claimed, std::memory_order_acq_rel) +
            claimed ==
        count) {
      std::lock_guard<std::mutex> lock(state->mu);
      state->done.notify_all();
    }
  };
  const std::size_t helpers = std::min(thread_count(), count - 1);
  for (std::size_t h = 0; h < helpers; ++h) submit(drain);
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
