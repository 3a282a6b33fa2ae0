// Executor — the handle through which the compile pipeline expresses
// intra-compile parallelism without owning (or even knowing about) a
// specific thread pool.
//
// Three flavors share one interface:
//   * serial          — no pool; parallel_for degenerates to a plain loop.
//   * borrowing       — wraps a ThreadPool owned by someone else (the
//                       BatchCompiler hands its own pool to every inner
//                       pipeline, so batch-level and compile-level fan-out
//                       share one set of workers and never oversubscribe;
//                       nested parallel_for is safe because the caller
//                       always participates).
//   * owning          — spins up a private pool, for standalone
//                       compile_framework calls with inner_threads > 0.
//
// A borrowing executor can additionally cap its fan-out at `max_lanes`
// concurrent lanes, which it passes to ThreadPool::parallel_for: a wide
// shared pool then runs at most that many lanes of this executor's work at
// once. Every flavor runs fn(i) exactly once per index — callers that keep
// per-index state and reduce in index order are bit-identical at any lane
// count.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "runtime/thread_pool.hpp"

namespace epg {

class Executor {
 public:
  /// Serial executor: parallel_for(count, fn) is a plain indexed loop.
  Executor() = default;

  /// Borrow `pool` (not owned; must outlive this executor). `max_lanes`
  /// caps total concurrency (pool workers + caller); 0 means no cap.
  explicit Executor(ThreadPool& pool, std::size_t max_lanes = 0);

  /// Own a private pool of `threads` workers (0 workers = serial).
  explicit Executor(std::size_t threads);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Total concurrent lanes parallel_for can use (>= 1; the calling
  /// thread always counts as one lane).
  std::size_t parallelism() const;

  /// Run fn(0..count-1), each index exactly once. Exceptions propagate to
  /// the caller (first one wins). Safe to call from inside a task running
  /// on the underlying pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) const;

  /// Process-wide serial executor, for callers that need a default.
  static const Executor& serial();

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_ = nullptr;
  std::size_t max_lanes_ = 0;  // 0 = uncapped
};

}  // namespace epg
