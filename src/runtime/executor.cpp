#include "runtime/executor.hpp"

#include <algorithm>
#include <atomic>

#include "obs/trace.hpp"

namespace epg {

Executor::Executor(ThreadPool& pool, std::size_t max_lanes)
    : pool_(&pool), max_lanes_(max_lanes) {}

Executor::Executor(std::size_t threads)
    : owned_(threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr),
      pool_(owned_.get()) {}

std::size_t Executor::parallelism() const {
  if (pool_ == nullptr) return 1;
  const std::size_t full = pool_->thread_count() + 1;
  return max_lanes_ == 0 ? full : std::min(full, std::max<std::size_t>(
                                                     max_lanes_, 1));
}

void Executor::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  const std::size_t lanes = std::min(parallelism(), count);
  if (lanes <= 1 || pool_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  if (lanes == pool_->thread_count() + 1) {
    pool_->parallel_for(count, fn);
    return;
  }
  // Capped fan-out on a wider shared pool: `lanes` lane tasks claim
  // indices from one shared counter, so at most that many run at once, a
  // slow index holds up only its own lane, and each index runs exactly
  // once.
  std::atomic<std::size_t> next{0};
  pool_->parallel_for(lanes, [&](std::size_t lane) {
    Span span("executor_chunk", "executor");
    span.arg("lane", static_cast<std::uint64_t>(lane));
    std::uint64_t ran = 0;
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                        count;
         ++ran)
      fn(i);
    span.arg("indices", ran);
  });
}

const Executor& Executor::serial() {
  static const Executor instance;
  return instance;
}

}  // namespace epg
