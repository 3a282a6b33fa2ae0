#include "runtime/executor.hpp"

#include <algorithm>

namespace epg {

Executor::Executor(ThreadPool& pool, std::size_t max_lanes)
    : pool_(&pool), max_lanes_(max_lanes) {}

Executor::Executor(std::size_t threads)
    : owned_(threads > 0 ? std::make_unique<ThreadPool>(threads) : nullptr),
      pool_(owned_.get()) {}

std::size_t Executor::parallelism() const {
  if (pool_ == nullptr) return 1;
  const std::size_t full = pool_->thread_count() + 1;
  return max_lanes_ == 0 ? full : std::min(full, max_lanes_);
}

void Executor::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool_->parallel_for(count, fn, max_lanes_);
}

const Executor& Executor::serial() {
  static const Executor instance;
  return instance;
}

}  // namespace epg
