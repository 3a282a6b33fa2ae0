// Wall-clock stopwatch behind the optional wall budgets of the anytime
// searches (partition/LC search, subgraph candidate enumeration). Compiles
// stop on work, never on time, by default: every wall budget defaults to
// kUnboundedBudgetMs, and only a caller that opts into a deadline (the
// flat cells of bench_scale) makes a result depend on machine load.
#pragma once

#include <chrono>

namespace epg {

/// The default of every wall budget: large enough that no search ever
/// hits it, small enough that the double arithmetic in the budget checks
/// stays exact.
inline constexpr double kUnboundedBudgetMs = 1e15;

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(clock::now() - start_)
        .count();
  }

  bool expired(double budget_ms) const { return elapsed_ms() >= budget_ms; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace epg
