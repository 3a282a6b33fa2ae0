// Simulated annealing, the second MIP-substitute engine (Section IV.A).
//
// Two layers: a generic driver (`anneal<S>`) that ablation benches can
// plug alternative objectives into, and the concrete LC/partition
// co-search chain behind the "anneal" PartitionStrategy —
// `search_lc_partition_anneal` walks the space of local-complementation
// sequences with append / pop / replace moves, scoring each visited graph
// by its quick balanced-partition cut. Local complementation is an
// involution, so every move (and every rejection) is undone in O(deg^2)
// without recomputing the graph from scratch.
#pragma once

#include <cmath>
#include <functional>
#include <utility>

#include "common/rng.hpp"
#include "partition/lc_partition_search.hpp"
#include "runtime/executor.hpp"

namespace epg {

struct AnnealSchedule {
  double temp_start = 2.0;
  double temp_end = 0.02;
  int iterations = 4000;
};

/// Probability of accepting a move with energy delta at temperature t.
double anneal_acceptance(double delta, double temperature);

/// LC + partition co-search by simulated annealing: a single deterministic
/// chain of cfg.anneal_iterations moves seeded by cfg.seed, truncated
/// before the move at which kPartitionWorkBudget (or an optional
/// cfg.time_budget_ms deadline) is spent. The winner is polished and
/// compared against the untransformed graph exactly like the beam search
/// (lc_partition_finalize), so the anneal engine also never loses to not
/// using LC. The chain itself is inherently sequential; `exec` is accepted
/// for interface symmetry and future multi-chain variants (the portfolio
/// strategy races whole chains instead).
PartitionOutcome search_lc_partition_anneal(const Graph& g,
                                            const LcPartitionConfig& cfg,
                                            const Executor& exec);

/// Minimizes `energy` over states of type S. `neighbor` proposes a mutated
/// copy. Returns the best state seen.
template <typename S>
S anneal(S initial, const std::function<double(const S&)>& energy,
         const std::function<S(const S&, Rng&)>& neighbor, Rng& rng,
         const AnnealSchedule& schedule = {}) {
  S current = initial;
  double current_e = energy(current);
  S best = current;
  double best_e = current_e;
  for (int i = 0; i < schedule.iterations; ++i) {
    const double frac =
        schedule.iterations <= 1
            ? 1.0
            : static_cast<double>(i) / (schedule.iterations - 1);
    const double temp = schedule.temp_start *
                        std::pow(schedule.temp_end / schedule.temp_start,
                                 frac);
    S candidate = neighbor(current, rng);
    const double cand_e = energy(candidate);
    if (rng.chance(anneal_acceptance(cand_e - current_e, temp))) {
      current = std::move(candidate);
      current_e = cand_e;
      if (current_e < best_e) {
        best = current;
        best_e = current_e;
      }
    }
  }
  return best;
}

}  // namespace epg
