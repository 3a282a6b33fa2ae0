// Pluggable engines for the LC + partition co-search (paper Section IV.A).
//
// The partition stage of the compile pipeline is the point where
// graph-state compilers differentiate (GraphiQ explores alternative
// circuit-design strategies, OneQ restructures the whole flow), so the
// engine is a first-class interface looked up by name from a fixed table
// rather than a hardwired function. The four built-ins:
//
//   "beam"      — depth-limited beam search over LC sequences; candidate
//                 quick-scores are fanned across the executor with
//                 per-candidate derived seeds and index-based tie-breaks,
//                 so the result is bit-identical at any lane count.
//   "anneal"    — simulated-annealing chain over LC sequences
//                 (solver/anneal.hpp), exploiting that local
//                 complementation is an involution for O(1) undo moves.
//   "portfolio" — races `portfolio_width` independently seeded beam and
//                 anneal restarts across the executor and keeps the best
//                 cut (ties broken by slot index, deterministically).
//   "multilevel"— heavy-edge-matching coarsening, coarsest-level packing,
//                 per-level boundary refinement and LC-aware local moves
//                 (partition/multilevel.hpp, docs/scaling.md) — the tier
//                 that scales to 10k-100k vertices where the flat
//                 searches above stall; below `coarsen_floor` it simply
//                 delegates to the configured inner flat strategy.
//
// Contract for every strategy: the returned outcome's `transformed` graph
// is reachable from `g` via `lc_sequence` with at most cfg.max_lc_ops
// moves, labels respect g_max, and the result depends only on
// (g, cfg) — never on the executor's lane count or on scheduling order.
// The flat searches stop on kPartitionWorkBudget; an optional wall
// deadline (cfg.time_budget_ms, unbounded by default) is honored at the
// same cooperative checkpoints and is the only way load can shape a
// result.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "partition/lc_partition_search.hpp"
#include "runtime/executor.hpp"

namespace epg {

class PartitionStrategy {
 public:
  virtual ~PartitionStrategy() = default;
  virtual std::string_view name() const = 0;
  virtual PartitionOutcome run(const Graph& g, const LcPartitionConfig& cfg,
                               const Executor& exec) const = 0;
};

/// Look up a built-in strategy; nullptr when unknown. The returned pointer
/// stays valid for the process lifetime. Thread-safe.
const PartitionStrategy* find_partition_strategy(std::string_view name);

/// The built-in names, sorted. Thread-safe.
std::vector<std::string> partition_strategy_names();

}  // namespace epg
