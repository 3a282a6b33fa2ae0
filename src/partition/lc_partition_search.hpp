// Depth-limited LC + partition co-search — the anytime substitute for the
// paper's Gurobi MIP (Section IV.A).
//
// The search explores local-complementation sequences of length <= l; each
// candidate graph is scored by the min-cut of a (fast) balanced partition.
// Small graphs are certified with exact branch-and-bound. Setting
// max_lc_ops = 0 disables the LC transformation, which is the paper's
// Fig. 11b ablation baseline.
//
// The beam and anneal searches stop on work, not on time: every scored
// candidate charges its vertex plus edge count against
// kPartitionWorkBudget, so where a search stops is a pure function of
// (graph, config).
//
// Which *engine* explores the LC space is pluggable (see
// partition/partition_strategy.hpp): a beam search, a simulated-annealing
// chain (solver/anneal.hpp), or a seed portfolio that races restarts of
// both. `search_lc_partition` dispatches on `LcPartitionConfig::strategy`
// with a serial executor; callers with a thread pool go through the
// strategy interface directly.
#pragma once

#include <cstdint>
#include <string>

#include "common/stopwatch.hpp"
#include "partition/partition_problem.hpp"
#include "solver/partition_refine.hpp"

namespace epg {

/// Work budget of one beam or anneal search, in candidate (n + m) units,
/// checked where the beam finishes a scoring chunk and before each anneal
/// move, so truncation never depends on the lane count. Calibrated so
/// that no paper-scale compile reaches it: a 24-vertex graph at lc 4 can
/// charge at most 4 * 6 * 24 * (24 + 276) = 172 800, and the largest
/// golden-corpus entry (66 vertices) charges 465 692 at lc 15. Graphs of
/// about 100 vertices at lc 15 reach it, which bounds their search to
/// about a second of serial work.
inline constexpr std::uint64_t kPartitionWorkBudget = 600000;

struct LcPartitionConfig {
  std::size_t g_max = 7;        ///< paper's subgraph size cap
  std::size_t max_lc_ops = 15;  ///< paper's l
  std::size_t beam_width = 6;
  /// Optional wall deadline; the default never binds.
  double time_budget_ms = kUnboundedBudgetMs;
  std::uint64_t seed = 7;
  /// Restart counts for the quick (scoring) and final (polish) partitions.
  int quick_restarts = 2;
  int final_restarts = 12;
  /// Registered PartitionStrategy name: "beam" | "anneal" | "portfolio" |
  /// "multilevel" (see partition/partition_strategy.hpp).
  std::string strategy = "beam";
  /// Simulated-annealing chain length ("anneal" and portfolio members).
  int anneal_iterations = 1500;
  /// Concurrent restarts the "portfolio" strategy races.
  std::size_t portfolio_width = 4;

  // ---- "multilevel" strategy knobs (partition/multilevel.hpp) ----
  /// Graphs at or below this many vertices skip coarsening entirely and
  /// run the inner flat search on the (trivially coarsest) original.
  std::size_t coarsen_floor = 192;
  /// Flat strategy run below the floor and raced below the race limit:
  /// "beam" | "anneal" | "portfolio".
  std::string multilevel_inner = "beam";
  /// Up to this size the coarsen-refine result additionally races the
  /// inner strategy on the original graph and the better cut wins — the
  /// "multilevel never loses to the flat search" guarantee, affordable
  /// exactly while the flat search still is.
  std::size_t multilevel_race_limit = 192;
};

PartitionOutcome search_lc_partition(const Graph& g,
                                     const LcPartitionConfig& cfg);

// ---- shared building blocks of every strategy ------------------------------

/// Balanced min-cut partition with the search's solver stack: exact
/// branch-and-bound on graphs of at most 13 vertices, multi-restart
/// refinement otherwise.
PartitionLabels lc_partition_solve(const Graph& g,
                                   const LcPartitionConfig& cfg,
                                   int restarts, std::uint64_t seed);

/// Cut size of a quick (few-restart) partition — the noisy score every
/// search ranks candidate LC-transformed graphs by.
std::size_t lc_partition_quick_cut(const Graph& g,
                                   const LcPartitionConfig& cfg,
                                   std::uint64_t seed);

/// Polish a search winner with the thorough partitioner and compare it
/// against the untransformed graph polished the same way; ties prefer the
/// identity, which needs no LC correction gates. LC therefore never loses
/// to not using LC, whichever strategy produced `best_graph`.
PartitionOutcome lc_partition_finalize(const Graph& original,
                                       Graph best_graph,
                                       std::vector<Vertex> lc_sequence,
                                       const LcPartitionConfig& cfg);

}  // namespace epg
