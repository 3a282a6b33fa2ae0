// Subgraph compilation (paper Section IV.B).
//
// A branch-and-bound DFS over time-reversed reduction sequences minimizes,
// lexicographically, (#disconnects  ==  emitter-emitter CZs, #swaps  ==
// measured transfers); the paper's degree heuristic orders the moves (absorb
// low-degree photons first, swap high-degree hubs into emitters). Up to six
// cheapest sequences are kept, each synthesized into a forward circuit,
// and the one with the smallest average photon-loss duration (T_loss)
// wins — the paper's two-stage selection. The search records moves, not
// ops: each kept sequence's ops come from replaying its move path on a
// fresh, logged ReductionState. Parts of at most 64 vertices search on
// one-word rows (BasicReductionState<1>), wider parts on ReductionState.
//
// Synthesis replays the reverse sequence on a tableau and *calibrates* the
// residual local Cliffords of each absorption against the expected reduced
// graph state. Every synthesized circuit is verified end-to-end against
// |G_subgraph> before it is returned.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/stats.hpp"
#include "common/stopwatch.hpp"
#include "compile/reduction.hpp"
#include "hardware/hardware_model.hpp"

namespace epg {

struct SubgraphCompileConfig {
  std::uint32_t ne_limit = 2;
  std::size_t node_budget = 40000;
  std::size_t max_lc_ops = 3;      ///< LC moves allowed inside the search
  /// Optional wall deadline per level; `node_budget` is what bounds a
  /// search by default (about 5 ms at 100-120 ns per node).
  double time_budget_ms = kUnboundedBudgetMs;
  /// Hard cap on memoization-table entries (12 bytes each). The table grows
  /// on demand and stops admitting new states at the cap, so a pathological
  /// part cannot blow memory; pruning via already-stored states keeps
  /// working. The default exceeds anything `node_budget` can insert
  /// (inserts <= nodes explored), so searches under the default budgets
  /// behave exactly as an unbounded table.
  std::size_t memo_cap = 1u << 20;
  /// Parts at or above this many vertices take the scalability path: the
  /// LC-free search only, stopping at the first reduction found, instead of
  /// the exhaustive branch-and-bound. Partitioning caps parts at g_max
  /// (single digits), so this only fires when compile_subgraph is driven
  /// directly with an oversized subgraph.
  std::size_t large_part_threshold = 24;
  HardwareModel hw = HardwareModel::quantum_dot();
  bool verify = true;  ///< tableau-check each synthesized circuit
  /// How freely boundary photons may be emitted by absorb_dangler hosts
  /// (stem CZs ride on the host in the pre-emission window) instead of
  /// requiring a dedicated anchor each. Cheaper on dense partitions;
  /// cross-part window cycles at recombination make the framework retry
  /// offending parts with stricter policies (see DanglerPolicy).
  DanglerPolicy dangler = DanglerPolicy::free_form;
};

/// Where a boundary vertex's stem CZs attach. Every boundary vertex owns
/// exactly one host record: either a dedicated *anchor* emitter created by
/// its swap (via_swap), or the worker emitter that dangler-absorbed it. The
/// stem CZ window is (end of the slot's last gate before tail_begin,
/// tail_begin); the scheduler delays tail_begin to open the window.
struct AnchorInfo {
  Vertex vertex = 0;            ///< local boundary vertex (photon id)
  std::uint32_t slot = 0;       ///< hosting emitter slot
  std::size_t init_gate = 0;    ///< index of the anchor's H init (swap only)
  std::size_t tail_begin = 0;   ///< first gate of the delayable emission tail
  bool via_swap = true;         ///< dedicated anchor vs dangler host window
};

struct SubgraphCircuit {
  Circuit circuit{0, 0};
  std::vector<AnchorInfo> anchors;
  std::uint32_t ne_used = 0;  ///< peak simultaneous emitters
  CircuitStats stats;
  std::vector<ReduceOp> ops;  ///< winning reduction sequence
};

struct SubgraphCompileResult {
  bool success = false;
  SubgraphCircuit best;
  std::size_t sequences_found = 0;
  std::size_t nodes_explored = 0;
  /// Peak memo-table occupancy across the searches (for the memory-bound
  /// regression test; never exceeds cfg.memo_cap).
  std::size_t memo_peak = 0;
  /// True when the requested ne_limit was infeasible within budget and a
  /// larger limit was used.
  bool relaxed_ne = false;
  std::uint32_t ne_limit_used = 0;
};

/// Compile at cfg.ne_limit emitters, moving up one level at a time (to at
/// most n + 1) while a level finds no reduction within budget.
SubgraphCompileResult compile_subgraph(const SubgraphSpec& spec,
                                       const SubgraphCompileConfig& cfg);

/// One level of compile_subgraph's walk: the LC-free warmup plus the full
/// branch-and-bound at exactly `ne` emitters, then synthesis (and, with
/// cfg.verify, the tableau check) of the winner. A pure function of
/// (spec, cfg, ne) that never reads cfg.ne_limit. Traced as one
/// `level_search` span (args: ne, policy, nodes, exhausted, warmup_cost,
/// cost, last_change_node; see docs/observability.md).
struct SubgraphLevelResult {
  bool success = false;
  SubgraphCircuit best;
  std::size_t sequences_found = 0;
  std::size_t nodes_explored = 0;  ///< warmup + full search
  std::size_t memo_peak = 0;
  /// The level's last search (the full one, or the warmup alone where no
  /// full search runs) hit its node or time budget before finishing, so
  /// `best` may not be the cheapest reduction.
  bool exhausted = false;
};

SubgraphLevelResult compile_subgraph_level(const SubgraphSpec& spec,
                                           const SubgraphCompileConfig& cfg,
                                           std::uint32_t ne);

/// compile_subgraph's walk over levels first_ne..last_ne, stopping at the
/// first success; `level(ne)` supplies each level's search. Node counts and
/// memo peaks accumulate over every level visited, and relaxed_ne is set
/// when the success came above first_ne. The pipeline passes a memoized
/// `level` so the walks from ne_min, +1 and +2 search each level once.
SubgraphCompileResult walk_subgraph_levels(
    std::uint32_t first_ne, std::uint32_t last_ne,
    const std::function<std::shared_ptr<const SubgraphLevelResult>(
        std::uint32_t)>& level);

/// Lower bound on the emitters needed for the subgraph (min over a few
/// natural emission orders of the height-function maximum).
std::uint32_t subgraph_ne_min(const Graph& g);

}  // namespace epg
