// The full compilation framework (paper Fig. 6):
//   1. partition the target graph state into subgraphs, co-optimizing a
//      depth-limited local-complementation sequence (Section IV.A) with a
//      pluggable PartitionStrategy (beam | anneal | portfolio);
//   2. compile every subgraph under flexible emitter limits
//      ne in {ne_min, ne_min+1, ne_min+2} (Section IV.B);
//   3. recombine: stem edges become anchor-anchor CZs, subcircuits are
//      Tetris-scheduled under the global emitter cap Ne_limit, and the
//      flexible-ne variants are swapped in when they shrink the makespan
//      (Section IV.C);
//   4. append the photon-local Cliffords that map the LC-transformed graph
//      state back to the exact requested |G>;
//   5. verify the result end-to-end on the stabilizer simulator.
//
// compile/pipeline.cpp runs these as five plain stage functions, each
// under one `pipeline` span and one stage_ms entry; the stage contracts are
// in its comments. Intra-compile parallelism — LC-candidate scoring in the
// partition search and the per-part subgraph fan-out — goes through an
// Executor: serial by default, a private pool when cfg.inner_threads > 0,
// or a pool the caller already owns (the BatchCompiler shares its own).
// Metrics are bit-identical at any thread count; see docs/architecture.md.
#pragma once

#include <string>

#include "compile/scheduler.hpp"
#include "compile/subgraph_compiler.hpp"
#include "compile/verify.hpp"
#include "partition/lc_partition_search.hpp"
#include "runtime/executor.hpp"

namespace epg {

struct FrameworkConfig {
  HardwareModel hw = HardwareModel::quantum_dot();
  LcPartitionConfig partition;
  SubgraphCompileConfig subgraph;
  /// Ne_limit = ceil(factor * Ne_min) unless overridden (paper uses 1.5/2).
  double ne_limit_factor = 1.5;
  std::uint32_t ne_limit_override = 0;
  bool alap_tetris = true;   ///< ablation: Tetris scheduling on/off
  bool flexible_ne = true;   ///< ablation: flexible resource constraint
  /// Cap on full re-schedules the flexible-ne improvement pass may spend
  /// (each rejected variant swap costs one schedule_parts run; on a
  /// thousands-of-parts input the uncapped loop is quadratic). 0 = no cap,
  /// the historical behavior; the scale bench/tests set a modest budget.
  /// The pass is serial either way, so any cap is deterministic.
  std::size_t flexible_ne_max_trials = 0;
  int verify_seeds = 2;      ///< 0 disables the final verification
  std::uint64_t seed = 1;
  /// Worker threads for the intra-compile executor when compile_framework
  /// builds its own (0 = serial inner pipeline). Ignored by the overload
  /// that takes an Executor. Never changes the compiled result: the
  /// searches stop on work budgets, which lanes cannot shift (only an
  /// explicitly set wall deadline could).
  std::size_t inner_threads = 0;
};

/// Wall time one pipeline stage took (diagnostic only).
struct StageTiming {
  std::string stage;
  double ms = 0.0;
};

struct FrameworkResult {
  GlobalSchedule schedule;
  PartitionOutcome partition;
  std::size_t ne_min = 0;       ///< global height-function minimum
  std::uint32_t ne_limit = 0;   ///< emitter cap handed to the scheduler
  std::size_t stem_count = 0;
  std::size_t subgraph_nodes = 0;  ///< total DFS nodes across subgraphs
  /// Distinct (part, policy, level) searches this compile ran, and how
  /// many of them hit their node or time budget. Work counters: pure
  /// functions of (target, cfg) at any lane count, kept out of result
  /// fingerprints and protocol responses.
  std::size_t level_searches = 0;
  std::size_t exhausted_searches = 0;
  /// Dangler-host stem windows deadlocked and the parts were recompiled in
  /// the anchor-only mode (diagnostic; the output is still verified).
  bool dangler_fallback = false;
  bool verified = false;
  std::string strategy;                 ///< partition strategy that ran
  std::vector<StageTiming> stage_ms;    ///< per-stage wall time

  const CircuitStats& stats() const { return schedule.stats; }
};

/// Compile with an executor built from cfg.inner_threads (0 = serial).
FrameworkResult compile_framework(const Graph& target,
                                  const FrameworkConfig& cfg);

/// Compile on a caller-supplied executor — the sharing path: the batch
/// runtime passes a view of its own pool so outer and inner fan-out draw
/// from one set of workers and never oversubscribe.
FrameworkResult compile_framework(const Graph& target,
                                  const FrameworkConfig& cfg,
                                  const Executor& exec);

}  // namespace epg
