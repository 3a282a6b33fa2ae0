// The staged compile pipeline behind compile_framework.
//
// Five stages run in order, each reading and extending one shared
// PipelineContext:
//
//   PartitionStage   — emitter budget; dispatches the configured
//                      PartitionStrategy; plans stems.
//                      writes: result.{ne_min, ne_limit, partition,
//                      stem_count, strategy}, ctx.plan
//   SubgraphStage    — per-part flexible-ne variant compilation, fanned
//                      across the executor (one part per index, reduced in
//                      index order). writes: ctx.variants,
//                      result.subgraph_nodes
//   ScheduleStage    — Tetris recombination, dangler-deadlock ladder,
//                      flexible-ne variant swaps. writes: result.schedule,
//                      result.dangler_fallback
//   CorrectionStage  — photon-local Cliffords undoing the LC sequence.
//                      appends to result.schedule
//   VerifyStage      — stabilizer end-to-end check (cfg.verify_seeds).
//                      writes: result.verified
//
// Stage contract: a stage may only consume what earlier stages produced,
// must be deterministic in (target, cfg) — executor lane count and task
// scheduling never change its output, except through a *binding*
// wall-clock budget, whose cooperative deadline truncates the anytime
// searches at a lane-speed-dependent point (machine load already has the
// same effect; lifted budgets give a hard guarantee) — and reports
// failures by throwing
// (EPG_CHECK/EPG_REQUIRE), which aborts the pipeline. run_pipeline records
// per-stage wall time in result.stage_ms.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "compile/framework.hpp"
#include "compile/stem.hpp"
#include "obs/trace.hpp"

namespace epg {

/// One subgraph compiled at every feasible flexible-ne variant, cheapest
/// (fewest ee-CZs, then shortest) first as the scheduling default.
struct PartVariants {
  std::vector<SubgraphCircuit> variants;
  std::size_t chosen = 0;
  std::size_t nodes = 0;
};

/// Exact-duplicate part memo shared by the subgraph stage and the schedule
/// stage's deadlock-ladder recompiles. Partitioning a large graph yields
/// thousands of tiny parts, many byte-identical as (adjacency, boundary)
/// specs; compile_subgraph is a pure function of (spec, cfg) — with one
/// caveat: spec.stem_key feeds the search only under the key-ordered
/// dangler policy, and only through order comparisons, so key-ordered
/// compiles are cached on rank-normalized keys (see rank_normalized in
/// pipeline.cpp) and every other policy caches on the key-free spec.
/// Threads race only on who computes a value; every contender computes
/// the identical PartVariants, so the cache never changes results at any
/// lane count.
struct PartCompileCache {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const PartVariants>> map;
  /// Single-policy level-search memo (compile_subgraph_level), keyed on
  /// (spec, policy, ne). compile_variants rebuilds each PartVariants from
  /// these levels, so every (part, policy, ne) level is searched once: the
  /// walk up from an infeasible ne_min reuses the levels the +1/+2
  /// variants start at, and the scheduler's deadlock-ladder recompiles
  /// (key-ordered outer policy) reuse the anchors-only levels the subgraph
  /// stage already paid for.
  std::unordered_map<std::string,
                     std::shared_ptr<const SubgraphLevelResult>>
      sub_map;
};

struct PipelineContext {
  const Graph& target;
  const FrameworkConfig& cfg;
  const Executor& exec;
  FrameworkResult result;
  StemPlan plan;
  std::vector<PartVariants> variants;
  SubgraphCompileConfig scfg;  ///< effective per-part config (hw applied)
  PartCompileCache part_cache;
  /// The request's trace recorder (null = tracing off). run_pipeline
  /// captures the caller's installed recorder here; stages and the
  /// executor fan-out record spans against it through the thread-local
  /// install, which ThreadPool::parallel_for forwards to its helpers.
  TraceRecorder* trace = nullptr;
};

class PipelineStage {
 public:
  virtual ~PipelineStage() = default;
  virtual std::string_view name() const = 0;
  virtual void run(PipelineContext& ctx) const = 0;
};

/// The five framework stages, in execution order.
std::vector<std::unique_ptr<PipelineStage>> make_framework_pipeline();

/// Run the staged pipeline on `exec`; equivalent to compile_framework.
FrameworkResult run_pipeline(const Graph& target, const FrameworkConfig& cfg,
                             const Executor& exec);

}  // namespace epg
