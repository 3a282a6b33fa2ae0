#include "compile/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "graph/csr.hpp"
#include "graph/local_complement.hpp"
#include "graph/metrics.hpp"
#include "partition/partition_strategy.hpp"

namespace epg {
namespace {

std::vector<Vertex> natural_order(const Graph& g) {
  std::vector<Vertex> order(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) order[v] = v;
  return order;
}

std::string part_cache_key(const SubgraphSpec& spec,
                           const SubgraphCompileConfig& cfg,
                           std::uint32_t ne_cap);

PartVariants compile_variants(const SubgraphSpec& spec,
                              const SubgraphCompileConfig& base,
                              std::uint32_t ne_cap,
                              PartCompileCache& cache) {
  PartVariants out;
  const std::uint32_t ne_min = subgraph_ne_min(spec.graph);
  const bool has_boundary =
      std::find(spec.boundary.begin(), spec.boundary.end(), true) !=
      spec.boundary.end();
  const auto last_ne =
      static_cast<std::uint32_t>(spec.graph.vertex_count()) + 1;
  // Each variant is compile_subgraph(ne_min + extra), rebuilt from
  // per-(policy, level) searches in the sub-compile memo. A walk that moves
  // up from an infeasible ne_min reuses the levels the later variants start
  // at, and a part recompiled under a different outer policy (the deadlock
  // ladder) shares every level it has in common with the original compile
  // — in particular the anchors-only levels, which do not read stem keys
  // and so cache identically under every outer policy.
  auto cached_level = [&](const SubgraphCompileConfig& cfg,
                          std::uint32_t ne) {
    const std::string key = part_cache_key(spec, cfg, ne);
    {
      std::lock_guard<std::mutex> lock(cache.mu);
      if (auto it = cache.sub_map.find(key); it != cache.sub_map.end())
        return it->second;
    }
    auto fresh = std::make_shared<const SubgraphLevelResult>(
        compile_subgraph_level(spec, cfg, ne));
    std::lock_guard<std::mutex> lock(cache.mu);
    return cache.sub_map.try_emplace(key, std::move(fresh)).first->second;
  };
  auto add_variants = [&](const SubgraphCompileConfig& policy_cfg) {
    for (std::uint32_t extra = 0; extra < 3; ++extra) {
      const std::uint32_t ne = ne_min + extra;
      if (extra > 0 && ne > ne_cap) break;
      SubgraphCompileResult r =
          walk_subgraph_levels(ne, last_ne, [&](std::uint32_t level) {
            return cached_level(policy_cfg, level);
          });
      out.nodes += r.nodes_explored;
      if (!r.success) continue;
      const bool duplicate = std::any_of(
          out.variants.begin(), out.variants.end(),
          [&](const SubgraphCircuit& v) {
            return v.ne_used == r.best.ne_used &&
                   v.stats.ee_cnot_count == r.best.stats.ee_cnot_count &&
                   v.stats.makespan_ticks == r.best.stats.makespan_ticks;
          });
      if (!duplicate) out.variants.push_back(std::move(r.best));
    }
  };
  add_variants(base);
  // Dangler hosting serializes stem CZs on shared wires; the anchors-only
  // compilation trades (possibly) more ee-CZs for parallel stem windows.
  // Offer it as an alternative so the makespan-driven variant swap in the
  // scheduler can pick whichever shape wins globally.
  if (has_boundary && base.dangler.cap != 0) {
    SubgraphCompileConfig anchors = base;
    anchors.dangler = DanglerPolicy::anchors_only();
    add_variants(anchors);
  }
  EPG_CHECK(!out.variants.empty(), "subgraph compilation failed");
  // Default pick: fewest ee-CZs, then shortest duration.
  std::size_t best = 0;
  for (std::size_t i = 1; i < out.variants.size(); ++i) {
    const auto key = [](const SubgraphCircuit& c) {
      return std::make_pair(c.stats.ee_cnot_count, c.stats.makespan_ticks);
    };
    if (key(out.variants[i]) < key(out.variants[best])) best = i;
  }
  out.chosen = best;
  return out;
}

/// Cache key: the byte-exact (adjacency, boundary, policy, ne_cap) tuple,
/// plus the stem keys when the key-ordered policy reads them (callers
/// normalize those to ranks first — see rank_normalized below).
std::string part_cache_key(const SubgraphSpec& spec,
                           const SubgraphCompileConfig& cfg,
                           std::uint32_t ne_cap) {
  const Graph& g = spec.graph;
  const auto n = static_cast<std::uint64_t>(g.vertex_count());
  std::string key;
  key.reserve(16 + n * g.words_per_row() * 8 + n * 5);
  key.append(reinterpret_cast<const char*>(&n), sizeof n);
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    key.append(reinterpret_cast<const char*>(g.row(v)),
               g.words_per_row() * 8);
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    key.push_back(spec.boundary[v] ? 1 : 0);
  key.append(reinterpret_cast<const char*>(&cfg.dangler.cap),
             sizeof cfg.dangler.cap);
  key.push_back(cfg.dangler.key_order ? 1 : 0);
  if (cfg.dangler.key_order)
    key.append(reinterpret_cast<const char*>(spec.stem_key.data()),
               spec.stem_key.size() * sizeof(std::uint32_t));
  key.append(reinterpret_cast<const char*>(&ne_cap), sizeof ne_cap);
  return key;
}

/// Rewrite a spec's stem keys as their dense ranks among the part's
/// boundary keys (must_swap preserved, never-read non-boundary keys
/// zeroed). The search consumes keys only through order comparisons and
/// must_swap equality (ReductionState::can_absorb_dangler), so the
/// normalized spec compiles to the same reduction as the original — and
/// parts that differ only by a monotone relabeling of their stem keys now
/// share one cache entry. That is what makes the scheduler's deadlock
/// ladder affordable at scale: its key-ordered recompiles used to bypass
/// the cache entirely and dominated the schedule stage's wall time.
SubgraphSpec rank_normalized(const SubgraphSpec& spec) {
  const std::size_t n = spec.graph.vertex_count();
  std::vector<std::uint32_t> sorted;
  for (Vertex v = 0; v < n; ++v)
    if (spec.boundary[v] && spec.stem_key[v] != SubgraphSpec::must_swap)
      sorted.push_back(spec.stem_key[v]);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<std::uint32_t> keys(n, 0);
  for (Vertex v = 0; v < n; ++v) {
    if (!spec.boundary[v]) continue;
    keys[v] = spec.stem_key[v] == SubgraphSpec::must_swap
                  ? SubgraphSpec::must_swap
                  : static_cast<std::uint32_t>(
                        std::lower_bound(sorted.begin(), sorted.end(),
                                         spec.stem_key[v]) -
                        sorted.begin());
  }
  return SubgraphSpec(spec.graph, spec.boundary, std::move(keys));
}

PartVariants cached_compile_variants(PartCompileCache& cache,
                                     const SubgraphSpec& spec,
                                     const SubgraphCompileConfig& cfg,
                                     std::uint32_t ne_cap) {
  std::optional<SubgraphSpec> norm;
  if (cfg.dangler.key_order) norm.emplace(rank_normalized(spec));
  const SubgraphSpec& use = norm ? *norm : spec;
  const std::string key = part_cache_key(use, cfg, ne_cap);
  {
    std::lock_guard<std::mutex> lock(cache.mu);
    if (auto it = cache.map.find(key); it != cache.map.end())
      return *it->second;
  }
  PartVariants fresh = compile_variants(use, cfg, ne_cap, cache);
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.map.try_emplace(key, std::make_shared<PartVariants>(fresh));
  return fresh;
}

/// Per-photon Cliffords undoing the LC sequence: with
/// |G_i> = U_i |G_{i-1}>, U_i = sqrt(X)^dag_{v_i} (x) S_{N_{i-1}(v_i)}, the
/// circuit generates |G_k> and |G> = U_1^dag ... U_k^dag |G_k>.
std::vector<Clifford1> lc_correction_frames(
    const Graph& original, const std::vector<Vertex>& lc_sequence) {
  // Neighborhood of step i: neighborhood[start[i], start[i + 1]).
  std::vector<Vertex> neighborhood;
  std::vector<std::size_t> start{0};
  Graph g = original;
  start.reserve(lc_sequence.size() + 1);
  for (Vertex v : lc_sequence) {
    g.for_each_neighbor(v, [&](Vertex w) { neighborhood.push_back(w); });
    start.push_back(neighborhood.size());
    local_complement(g, v);
  }
  std::vector<Clifford1> frame(original.vertex_count(),
                               Clifford1::identity());
  for (std::size_t i = lc_sequence.size(); i-- > 0;) {
    // U_i^dag = sqrt(X) on v_i, S^dag on its recorded neighborhood; applied
    // chronologically after the later (larger i) corrections.
    frame[lc_sequence[i]] = frame[lc_sequence[i]].then(Clifford1::sqrt_x());
    for (std::size_t j = start[i]; j < start[i + 1]; ++j)
      frame[neighborhood[j]] = frame[neighborhood[j]].then(Clifford1::sdg());
  }
  return frame;
}

GlobalSchedule run_schedule(const PipelineContext& ctx) {
  ScheduleConfig sched;
  sched.ne_limit = ctx.result.ne_limit;
  sched.hw = ctx.cfg.hw;
  sched.alap_tetris = ctx.cfg.alap_tetris;
  std::vector<CompiledPart> parts;
  parts.reserve(ctx.variants.size());
  for (std::size_t p = 0; p < ctx.variants.size(); ++p)
    parts.push_back({ctx.variants[p].variants[ctx.variants[p].chosen],
                     ctx.plan.parts[p].to_global});
  return schedule_parts(parts, ctx.plan.stem_edges, ctx.plan.part_of,
                        ctx.plan.local_of, ctx.target.vertex_count(), sched);
}

// ---- stages ----------------------------------------------------------------

class PartitionStage final : public PipelineStage {
 public:
  std::string_view name() const override { return "partition"; }

  /// Above this size the emitter budget comes from the O(n + m) open-vertex
  /// bound instead of the exact per-prefix cut ranks: the exact height costs
  /// ~O(n^3) (28 s at 4k vertices, hours at 50k) and would dwarf every other
  /// stage combined. The bound only ever overestimates (open count >= rank),
  /// so ne_limit stays a valid cap; paper-sized instances keep the exact
  /// value bit-for-bit.
  static constexpr std::size_t kExactHeightLimit = 2048;

  void run(PipelineContext& ctx) const override {
    FrameworkResult& result = ctx.result;
    // Emitter budget.
    const std::vector<Vertex> order = natural_order(ctx.target);
    result.ne_min = std::max<std::size_t>(
        ctx.target.vertex_count() <= kExactHeightLimit
            ? min_emitters_for_order(ctx.target, order)
            // The O(n + m) bound reads a CSR flattening of the target so
            // its neighbor scans do not pay the O(n^2/64) bitset sweep
            // (same result either way; the CSR build is one such sweep).
            : emitter_bound_for_order(CsrView(ctx.target, ctx.exec), order),
        1);
    result.ne_limit =
        ctx.cfg.ne_limit_override > 0
            ? ctx.cfg.ne_limit_override
            : static_cast<std::uint32_t>(std::max<double>(
                  1.0, std::ceil(ctx.cfg.ne_limit_factor *
                                 static_cast<double>(result.ne_min))));
    // Partition + LC via the configured strategy.
    LcPartitionConfig pcfg = ctx.cfg.partition;
    pcfg.seed ^= ctx.cfg.seed;
    const PartitionStrategy* strategy =
        find_partition_strategy(pcfg.strategy);
    EPG_REQUIRE(strategy != nullptr,
                "unknown partition strategy '" + pcfg.strategy + "'");
    result.strategy = std::string(strategy->name());
    {
      Span span("partition_strategy", "pipeline");
      span.arg("strategy", result.strategy);
      result.partition = strategy->run(ctx.target, pcfg, ctx.exec);
    }
    ctx.plan = plan_stems(result.partition);
    result.stem_count = ctx.plan.stem_edges.size();
  }
};

class SubgraphStage final : public PipelineStage {
 public:
  std::string_view name() const override { return "subgraph"; }

  void run(PipelineContext& ctx) const override {
    ctx.scfg = ctx.cfg.subgraph;
    ctx.scfg.hw = ctx.cfg.hw;
    ctx.variants.assign(ctx.plan.parts.size(), PartVariants{});
    // Independent per-part compiles: each index writes its own slot, and
    // the node-count reduction below runs in index order, so the fan-out
    // is bit-identical at any lane count.
    ctx.exec.parallel_for(ctx.plan.parts.size(), [&](std::size_t p) {
      Span span("part_compile", "pipeline");
      span.arg("part", static_cast<std::uint64_t>(p));
      ctx.variants[p] =
          cached_compile_variants(ctx.part_cache, ctx.plan.parts[p].spec,
                                  ctx.scfg, ctx.result.ne_limit);
    });
    for (const PartVariants& pv : ctx.variants)
      ctx.result.subgraph_nodes += pv.nodes;
  }
};

class ScheduleStage final : public PipelineStage {
 public:
  std::string_view name() const override { return "schedule"; }

  void run(PipelineContext& ctx) const override {
    FrameworkResult& result = ctx.result;
    GlobalSchedule best = run_schedule(ctx);
    // Deadlock ladder. Crossing dangler-host stem windows can form a
    // precedence cycle that admits no placement; tighten the offending
    // parts first to key-ordered windows (removes most cross-part cycles),
    // then to anchor-only, which cannot deadlock.
    const DanglerPolicy ladder[] = {DanglerPolicy::key_ordered(),
                                    DanglerPolicy::anchors_only()};
    std::vector<std::size_t> part_level(ctx.plan.parts.size(), 0);
    for (std::size_t level = 0; level < std::size(ladder); ++level) {
      std::size_t rounds = ctx.plan.parts.size() + 1;
      while (best.deadlocked && rounds-- > 0) {
        result.dangler_fallback = true;
        std::vector<std::uint32_t> targets = best.deadlock_parts;
        if (targets.empty())  // defensive: tighten everything at this level
          for (std::uint32_t p = 0; p < ctx.plan.parts.size(); ++p)
            targets.push_back(p);
        // Mark serially (deterministic, dedupes repeated targets), then
        // recompile the marked parts across the executor.
        std::vector<std::uint32_t> recompile;
        for (std::uint32_t p : targets) {
          if (part_level[p] > level) continue;
          part_level[p] = level + 1;
          recompile.push_back(p);
        }
        if (recompile.empty()) break;  // nothing left at this level
        Span round_span("ladder_round", "pipeline");
        round_span.arg("level", static_cast<std::uint64_t>(level));
        round_span.arg("recompiled",
                       static_cast<std::uint64_t>(recompile.size()));
        SubgraphCompileConfig tight = ctx.scfg;
        tight.dangler = ladder[level];
        ctx.exec.parallel_for(recompile.size(), [&](std::size_t i) {
          const std::uint32_t p = recompile[i];
          Span span("part_recompile", "pipeline");
          span.arg("part", static_cast<std::uint64_t>(p));
          ctx.variants[p] =
              cached_compile_variants(ctx.part_cache, ctx.plan.parts[p].spec,
                                      tight, result.ne_limit);
        });
        for (std::uint32_t p : recompile)
          result.subgraph_nodes += ctx.variants[p].nodes;
        best = run_schedule(ctx);
      }
      if (!best.deadlocked) break;
    }
    EPG_CHECK(!best.deadlocked, "anchor-only schedule cannot deadlock");

    if (ctx.cfg.flexible_ne) {
      // Full-utilization pass: longest parts first, try the roomier
      // variants and keep any swap that shrinks the makespan within the
      // cap.
      std::vector<std::size_t> by_duration(ctx.variants.size());
      for (std::size_t i = 0; i < by_duration.size(); ++i)
        by_duration[i] = i;
      std::sort(by_duration.begin(), by_duration.end(),
                [&](std::size_t a, std::size_t b) {
                  const auto dur = [&](std::size_t p) {
                    const PartVariants& v = ctx.variants[p];
                    return v.variants[v.chosen].stats.makespan_ticks;
                  };
                  return dur(a) > dur(b);
                });
      const std::size_t max_trials = ctx.cfg.flexible_ne_max_trials;
      std::size_t trials = 0;
      for (std::size_t p : by_duration) {
        if (max_trials != 0 && trials >= max_trials) break;
        PartVariants& pv = ctx.variants[p];
        const std::size_t original = pv.chosen;
        for (std::size_t alt = 0; alt < pv.variants.size(); ++alt) {
          if (alt == original) continue;
          if (max_trials != 0 && trials >= max_trials) break;
          // A variant with the same (ne_used, ee-CZs, makespan) as the
          // chosen one cannot move the schedule — skip the full
          // schedule_parts re-run. compile_variants currently dedups on
          // exactly this triple, so the guard holds vacuously there; it
          // keeps the no-redundant-reschedule invariant local to this
          // loop rather than depending on that dedup staying in place.
          const SubgraphCircuit& cur = pv.variants[original];
          const SubgraphCircuit& cand = pv.variants[alt];
          if (cand.ne_used == cur.ne_used &&
              cand.stats.ee_cnot_count == cur.stats.ee_cnot_count &&
              cand.stats.makespan_ticks == cur.stats.makespan_ticks)
            continue;
          pv.chosen = alt;
          ++trials;
          const GlobalSchedule trial = run_schedule(ctx);
          // Accept only swaps that shorten the schedule without paying
          // more ee-CZs — #CNOT stays the primary objective (paper
          // Section IV.B).
          if (!trial.deadlocked &&
              trial.stats.ee_cnot_count <= best.stats.ee_cnot_count &&
              trial.makespan < best.makespan &&
              trial.limit_respected >= best.limit_respected) {
            best = trial;
            break;
          }
          pv.chosen = original;
        }
      }
    }
    result.schedule = std::move(best);
  }
};

class CorrectionStage final : public PipelineStage {
 public:
  std::string_view name() const override { return "correction"; }

  void run(PipelineContext& ctx) const override {
    FrameworkResult& result = ctx.result;
    const std::vector<Clifford1> frames = lc_correction_frames(
        ctx.target, result.partition.lc_sequence);
    for (Vertex v = 0; v < ctx.target.vertex_count(); ++v) {
      if (frames[v].is_identity()) continue;
      result.schedule.circuit.local(QubitId::photon(v), frames[v]);
      result.schedule.gate_start.push_back(result.schedule.makespan);
      result.schedule.gate_end.push_back(result.schedule.makespan);
      ++result.schedule.stats.local_count;
    }
  }
};

class VerifyStage final : public PipelineStage {
 public:
  std::string_view name() const override { return "verify"; }

  void run(PipelineContext& ctx) const override {
    if (ctx.cfg.verify_seeds <= 0) return;
    const VerifyReport report =
        verify_generates(ctx.result.schedule.circuit, ctx.target,
                         ctx.cfg.verify_seeds, ctx.cfg.seed + 17);
    EPG_CHECK(report.ok, "framework output failed verification: " +
                             report.message);
    ctx.result.verified = true;
  }
};

}  // namespace

std::vector<std::unique_ptr<PipelineStage>> make_framework_pipeline() {
  std::vector<std::unique_ptr<PipelineStage>> stages;
  stages.push_back(std::make_unique<PartitionStage>());
  stages.push_back(std::make_unique<SubgraphStage>());
  stages.push_back(std::make_unique<ScheduleStage>());
  stages.push_back(std::make_unique<CorrectionStage>());
  stages.push_back(std::make_unique<VerifyStage>());
  return stages;
}

FrameworkResult run_pipeline(const Graph& target, const FrameworkConfig& cfg,
                             const Executor& exec) {
  EPG_REQUIRE(target.vertex_count() > 0, "empty target graph");
  PipelineContext ctx{target,
                      cfg,
                      exec,
                      {},
                      {},
                      {},
                      {},
                      {},
                      current_trace_recorder()};
  for (const auto& stage : make_framework_pipeline()) {
    Span span(stage->name(), "pipeline");
    Stopwatch watch;
    stage->run(ctx);
    ctx.result.stage_ms.push_back(
        {std::string(stage->name()), watch.elapsed_ms()});
  }
  return std::move(ctx.result);
}

}  // namespace epg
