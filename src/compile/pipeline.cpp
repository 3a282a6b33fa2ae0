// The compile pipeline behind compile_framework (paper Fig. 6): five plain
// stage functions — partition, subgraph, schedule, correction, verify —
// that compile_framework calls in that order, each under one `pipeline`
// span and one FrameworkResult::stage_ms entry.
//
// Every stage obeys one contract. It consumes only what earlier stages
// produced and writes only the outputs its comment names. It is
// deterministic in (target, cfg): executor lane count, task scheduling and
// machine load never change its output, because the anytime searches stop
// on work budgets (only an explicitly set wall deadline could). It reports
// failure by throwing (EPG_REQUIRE/EPG_CHECK), which aborts the compile.
#include "compile/framework.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/stopwatch.hpp"
#include "compile/stem.hpp"
#include "graph/csr.hpp"
#include "graph/local_complement.hpp"
#include "graph/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partition_strategy.hpp"

namespace epg {
namespace {

/// One subgraph compiled at every feasible flexible-ne variant, cheapest
/// (fewest ee-CZs, then shortest) first as the scheduling default.
struct PartVariants {
  std::vector<SubgraphCircuit> variants;
  std::size_t chosen = 0;
  std::size_t nodes = 0;
};

/// The per-level part memo, keyed on (spec, policy, level) and shared by
/// the subgraph stage and the schedule stage's deadlock-ladder recompiles.
/// Partitioning a large graph yields thousands of tiny parts, many
/// byte-identical as (adjacency, boundary) specs, and compile_subgraph_level
/// is a pure function of that key — with one caveat: spec.stem_key feeds
/// the search only under the key-ordered dangler policy, and only through
/// order comparisons, so key-ordered specs are keyed on rank-normalized
/// stem keys (see rank_normalized) and every other policy on the key-free
/// spec. Threads race only on who computes a level; every contender
/// computes the identical result, so the memo never changes results at any
/// lane count.
struct PartCompileCache {
  std::mutex mu;
  std::unordered_map<std::string,
                     std::shared_ptr<const SubgraphLevelResult>>
      levels;
  /// Levels that entered the memo, and how many of them exhausted their
  /// search budget. Counted at insertion, so a level two lanes raced to
  /// compute counts once: the counts do not depend on the lane count.
  std::size_t searches = 0;
  std::size_t exhausted = 0;
};

std::vector<Vertex> natural_order(const Graph& g) {
  std::vector<Vertex> order(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) order[v] = v;
  return order;
}

/// Memo key: the byte-exact (adjacency, boundary, policy, level) tuple,
/// plus the stem keys when the key-ordered policy reads them (callers
/// normalize those to ranks first — see rank_normalized below).
std::string part_cache_key(const SubgraphSpec& spec,
                           const SubgraphCompileConfig& cfg,
                           std::uint32_t level) {
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
  key.push_back(static_cast<char>(cfg.dangler));
  if (cfg.dangler == DanglerPolicy::key_ordered)
    key.append(reinterpret_cast<const char*>(spec.stem_key.data()),
               spec.stem_key.size() * sizeof(std::uint32_t));
  key.append(reinterpret_cast<const char*>(&level), sizeof level);
  return key;
}

/// Rewrite a spec's stem keys as their dense ranks among the part's
/// boundary keys (must_swap preserved, never-read non-boundary keys
/// zeroed). The search consumes keys only through order comparisons and
/// must_swap equality (ReductionState::can_absorb_dangler), so the
/// normalized spec compiles to the same reduction as the original — and
/// parts that differ only by a monotone relabeling of their stem keys
/// share memo entries. That keeps the scheduler's deadlock ladder
/// affordable at scale: keyed on raw stem keys, its key-ordered recompiles
/// would miss the memo and dominate the schedule stage's wall time.
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

/// One (spec, policy, level) search through the memo: the memo's entry, or
/// a fresh compile_subgraph_level that enters it and is counted there.
std::shared_ptr<const SubgraphLevelResult> cached_level(
    const SubgraphSpec& spec, const SubgraphCompileConfig& cfg,
    std::uint32_t ne, PartCompileCache& memo) {
  const std::string key = part_cache_key(spec, cfg, ne);
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    if (auto it = memo.levels.find(key); it != memo.levels.end())
      return it->second;
  }
  auto fresh = std::make_shared<const SubgraphLevelResult>(
      compile_subgraph_level(spec, cfg, ne));
  std::lock_guard<std::mutex> lock(memo.mu);
  const auto [it, inserted] = memo.levels.try_emplace(key, std::move(fresh));
  if (inserted) {
    ++memo.searches;
    if (it->second->exhausted) ++memo.exhausted;
  }
  return it->second;
}

/// The dangler policies a part's flexible-ne variants are walked under:
/// `base`, then anchors-only when the part has a boundary and `base` hosts
/// danglers. Dangler hosting serializes stem CZs on shared wires; the
/// anchors-only compilation trades (possibly) more ee-CZs for parallel stem
/// windows, so offering it lets the makespan-driven variant swap in the
/// scheduler pick whichever shape wins globally.
struct VariantPolicies {
  SubgraphCompileConfig base;
  SubgraphCompileConfig anchors;

  explicit VariantPolicies(const SubgraphCompileConfig& cfg)
      : base(cfg), anchors(cfg) {
    anchors.dangler = DanglerPolicy::anchors_only;
  }

  /// Calls fn(policy, ne) for every variant walk of `spec`, in variant
  /// order: under each policy from ne_min, +1 and +2, the extras only up
  /// to ne_cap, and never above the walk's last level n + 1 (a walk
  /// starting there would search nothing). Each call's level is one the
  /// walk is certain to search.
  template <class Fn>
  void for_each_walk(const SubgraphSpec& spec, std::uint32_t ne_cap,
                     Fn&& fn) const {
    const std::uint32_t ne_min = subgraph_ne_min(spec.graph);
    const auto last_ne =
        static_cast<std::uint32_t>(spec.graph.vertex_count()) + 1;
    const auto walks = [&](const SubgraphCompileConfig& policy) {
      for (std::uint32_t extra = 0; extra < 3; ++extra) {
        const std::uint32_t ne = ne_min + extra;
        if ((extra > 0 && ne > ne_cap) || ne > last_ne) break;
        fn(policy, ne);
      }
    };
    walks(base);
    const bool has_boundary =
        std::find(spec.boundary.begin(), spec.boundary.end(), true) !=
        spec.boundary.end();
    if (has_boundary && base.dangler != DanglerPolicy::anchors_only)
      walks(anchors);
  }
};

/// The spec each listed part is searched on under `cfg`: the part's own,
/// or under the key-ordered policy its rank-normalized copy, which
/// `normalized` keeps alive.
std::vector<const SubgraphSpec*> search_specs(
    const StemPlan& plan, const std::vector<std::uint32_t>& parts,
    const SubgraphCompileConfig& cfg, std::vector<SubgraphSpec>& normalized) {
  std::vector<const SubgraphSpec*> specs;
  specs.reserve(parts.size());
  if (cfg.dangler != DanglerPolicy::key_ordered) {
    for (std::uint32_t p : parts) specs.push_back(&plan.parts[p].spec);
    return specs;
  }
  normalized.reserve(parts.size());  // no reallocation: pointers stay valid
  for (std::uint32_t p : parts) {
    normalized.push_back(rank_normalized(plan.parts[p].spec));
    specs.push_back(&normalized.back());
  }
  return specs;
}

/// Searches every level the variant walks of `specs` are certain to start
/// at into the memo, as one flat fan-out across the executor: deduped by
/// memo key, larger parts (then higher levels) first so the short searches
/// fill the tail. The
/// walks that follow then start on memo hits, and a level that fails still
/// walks upward on demand. Only certain levels are listed, so the memo
/// ends up with exactly the levels the walks alone would search; the
/// serial executor runs the same list in order.
void search_walk_starts(const std::vector<const SubgraphSpec*>& specs,
                        const VariantPolicies& policies,
                        std::uint32_t ne_cap, const Executor& exec,
                        PartCompileCache& memo) {
  struct Level {
    const SubgraphSpec* spec;
    const SubgraphCompileConfig* cfg;
    std::uint32_t ne;
  };
  std::vector<Level> levels;
  std::unordered_set<std::string> listed;
  for (const SubgraphSpec* spec : specs)
    policies.for_each_walk(
        *spec, ne_cap, [&](const SubgraphCompileConfig& cfg, std::uint32_t ne) {
          if (listed.insert(part_cache_key(*spec, cfg, ne)).second)
            levels.push_back({spec, &cfg, ne});
        });
  std::stable_sort(levels.begin(), levels.end(),
                   [](const Level& a, const Level& b) {
                     const auto cost = [](const Level& l) {
                       return std::make_pair(l.spec->graph.vertex_count(),
                                             l.ne);
                     };
                     return cost(a) > cost(b);
                   });
  exec.parallel_for(levels.size(), [&](std::size_t i) {
    cached_level(*levels[i].spec, *levels[i].cfg, levels[i].ne, memo);
  });
}

/// A part's flexible-ne variants: each walk of for_each_walk goes up from
/// its start level (walk_subgraph_levels) over the memo's levels, so each
/// (part, policy, level) is searched once per memo: the walk up from an
/// infeasible ne_min reuses the levels the later variants start at, a
/// repeated part costs lookups only, and a deadlock-ladder recompile under
/// another outer policy shares every level it has in common with the first
/// compile — in particular the anchors-only levels, which do not read stem
/// keys. `nodes` sums nodes_explored over every walked level, hits
/// included, exactly as direct compile_subgraph calls would.
PartVariants compile_variants(const SubgraphSpec& spec,
                              const VariantPolicies& policies,
                              std::uint32_t ne_cap, PartCompileCache& memo) {
  PartVariants out;
  const auto last_ne =
      static_cast<std::uint32_t>(spec.graph.vertex_count()) + 1;
  policies.for_each_walk(
      spec, ne_cap, [&](const SubgraphCompileConfig& cfg, std::uint32_t ne) {
        SubgraphCompileResult r =
            walk_subgraph_levels(ne, last_ne, [&](std::uint32_t level) {
              return cached_level(spec, cfg, level, memo);
            });
        out.nodes += r.nodes_explored;
        if (!r.success) return;
        const bool duplicate = std::any_of(
            out.variants.begin(), out.variants.end(),
            [&](const SubgraphCircuit& v) {
              return v.ne_used == r.best.ne_used &&
                     v.stats.ee_cnot_count == r.best.stats.ee_cnot_count &&
                     v.stats.makespan_ticks == r.best.stats.makespan_ticks;
            });
        if (!duplicate) out.variants.push_back(std::move(r.best));
      });
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

/// Compiles the listed parts' variants under `cfg` into `variants`: first
/// the flat fan-out of their walks' start levels, then each part's walks
/// across the executor (memo hits, save for upward walks). Each index
/// writes its own slot, so the result is bit-identical at any lane count.
/// Returns the parts' summed node counts, reduced in list order.
std::size_t compile_parts(const StemPlan& plan,
                          const std::vector<std::uint32_t>& parts,
                          const SubgraphCompileConfig& cfg,
                          std::uint32_t ne_cap, const Executor& exec,
                          PartCompileCache& memo, std::string_view span_name,
                          std::vector<PartVariants>& variants) {
  std::vector<SubgraphSpec> normalized;
  const std::vector<const SubgraphSpec*> specs =
      search_specs(plan, parts, cfg, normalized);
  const VariantPolicies policies(cfg);
  search_walk_starts(specs, policies, ne_cap, exec, memo);
  exec.parallel_for(parts.size(), [&](std::size_t i) {
    Span span(span_name, "pipeline");
    span.arg("part", static_cast<std::uint64_t>(parts[i]));
    variants[parts[i]] = compile_variants(*specs[i], policies, ne_cap, memo);
  });
  std::size_t nodes = 0;
  for (std::uint32_t p : parts) nodes += variants[p].nodes;
  return nodes;
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

/// The per-part compile config: cfg.subgraph on the target's hardware.
SubgraphCompileConfig part_config(const FrameworkConfig& cfg) {
  SubgraphCompileConfig scfg = cfg.subgraph;
  scfg.hw = cfg.hw;
  return scfg;
}

// ---- stages ----------------------------------------------------------------

/// Above this size the emitter budget comes from the O(n + m) open-vertex
/// bound instead of the exact per-prefix cut ranks: the exact height costs
/// ~O(n^3) (28 s at 4k vertices, hours at 50k) and would dwarf every other
/// stage combined. The bound only ever overestimates (open count >= rank),
/// so ne_limit stays a valid cap; paper-sized instances keep the exact
/// value bit-for-bit.
constexpr std::size_t kExactHeightLimit = 2048;

/// Stage 1, partition: the emitter budget, then the configured
/// PartitionStrategy's LC + partition search, then the stem plan (returned).
/// Writes result.{ne_min, ne_limit, partition, stem_count, strategy}.
StemPlan partition_stage(const Graph& target, const FrameworkConfig& cfg,
                         const Executor& exec, FrameworkResult& result) {
  const std::vector<Vertex> order = natural_order(target);
  result.ne_min = std::max<std::size_t>(
      target.vertex_count() <= kExactHeightLimit
          ? min_emitters_for_order(target, order)
          // The O(n + m) bound reads a CSR flattening of the target so its
          // neighbor scans do not pay the O(n^2/64) bitset sweep (same
          // result either way; the CSR build is one such sweep).
          : emitter_bound_for_order(CsrView(target, exec), order),
      1);
  result.ne_limit =
      cfg.ne_limit_override > 0
          ? cfg.ne_limit_override
          : static_cast<std::uint32_t>(std::max<double>(
                1.0, std::ceil(cfg.ne_limit_factor *
                               static_cast<double>(result.ne_min))));
  LcPartitionConfig pcfg = cfg.partition;
  pcfg.seed ^= cfg.seed;
  const PartitionStrategy* strategy = find_partition_strategy(pcfg.strategy);
  EPG_REQUIRE(strategy != nullptr,
              "unknown partition strategy '" + pcfg.strategy + "'");
  result.strategy = std::string(strategy->name());
  {
    Span span("partition_strategy", "pipeline");
    span.arg("strategy", result.strategy);
    result.partition = strategy->run(target, pcfg, exec);
    span.arg("work", result.partition.work);
    span.arg("work_exhausted",
             std::uint64_t{result.partition.work_exhausted ? 1u : 0u});
  }
  StemPlan plan = plan_stems(result.partition);
  result.stem_count = plan.stem_edges.size();
  return plan;
}

/// Stage 2, subgraph: every part's flexible-ne variants (returned), through
/// compile_parts. Adds to result.subgraph_nodes.
std::vector<PartVariants> subgraph_stage(const StemPlan& plan,
                                         const FrameworkConfig& cfg,
                                         const Executor& exec,
                                         PartCompileCache& memo,
                                         FrameworkResult& result) {
  std::vector<std::uint32_t> parts(plan.parts.size());
  for (std::uint32_t p = 0; p < parts.size(); ++p) parts[p] = p;
  std::vector<PartVariants> variants(plan.parts.size());
  result.subgraph_nodes +=
      compile_parts(plan, parts, part_config(cfg), result.ne_limit, exec,
                    memo, "part_compile", variants);
  return variants;
}

/// Stage 3, schedule: Tetris recombination of the chosen variants, the
/// dangler-deadlock ladder (recompiles through `memo`, rewriting the
/// affected `variants`), then the flexible-ne variant swaps. Writes
/// result.{schedule, dangler_fallback}; adds recompile nodes to
/// result.subgraph_nodes.
void schedule_stage(const Graph& target, const FrameworkConfig& cfg,
                    const StemPlan& plan, std::vector<PartVariants>& variants,
                    const Executor& exec, PartCompileCache& memo,
                    FrameworkResult& result) {
  ScheduleConfig sched;
  sched.ne_limit = result.ne_limit;
  sched.hw = cfg.hw;
  sched.alap_tetris = cfg.alap_tetris;
  const auto schedule = [&] {
    std::vector<CompiledPart> parts;
    parts.reserve(variants.size());
    for (std::size_t p = 0; p < variants.size(); ++p)
      parts.push_back({variants[p].variants[variants[p].chosen],
                       plan.parts[p].to_global});
    return schedule_parts(parts, plan.stem_edges, plan.part_of,
                          plan.local_of, target.vertex_count(), sched);
  };
  GlobalSchedule best = schedule();
  // Deadlock ladder. Crossing dangler-host stem windows can form a
  // precedence cycle that admits no placement; tighten the offending parts
  // first to key-ordered windows (removes most cross-part cycles), then to
  // anchor-only, which cannot deadlock.
  const DanglerPolicy ladder[] = {DanglerPolicy::key_ordered,
                                  DanglerPolicy::anchors_only};
  std::vector<std::size_t> part_level(plan.parts.size(), 0);
  for (std::size_t level = 0; level < std::size(ladder); ++level) {
    std::size_t rounds = plan.parts.size() + 1;
    while (best.deadlocked && rounds-- > 0) {
      result.dangler_fallback = true;
      std::vector<std::uint32_t> targets = best.deadlock_parts;
      if (targets.empty())  // defensive: tighten everything at this level
        for (std::uint32_t p = 0; p < plan.parts.size(); ++p)
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
      SubgraphCompileConfig tight = part_config(cfg);
      tight.dangler = ladder[level];
      result.subgraph_nodes +=
          compile_parts(plan, recompile, tight, result.ne_limit, exec, memo,
                        "part_recompile", variants);
      best = schedule();
    }
    if (!best.deadlocked) break;
  }
  EPG_CHECK(!best.deadlocked, "anchor-only schedule cannot deadlock");

  if (cfg.flexible_ne) {
    // Full-utilization pass: longest parts first, try the roomier variants
    // and keep any swap that shrinks the makespan within the cap.
    // compile_variants dedups each part's variants on (ne_used, ee-CZs,
    // makespan), so every alternative is a real candidate.
    std::vector<std::size_t> by_duration(variants.size());
    for (std::size_t i = 0; i < by_duration.size(); ++i) by_duration[i] = i;
    std::sort(by_duration.begin(), by_duration.end(),
              [&](std::size_t a, std::size_t b) {
                const auto dur = [&](std::size_t p) {
                  const PartVariants& v = variants[p];
                  return v.variants[v.chosen].stats.makespan_ticks;
                };
                return dur(a) > dur(b);
              });
    const std::size_t max_trials = cfg.flexible_ne_max_trials;
    std::size_t trials = 0;
    for (std::size_t p : by_duration) {
      if (max_trials != 0 && trials >= max_trials) break;
      PartVariants& pv = variants[p];
      const std::size_t original = pv.chosen;
      for (std::size_t alt = 0; alt < pv.variants.size(); ++alt) {
        if (alt == original) continue;
        if (max_trials != 0 && trials >= max_trials) break;
        pv.chosen = alt;
        ++trials;
        const GlobalSchedule trial = schedule();
        // Accept only swaps that shorten the schedule without paying more
        // ee-CZs — #CNOT stays the primary objective (paper Section IV.B).
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

/// Stage 4, correction: the photon-local Cliffords that map the
/// LC-transformed state back to the requested |G>, appended at the end of
/// result.schedule.
void correction_stage(const Graph& target, FrameworkResult& result) {
  const std::vector<Clifford1> frames =
      lc_correction_frames(target, result.partition.lc_sequence);
  for (Vertex v = 0; v < target.vertex_count(); ++v) {
    if (frames[v].is_identity()) continue;
    result.schedule.circuit.local(QubitId::photon(v), frames[v]);
    result.schedule.gate_start.push_back(result.schedule.makespan);
    result.schedule.gate_end.push_back(result.schedule.makespan);
    ++result.schedule.stats.local_count;
  }
}

/// Stage 5, verify: the stabilizer end-to-end check over cfg.verify_seeds
/// seeds (0 skips it). Writes result.verified.
void verify_stage(const Graph& target, const FrameworkConfig& cfg,
                  FrameworkResult& result) {
  if (cfg.verify_seeds <= 0) return;
  const VerifyReport report = verify_generates(
      result.schedule.circuit, target, cfg.verify_seeds, cfg.seed + 17);
  EPG_CHECK(report.ok,
            "framework output failed verification: " + report.message);
  result.verified = true;
}

}  // namespace

FrameworkResult compile_framework(const Graph& target,
                                  const FrameworkConfig& cfg) {
  if (cfg.inner_threads == 0)
    return compile_framework(target, cfg, Executor::serial());
  const Executor exec(cfg.inner_threads);
  return compile_framework(target, cfg, exec);
}

FrameworkResult compile_framework(const Graph& target,
                                  const FrameworkConfig& cfg,
                                  const Executor& exec) {
  EPG_REQUIRE(target.vertex_count() > 0, "empty target graph");
  FrameworkResult result;
  // One span and one stage_ms entry per stage (names are literals, so they
  // outlive the span).
  const auto stage = [&result](std::string_view name, const auto& run) {
    Span span(name, "pipeline");
    Stopwatch watch;
    run();
    result.stage_ms.push_back({std::string(name), watch.elapsed_ms()});
  };
  // The part memo lives for this compile: the subgraph stage fills it and
  // the schedule stage's ladder recompiles reuse it.
  PartCompileCache memo;
  StemPlan plan;
  std::vector<PartVariants> variants;
  stage("partition",
        [&] { plan = partition_stage(target, cfg, exec, result); });
  stage("subgraph",
        [&] { variants = subgraph_stage(plan, cfg, exec, memo, result); });
  stage("schedule", [&] {
    schedule_stage(target, cfg, plan, variants, exec, memo, result);
  });
  result.level_searches = memo.searches;
  result.exhausted_searches = memo.exhausted;
  stage("correction", [&] { correction_stage(target, result); });
  stage("verify", [&] { verify_stage(target, cfg, result); });
  return result;
}

}  // namespace epg
