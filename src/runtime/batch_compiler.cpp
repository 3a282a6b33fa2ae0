#include "runtime/batch_compiler.hpp"

#include <mutex>
#include <stdexcept>

#include "common/build_info.hpp"
#include "common/stopwatch.hpp"
#include "obs/trace.hpp"
#include "runtime/graph_hash.hpp"
#include "store/result_store.hpp"

namespace epg {

namespace {

void mix_hardware(HashStream& h, const HardwareModel& hw) {
  h.mix(hw.name);
  h.mix(static_cast<std::uint64_t>(hw.tau_ticks));
  h.mix(static_cast<std::uint64_t>(hw.ee_cnot_ticks));
  h.mix(static_cast<std::uint64_t>(hw.emission_ticks));
  h.mix(static_cast<std::uint64_t>(hw.emitter_1q_ticks));
  h.mix(static_cast<std::uint64_t>(hw.photon_1q_ticks));
  h.mix(static_cast<std::uint64_t>(hw.measure_ticks));
  h.mix(hw.ee_cnot_fidelity);
  h.mix(hw.loss_rate_per_tau);
}

std::uint64_t config_hash_of(const CompileJob& job) {
  return job.kind == CompilerKind::framework
             ? config_fingerprint(job.framework)
             : config_fingerprint(job.baseline);
}

std::uint64_t cache_key_of(std::uint64_t graph_hash,
                           std::uint64_t config_hash, CompilerKind kind) {
  return HashStream()
      .mix(graph_hash)
      .mix(config_hash)
      .mix(static_cast<std::uint64_t>(kind))
      .digest();
}

/// A cached result as its job's own: the job's label, the tier it came
/// from, no compile time.
void stamp_hit(JobResult& r, const CompileJob& job, ResultTier tier) {
  r.label = job.label;
  r.tier = tier;
  r.wall_ms = 0.0;
}

}  // namespace

std::uint64_t config_fingerprint(const FrameworkConfig& cfg) {
  HashStream h;
  h.mix(std::uint64_t{0xF3A3E});  // domain separation vs BaselineConfig
  // Schema salt: persisted results keyed on this fingerprint (the on-disk
  // store) self-invalidate when the result layout/semantics change.
  h.mix(static_cast<std::uint64_t>(build_info().result_schema));
  mix_hardware(h, cfg.hw);
  h.mix(static_cast<std::uint64_t>(cfg.partition.g_max));
  h.mix(static_cast<std::uint64_t>(cfg.partition.max_lc_ops));
  h.mix(static_cast<std::uint64_t>(cfg.partition.beam_width));
  h.mix(cfg.partition.time_budget_ms);
  h.mix(cfg.partition.seed);
  h.mix(static_cast<std::uint64_t>(cfg.partition.quick_restarts));
  h.mix(static_cast<std::uint64_t>(cfg.partition.final_restarts));
  h.mix(cfg.partition.strategy);
  h.mix(static_cast<std::uint64_t>(cfg.partition.anneal_iterations));
  h.mix(static_cast<std::uint64_t>(cfg.partition.portfolio_width));
  h.mix(static_cast<std::uint64_t>(cfg.partition.coarsen_floor));
  h.mix(cfg.partition.multilevel_inner);
  h.mix(static_cast<std::uint64_t>(cfg.partition.multilevel_race_limit));
  // cfg.inner_threads is deliberately NOT mixed: inner lane count never
  // changes the compiled result, so it must not split the cache.
  h.mix(static_cast<std::uint64_t>(cfg.subgraph.ne_limit));
  h.mix(static_cast<std::uint64_t>(cfg.subgraph.node_budget));
  h.mix(static_cast<std::uint64_t>(cfg.subgraph.max_lc_ops));
  h.mix(cfg.subgraph.time_budget_ms);
  mix_hardware(h, cfg.subgraph.hw);
  h.mix(static_cast<std::uint64_t>(cfg.subgraph.verify));
  h.mix(static_cast<std::uint64_t>(cfg.subgraph.dangler));
  h.mix(cfg.ne_limit_factor);
  h.mix(static_cast<std::uint64_t>(cfg.ne_limit_override));
  h.mix(static_cast<std::uint64_t>(cfg.alap_tetris));
  h.mix(static_cast<std::uint64_t>(cfg.flexible_ne));
  h.mix(static_cast<std::uint64_t>(cfg.verify_seeds));
  h.mix(cfg.seed);
  return h.digest();
}

std::uint64_t config_fingerprint(const BaselineConfig& cfg) {
  HashStream h;
  h.mix(std::uint64_t{0xBA5E});
  h.mix(static_cast<std::uint64_t>(build_info().result_schema));
  mix_hardware(h, cfg.hw);
  h.mix(static_cast<std::uint64_t>(cfg.order_restarts));
  h.mix(cfg.seed);
  h.mix(static_cast<std::uint64_t>(cfg.num_emitters));
  h.mix(static_cast<std::uint64_t>(cfg.verify));
  return h.digest();
}

CompileJob make_framework_job(std::string label, Graph graph,
                              FrameworkConfig cfg) {
  CompileJob job;
  job.label = std::move(label);
  job.graph = std::move(graph);
  job.kind = CompilerKind::framework;
  job.framework = std::move(cfg);
  return job;
}

CompileJob make_baseline_job(std::string label, Graph graph,
                             BaselineConfig cfg,
                             std::size_t inherited_ne_limit) {
  CompileJob job;
  job.label = std::move(label);
  job.graph = std::move(graph);
  job.kind = CompilerKind::baseline;
  job.baseline = std::move(cfg);
  if (job.baseline.num_emitters == 0)
    job.baseline.num_emitters = inherited_ne_limit;
  return job;
}

BatchCompiler::BatchCompiler(BatchConfig cfg)
    : cfg_(cfg),
      // The calling thread participates in every parallel_for, so a batch
      // with total parallelism N runs on N-1 pool workers; threads == 1 is
      // genuinely serial.
      pool_((cfg.threads == 0 ? ThreadPool::hardware_default()
                              : cfg.threads) -
            1),
      metrics_(cfg.metrics ? cfg.metrics
                           : std::make_shared<MetricsRegistry>()) {
  jobs_total_ = &metrics_->counter("epgc_jobs_total",
                                   "compile jobs submitted across runs");
  compiled_total_ = &metrics_->counter(
      "epgc_jobs_compiled_total", "jobs that actually ran a compiler");
  cache_hits_total_ = &metrics_->counter(
      "epgc_cache_hits_total", "jobs answered from any cache tier");
  memory_hits_total_ = &metrics_->counter(
      "epgc_tier_hits_total{tier=\"memory\"}", "in-memory cache hits");
  store_hits_total_ = &metrics_->counter(
      "epgc_tier_hits_total{tier=\"store\"}", "persistent store hits");
  dedup_hits_total_ = &metrics_->counter(
      "epgc_tier_hits_total{tier=\"dedup\"}", "within-batch duplicate hits");
  failures_total_ =
      &metrics_->counter("epgc_job_failures_total", "failed compile jobs");
  level_searches_total_ = &metrics_->counter(
      "epgc_level_searches_total",
      "subgraph level searches run by compiled framework jobs");
  exhausted_searches_total_ = &metrics_->counter(
      "epgc_exhausted_searches_total",
      "level searches that hit their node or time budget");
  partition_exhausted_total_ = &metrics_->counter(
      "epgc_partition_exhausted_total",
      "compiled framework jobs whose partition search hit its work budget "
      "or deadline");
  job_wall_ms_ = &metrics_->histogram("epgc_job_wall_ms",
                                      default_latency_buckets_ms(),
                                      "per-job compile wall time (ms)");
}

BatchSummary BatchCompiler::totals() const {
  BatchSummary t;
  t.jobs = jobs_total_->value();
  t.compiled = compiled_total_->value();
  t.cache_hits = cache_hits_total_->value();
  t.memory_hits = memory_hits_total_->value();
  t.store_hits = store_hits_total_->value();
  t.dedup_hits = dedup_hits_total_->value();
  t.failures = failures_total_->value();
  t.wall_ms = totals_wall_ms_;
  t.compile_ms = totals_compile_ms_;
  return t;
}

std::size_t BatchCompiler::cache_size() const {
  std::shared_lock lock(cache_mutex_);
  std::size_t total = 0;
  for (const auto& [key, entries] : cache_) total += entries.size();
  return total;
}

void BatchCompiler::clear_cache() {
  std::unique_lock lock(cache_mutex_);
  cache_.clear();
}

const char* tier_name(ResultTier tier) {
  switch (tier) {
    case ResultTier::compiled: return "compiled";
    case ResultTier::memory: return "memory";
    case ResultTier::store: return "store";
    case ResultTier::dedup: return "dedup";
  }
  return "compiled";
}

JobResult BatchCompiler::compile_one(const CompileJob& job,
                                     std::uint64_t config_hash) {
  JobResult r;
  r.label = job.label;
  r.kind = job.kind;
  r.num_qubits = job.graph.vertex_count();
  r.num_edges = job.graph.edge_count();
  Span span("compile_job", "batch");
  span.arg("label", job.label);
  Stopwatch watch;
  try {
    if (job.kind == CompilerKind::framework) {
      // Inner pipeline stages fan out on the batch's own pool (capped at
      // inner_threads extra lanes), so outer and inner parallelism share
      // one set of workers and never oversubscribe. Inner lanes never
      // change results, so cached entries stay valid across lane counts.
      const Executor shared_pool(pool_, cfg_.inner_threads + 1);
      const Executor& inner =
          cfg_.inner_threads == 0 ? Executor::serial() : shared_pool;
      auto result = std::make_shared<FrameworkResult>(
          compile_framework(job.graph, job.framework, inner));
      level_searches_total_->inc(result->level_searches);
      exhausted_searches_total_->inc(result->exhausted_searches);
      if (result->partition.work_exhausted) partition_exhausted_total_->inc();
      r.stats = result->stats();
      r.ne_min = result->ne_min;
      r.ne_limit = result->ne_limit;
      r.stem_count = result->stem_count;
      r.parts = result->partition.parts.size();
      r.lc_depth = result->partition.lc_sequence.size();
      r.verified = result->verified;
      r.framework_result = std::move(result);
    } else {
      const BaselineConfig& cfg = job.baseline;
      auto result = std::make_shared<BaselineResult>(
          compile_baseline(job.graph, cfg));
      if (!result->success)
        throw std::runtime_error("baseline compilation failed");
      r.stats = result->stats;
      r.ne_min = result->ne_min;
      r.ne_limit = static_cast<std::uint32_t>(
          cfg.num_emitters ? cfg.num_emitters : result->ne_min);
      r.verified = cfg.verify;
      r.baseline_result = std::move(result);
    }
    r.ok = true;
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.wall_ms = watch.elapsed_ms();
  // Write-back to the persistent tier: the one JobResult -> StoredResult
  // mapping (rehydrate is its inverse). Runs on the pool worker so the
  // disk write overlaps other jobs' compute; the store serializes
  // internally.
  if (r.ok && cfg_.store && cfg_.use_cache) {
    StoredResult stored;
    stored.stats = r.stats;
    stored.ne_min = r.ne_min;
    stored.ne_limit = r.ne_limit;
    stored.stem_count = r.stem_count;
    stored.parts = r.parts;
    stored.lc_depth = r.lc_depth;
    stored.verified = r.verified;
    if (r.framework_result) {
      stored.circuit = r.framework_result->schedule.circuit;
      stored.strategy = r.framework_result->strategy;
    } else {
      stored.circuit = r.baseline_result->circuit;
    }
    cfg_.store->put(job.graph, config_hash, job.kind, stored);
  }
  if (!cfg_.keep_results) {
    r.framework_result.reset();
    r.baseline_result.reset();
  }
  return r;
}

JobResult BatchCompiler::rehydrate(const CompileJob& job,
                                   const StoredResult& stored) {
  JobResult r;
  r.label = job.label;
  r.kind = job.kind;
  r.num_qubits = job.graph.vertex_count();
  r.num_edges = job.graph.edge_count();
  r.ok = true;
  r.tier = ResultTier::store;
  r.stats = stored.stats;
  r.ne_min = stored.ne_min;
  r.ne_limit = stored.ne_limit;
  r.stem_count = stored.stem_count;
  r.parts = stored.parts;
  r.lc_depth = stored.lc_depth;
  r.verified = stored.verified;
  if (cfg_.keep_results) {
    // Rehydrated results carry the exact circuit and metrics; search
    // diagnostics (partition vectors, stage timings) stay empty.
    if (job.kind == CompilerKind::framework) {
      auto fr = std::make_shared<FrameworkResult>();
      fr->schedule.circuit = stored.circuit;
      fr->schedule.stats = stored.stats;
      fr->schedule.makespan = stored.stats.makespan_ticks;
      fr->ne_min = stored.ne_min;
      fr->ne_limit = stored.ne_limit;
      fr->stem_count = stored.stem_count;
      fr->verified = stored.verified;
      fr->strategy = stored.strategy;
      r.framework_result = std::move(fr);
    } else {
      auto br = std::make_shared<BaselineResult>();
      br->success = true;
      br->circuit = stored.circuit;
      br->stats = stored.stats;
      br->ne_min = stored.ne_min;
      r.baseline_result = std::move(br);
    }
  }
  return r;
}

std::optional<JobResult> BatchCompiler::find_cached(
    std::uint64_t key, const CompileJob& job,
    std::uint64_t config_hash) const {
  std::shared_lock lock(cache_mutex_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return std::nullopt;
  for (const CacheEntry& entry : it->second)
    if (entry.kind == job.kind && entry.config_hash == config_hash &&
        entry.graph == job.graph)
      return entry.result;
  return std::nullopt;
}

void BatchCompiler::publish(std::uint64_t key, const CompileJob& job,
                            std::uint64_t config_hash,
                            const JobResult& result) {
  CacheEntry entry;
  entry.graph = job.graph;
  entry.config_hash = config_hash;
  entry.kind = job.kind;
  entry.result = result;
  std::unique_lock lock(cache_mutex_);
  cache_[key].push_back(std::move(entry));
}

std::optional<JobResult> BatchCompiler::lookup(const CompileJob& job) {
  if (!cfg_.use_cache) return std::nullopt;
  const std::uint64_t graph_hash = labelled_graph_hash(job.graph);
  const std::uint64_t config_hash = config_hash_of(job);
  std::optional<JobResult> r = find_cached(
      cache_key_of(graph_hash, config_hash, job.kind), job, config_hash);
  if (!r) return std::nullopt;
  stamp_hit(*r, job, ResultTier::memory);
  r->index = 0;
  r->graph_hash = graph_hash;
  r->canonical_hash = canonical_graph_hash(job.graph);
  jobs_total_->inc();
  cache_hits_total_->inc();
  memory_hits_total_->inc();
  return r;
}

std::vector<JobResult> BatchCompiler::run(
    const std::vector<CompileJob>& jobs) {
  Stopwatch batch_watch;
  summary_ = BatchSummary{};
  summary_.jobs = jobs.size();

  struct Keyed {
    std::uint64_t cache_key = 0;
    std::uint64_t graph_hash = 0;
    std::uint64_t canonical_hash = 0;
    std::uint64_t config_hash = 0;
    // Index of the first identical job, or self if this job compiles.
    std::size_t representative = 0;
  };
  std::vector<Keyed> keyed(jobs.size());
  // A memory or store hit lands here while keying, already stamped with
  // its tier; every other slot stays `compiled` until the fill below.
  std::vector<JobResult> results(jobs.size());

  // Key every job and group exact duplicates behind a representative.
  // Pre-size both maps from the batch size (the worst case is every job
  // distinct) so keying never rehashes mid-batch.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
  groups.reserve(jobs.size());
  {
    std::unique_lock lock(cache_mutex_);
    cache_.reserve(cache_.size() + jobs.size());
  }
  std::vector<std::size_t> to_compile;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Keyed& k = keyed[i];
    k.graph_hash = labelled_graph_hash(jobs[i].graph);
    k.canonical_hash = canonical_graph_hash(jobs[i].graph);
    k.config_hash = config_hash_of(jobs[i]);
    k.cache_key = cache_key_of(k.graph_hash, k.config_hash, jobs[i].kind);
    k.representative = i;
    if (!cfg_.use_cache) {
      to_compile.push_back(i);
      continue;
    }
    if (auto hit = find_cached(k.cache_key, jobs[i], k.config_hash)) {
      results[i] = std::move(*hit);
      stamp_hit(results[i], jobs[i], ResultTier::memory);
      continue;
    }
    auto& members = groups[k.cache_key];
    bool joined = false;
    for (std::size_t m : members) {
      // Guard against 64-bit collisions: only join a group whose graph
      // is really identical.
      if (jobs[m].graph == jobs[i].graph) {
        k.representative = m;
        joined = true;
        break;
      }
    }
    if (joined) continue;
    // Only group representatives probe the persistent tier (duplicates
    // would just repeat the same disk miss). A hit is published to the
    // memory cache immediately, so identical jobs later in this batch
    // (and later runs) hit memory.
    if (cfg_.store) {
      // Metrics-only consumers never pay the circuit decode.
      if (auto stored = cfg_.store->get(jobs[i].graph, k.config_hash,
                                        jobs[i].kind, cfg_.keep_results)) {
        results[i] = rehydrate(jobs[i], *stored);
        publish(k.cache_key, jobs[i], k.config_hash, results[i]);
        stamp_hit(results[i], jobs[i], ResultTier::store);
        continue;
      }
    }
    members.push_back(i);
    to_compile.push_back(i);
  }

  // Compile the representatives across the pool; each writes its own
  // slot, so the result set is independent of scheduling order.
  pool_.parallel_for(to_compile.size(), [&](std::size_t t) {
    const std::size_t i = to_compile[t];
    results[i] = compile_one(jobs[i], keyed[i].config_hash);
  });

  // Publish fresh results to the cache, then fill duplicates.
  if (cfg_.use_cache) {
    for (std::size_t i : to_compile)
      if (results[i].ok)  // never cache failures
        publish(keyed[i].cache_key, jobs[i], keyed[i].config_hash,
                results[i]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobResult& r = results[i];
    if (r.tier == ResultTier::compiled && keyed[i].representative != i) {
      r = results[keyed[i].representative];
      stamp_hit(r, jobs[i], ResultTier::dedup);
    }
    r.index = i;
    r.graph_hash = keyed[i].graph_hash;
    r.canonical_hash = keyed[i].canonical_hash;
    switch (r.tier) {
      case ResultTier::compiled: break;
      case ResultTier::memory: ++summary_.memory_hits; break;
      case ResultTier::store: ++summary_.store_hits; break;
      case ResultTier::dedup: ++summary_.dedup_hits; break;
    }
    if (r.cache_hit()) ++summary_.cache_hits;
    if (!r.ok) ++summary_.failures;
    summary_.compile_ms += r.wall_ms;
    if (r.tier == ResultTier::compiled) job_wall_ms_->observe(r.wall_ms);
  }
  summary_.compiled = to_compile.size();
  summary_.wall_ms = batch_watch.elapsed_ms();
  // Cumulative totals live in the metrics registry (the same counters the
  // service's health/metrics verbs read); only the ms aggregates stay local.
  jobs_total_->inc(summary_.jobs);
  compiled_total_->inc(summary_.compiled);
  cache_hits_total_->inc(summary_.cache_hits);
  memory_hits_total_->inc(summary_.memory_hits);
  store_hits_total_->inc(summary_.store_hits);
  dedup_hits_total_->inc(summary_.dedup_hits);
  failures_total_->inc(summary_.failures);
  totals_wall_ms_ += summary_.wall_ms;
  totals_compile_ms_ += summary_.compile_ms;
  return results;
}

}  // namespace epg
