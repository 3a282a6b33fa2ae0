// Batch compilation runtime (the paper's scalability claim, made
// operational): fan a set of compile jobs — many graphs, or one graph
// under a sweep of configurations — across a work-stealing thread pool,
// deduplicate repeated instances through a result cache, and collect
// structured per-job metrics.
//
// Guarantees:
//   * Determinism. Every job is compiled with exactly the configuration it
//     carries; results land in input order; the cache deduplicates only
//     jobs whose labelled graph AND configuration fingerprint match (the
//     compilers are deterministic per (graph, config, seed), so members of
//     such a group are interchangeable). A parallel run therefore
//     reproduces a serial run bit-for-bit, and since the anytime searches
//     stop on work budgets (beam work, node budget, restarts), results
//     are independent of machine load as well.
//   * Isolation. A job that throws is recorded as a failed JobResult with
//     the exception text; it never takes down the batch.
//
// The cache is keyed on the exact labelled adjacency, not the
// isomorphism-invariant hash: compiled schedules are label-dependent and
// batch output must match serial output per instance. The WL canonical
// hash is still computed and reported per job so sweeps can count how many
// distinct graph *shapes* they contain (see graph_hash.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/baseline_compiler.hpp"
#include "compile/framework.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace epg {

class CompileResultStore;  // store/result_store.hpp
struct StoredResult;

enum class CompilerKind { framework, baseline };

/// Where a job's result came from. `memory` = this BatchCompiler's cache,
/// `store` = the persistent on-disk tier, `dedup` = an identical job
/// earlier in the same batch.
enum class ResultTier { compiled, memory, store, dedup };

const char* tier_name(ResultTier tier);

struct CompileJob {
  std::string label;
  Graph graph;
  CompilerKind kind = CompilerKind::framework;
  FrameworkConfig framework;  ///< used when kind == framework
  BaselineConfig baseline;    ///< used when kind == baseline
};

struct JobResult {
  std::size_t index = 0;  ///< position in the submitted batch
  std::string label;
  CompilerKind kind = CompilerKind::framework;

  bool ok = false;
  std::string error;      ///< exception text when !ok
  ResultTier tier = ResultTier::compiled;
  double wall_ms = 0.0;   ///< this job's compile time (0 for cache hits)

  std::size_t num_qubits = 0;
  std::size_t num_edges = 0;
  std::uint64_t graph_hash = 0;      ///< labelled (cache identity)
  std::uint64_t canonical_hash = 0;  ///< isomorphism-invariant (WL)

  CircuitStats stats;
  std::size_t ne_min = 0;
  std::uint32_t ne_limit = 0;
  std::size_t stem_count = 0;  ///< framework only
  std::size_t parts = 0;       ///< framework only: partition size
  std::size_t lc_depth = 0;    ///< framework only: LC-sequence length
  bool verified = false;

  /// Full compiler outputs (circuits, schedules); populated when
  /// BatchConfig::keep_results is set. Shared between cache-hit copies.
  std::shared_ptr<const FrameworkResult> framework_result;
  std::shared_ptr<const BaselineResult> baseline_result;

  bool cache_hit() const { return tier != ResultTier::compiled; }
};

struct BatchConfig {
  /// Worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Intra-compile (pipeline) worker lanes per job, drawn from the SAME
  /// batch pool — sharing one pool is what keeps nested parallelism free
  /// of oversubscription. 0 = each job runs its inner pipeline serially
  /// (a batch wider than the pool saturates it anyway); N caps a job's
  /// inner fan-out at N extra lanes. Never changes compiled results.
  std::size_t inner_threads = 0;
  bool use_cache = true;
  /// Retain the full FrameworkResult/BaselineResult per job (needed by
  /// consumers that sample the circuits, e.g. the noise benches).
  bool keep_results = true;
  /// Response shaping for the serving front ends: leave wall-clock fields
  /// and generated trace ids out of `epgc_serve`/`epgc_cluster` answers.
  /// Never read by the compiler and never fingerprinted — every compile
  /// is already a pure function of (graph, config).
  bool deterministic = false;
  /// Optional persistent tier (store/result_store.hpp). Read-through on a
  /// memory-cache miss, write-back after every successful compile; active
  /// only while use_cache is set. Store hits replay exact metrics and the
  /// compiled circuit; with keep_results they rehydrate a result whose
  /// circuit/stats/scalars are exact but whose search diagnostics
  /// (partition internals, stage timings) are empty — the search did not
  /// run. Consumers needing those must compile cold (no store).
  std::shared_ptr<CompileResultStore> store;
  /// Metrics registry the cumulative job/tier counters live in (the one
  /// source of truth `totals()` and the service's `health`/`metrics` verbs
  /// read). Null = the compiler creates a private registry; the serve app
  /// passes the process-global one. Never fingerprinted — observability
  /// cannot split the cache.
  std::shared_ptr<MetricsRegistry> metrics;
};

struct BatchSummary {
  std::size_t jobs = 0;
  std::size_t compiled = 0;    ///< jobs that actually ran a compiler
  std::size_t cache_hits = 0;  ///< memory + store + dedup
  std::size_t memory_hits = 0; ///< in-memory result cache
  std::size_t store_hits = 0;  ///< persistent on-disk store tier
  std::size_t dedup_hits = 0;  ///< duplicate jobs within one batch
  std::size_t failures = 0;
  double wall_ms = 0.0;        ///< whole-batch wall time
  double compile_ms = 0.0;     ///< sum of per-job compile times
  double speedup() const {     ///< aggregate parallel+cache speedup
    return wall_ms > 0.0 ? compile_ms / wall_ms : 1.0;
  }
};

/// Job builders for the common two-phase pattern: compile every framework
/// job first, then every baseline under the emitter budget phase 1
/// produced. `inherited_ne_limit` fills baseline num_emitters only when
/// the config leaves it 0 (the shared-budget convention of the paper's
/// comparisons).
CompileJob make_framework_job(std::string label, Graph graph,
                              FrameworkConfig cfg);
CompileJob make_baseline_job(std::string label, Graph graph,
                             BaselineConfig cfg,
                             std::size_t inherited_ne_limit = 0);

class BatchCompiler {
 public:
  explicit BatchCompiler(BatchConfig cfg = {});

  /// Compile the batch; results are in job order. One run() at a time,
  /// reusable — the cache persists across runs. lookup() and cache_size()
  /// may run on other threads meanwhile: run() holds the cache lock only
  /// while it reads or publishes entries, never while it compiles.
  std::vector<JobResult> run(const std::vector<CompileJob>& jobs);

  /// One job's memory-tier result, exactly as a one-job run() would
  /// return it, or nullopt on a miss. Thread-safe, also against a
  /// concurrent run(); it only reads the cache (run() and clear_cache()
  /// write it) and never probes the persistent store. A hit counts in
  /// the job and tier counters as run() counts it, a miss counts nothing.
  /// summary() and the ms totals stay the last run()'s.
  std::optional<JobResult> lookup(const CompileJob& job);

  const BatchSummary& summary() const { return summary_; }  ///< last run()
  /// Cumulative totals across every run(), assembled from the metrics
  /// registry counters (PR 9 rebased the tier counters there so the
  /// `health`/`metrics` verbs and this summary can never drift).
  BatchSummary totals() const;
  /// The registry the cumulative counters live in (shared or private).
  MetricsRegistry& metrics() { return *metrics_; }
  const BatchConfig& config() const { return cfg_; }
  /// Total concurrency (pool workers + the calling thread).
  std::size_t parallelism() const { return pool_.thread_count() + 1; }
  std::size_t cache_size() const;
  void clear_cache();
  ThreadPool& pool() { return pool_; }

 private:
  struct CacheEntry {
    Graph graph;
    std::uint64_t config_hash = 0;
    CompilerKind kind = CompilerKind::framework;
    JobResult result;
  };

  JobResult compile_one(const CompileJob& job, std::uint64_t config_hash);
  /// The memory-tier result for `job`, copied out under the shared lock.
  std::optional<JobResult> find_cached(std::uint64_t key,
                                       const CompileJob& job,
                                       std::uint64_t config_hash) const;
  /// Cache `result` for `job` (run() only, under the exclusive lock).
  void publish(std::uint64_t key, const CompileJob& job,
               std::uint64_t config_hash, const JobResult& result);
  /// Materialize a JobResult from a persistent-store hit.
  JobResult rehydrate(const CompileJob& job, const StoredResult& stored);

  BatchConfig cfg_;
  ThreadPool pool_;
  BatchSummary summary_;
  std::shared_ptr<MetricsRegistry> metrics_;
  /// Cumulative counters (registry-owned; named in docs/observability.md).
  Counter* jobs_total_ = nullptr;
  Counter* compiled_total_ = nullptr;
  Counter* cache_hits_total_ = nullptr;
  Counter* memory_hits_total_ = nullptr;
  Counter* store_hits_total_ = nullptr;
  Counter* dedup_hits_total_ = nullptr;
  Counter* failures_total_ = nullptr;
  Counter* level_searches_total_ = nullptr;
  Counter* exhausted_searches_total_ = nullptr;
  Counter* partition_exhausted_total_ = nullptr;
  Histogram* job_wall_ms_ = nullptr;
  /// Millisecond aggregates stay local doubles (counters are integral).
  double totals_wall_ms_ = 0.0;
  double totals_compile_ms_ = 0.0;
  /// Guards cache_: shared for reads, exclusive for writes.
  mutable std::shared_mutex cache_mutex_;
  std::unordered_map<std::uint64_t, std::vector<CacheEntry>> cache_;
};

/// Fingerprint of every result-relevant configuration field (exposed for
/// the cache tests).
std::uint64_t config_fingerprint(const FrameworkConfig& cfg);
std::uint64_t config_fingerprint(const BaselineConfig& cfg);

}  // namespace epg
