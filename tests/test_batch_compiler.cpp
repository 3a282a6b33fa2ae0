#include "runtime/batch_compiler.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "metrics/report.hpp"
#include "noise/monte_carlo.hpp"
#include "obs/metrics.hpp"
#include "runtime/graph_hash.hpp"
#include "runtime/thread_pool.hpp"
#include "store/result_store.hpp"

namespace epg {
namespace {

// ---- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<int> hits(17, 0);  // no atomics needed: everything is inline
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

// ---- Graph hashing -------------------------------------------------------

TEST(GraphHash, LabelledHashSeparatesLabellings) {
  const Graph g = make_waxman(12, 3);
  const Graph same = make_waxman(12, 3);
  const Graph relabelled = shuffle_labels(g, 5);
  EXPECT_EQ(labelled_graph_hash(g), labelled_graph_hash(same));
  ASSERT_FALSE(g == relabelled);  // the shuffle must actually move labels
  EXPECT_NE(labelled_graph_hash(g), labelled_graph_hash(relabelled));
}

TEST(GraphHash, CanonicalHashIsIsomorphismInvariant) {
  const Graph g = make_waxman(14, 9);
  for (std::uint64_t s = 1; s <= 5; ++s)
    EXPECT_EQ(canonical_graph_hash(g),
              canonical_graph_hash(shuffle_labels(g, s)));
}

TEST(GraphHash, CanonicalHashSeparatesShapes) {
  // Same vertex and edge count, different structure (P4 vs K3+isolated).
  Graph path(4);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.add_edge(2, 3);
  Graph triangle(4);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(0, 2);
  EXPECT_NE(canonical_graph_hash(path), canonical_graph_hash(triangle));
  EXPECT_NE(canonical_graph_hash(make_star(8)),
            canonical_graph_hash(make_ring(8)));
}

// ---- BatchCompiler -------------------------------------------------------

FrameworkConfig quick_framework(std::uint64_t seed) {
  FrameworkConfig cfg;
  cfg.subgraph.node_budget = 8000;
  cfg.verify_seeds = 1;
  cfg.seed = seed;
  return cfg;
}

CompileJob framework_job(const std::string& label, Graph g,
                         std::uint64_t seed) {
  CompileJob job;
  job.label = label;
  job.graph = std::move(g);
  job.kind = CompilerKind::framework;
  job.framework = quick_framework(seed);
  return job;
}

std::vector<CompileJob> mixed_jobs() {
  std::vector<CompileJob> jobs;
  jobs.push_back(framework_job("lat", make_lattice(3, 4), 1));
  jobs.push_back(framework_job("wax", make_waxman(11, 4), 2));
  jobs.push_back(
      framework_job("tree", make_random_tree(12, 5, 3), 3));
  CompileJob base;
  base.label = "base";
  base.graph = make_ring(8);
  base.kind = CompilerKind::baseline;
  base.baseline.seed = 4;
  jobs.push_back(std::move(base));
  return jobs;
}

void expect_same_metrics(const JobResult& a, const JobResult& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stats.ee_cnot_count, b.stats.ee_cnot_count);
  EXPECT_EQ(a.stats.emission_count, b.stats.emission_count);
  EXPECT_EQ(a.stats.local_count, b.stats.local_count);
  EXPECT_EQ(a.stats.measure_count, b.stats.measure_count);
  EXPECT_EQ(a.stats.emitters_used, b.stats.emitters_used);
  EXPECT_EQ(a.stats.makespan_ticks, b.stats.makespan_ticks);
  EXPECT_EQ(a.ne_min, b.ne_min);
  EXPECT_EQ(a.ne_limit, b.ne_limit);
  EXPECT_EQ(a.stem_count, b.stem_count);
}

TEST(BatchCompiler, ParallelMatchesSerialBitForBit) {
  BatchConfig serial_cfg;
  serial_cfg.threads = 1;
  BatchConfig parallel_cfg;
  parallel_cfg.threads = 4;

  BatchCompiler serial(serial_cfg);
  BatchCompiler parallel(parallel_cfg);
  EXPECT_EQ(serial.parallelism(), 1u);
  EXPECT_EQ(parallel.parallelism(), 4u);

  const std::vector<JobResult> a = serial.run(mixed_jobs());
  const std::vector<JobResult> b = parallel.run(mixed_jobs());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].ok) << a[i].error;
    expect_same_metrics(a[i], b[i]);
  }
}

TEST(BatchCompiler, MatchesDirectSerialCompile) {
  // A batch job must reproduce exactly what a plain compile_framework call
  // with the same configuration produces (the epgc_compile path).
  const Graph g = shuffle_labels(make_lattice(3, 4), 2);
  BatchConfig cfg;
  cfg.threads = 3;
  BatchCompiler batch(cfg);
  const std::vector<JobResult> res =
      batch.run({framework_job("direct", g, 7)});
  ASSERT_TRUE(res[0].ok) << res[0].error;

  const FrameworkResult direct = compile_framework(g, quick_framework(7));
  EXPECT_EQ(res[0].stats.ee_cnot_count, direct.stats().ee_cnot_count);
  EXPECT_EQ(res[0].stats.makespan_ticks, direct.stats().makespan_ticks);
  EXPECT_EQ(res[0].ne_limit, direct.ne_limit);
  EXPECT_EQ(res[0].stem_count, direct.stem_count);
}

TEST(BatchCompiler, CacheHitsIdenticalJobsWithinAndAcrossRuns) {
  BatchConfig cfg;
  cfg.threads = 2;
  BatchCompiler batch(cfg);
  const Graph g = make_waxman(10, 6);

  // Within one run: 4 identical jobs compile once.
  std::vector<CompileJob> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(framework_job("j" + std::to_string(i), g, 5));
  const std::vector<JobResult> first = batch.run(jobs);
  EXPECT_EQ(batch.summary().compiled, 1u);
  EXPECT_EQ(batch.summary().cache_hits, 3u);
  for (const JobResult& r : first) expect_same_metrics(first[0], r);
  EXPECT_FALSE(first[0].cache_hit());
  EXPECT_TRUE(first[3].cache_hit());

  // Across runs: the persistent cache serves the repeat instantly.
  const std::vector<JobResult> second =
      batch.run({framework_job("again", g, 5)});
  EXPECT_EQ(batch.summary().compiled, 0u);
  EXPECT_TRUE(second[0].cache_hit());
  expect_same_metrics(first[0], second[0]);
}

TEST(BatchCompiler, WorkCountersCountEachCompiledJobOnce) {
  // The registry's level-search counters add each compiled framework job's
  // FrameworkResult counts once; duplicates and cache hits add nothing.
  auto registry = std::make_shared<MetricsRegistry>();
  BatchConfig cfg;
  cfg.threads = 2;
  cfg.metrics = registry;
  BatchCompiler batch(cfg);
  const Graph g = make_waxman(10, 6);
  std::vector<CompileJob> jobs;
  for (int i = 0; i < 3; ++i)
    jobs.push_back(framework_job("j" + std::to_string(i), g, 5));
  const std::vector<JobResult> first = batch.run(jobs);
  ASSERT_TRUE(first[0].ok) << first[0].error;
  const FrameworkResult& compiled = *first[0].framework_result;
  Counter& searches = registry->counter("epgc_level_searches_total");
  Counter& exhausted = registry->counter("epgc_exhausted_searches_total");
  Counter& partition_cut =
      registry->counter("epgc_partition_exhausted_total");
  EXPECT_GT(compiled.level_searches, 0u);
  EXPECT_GT(compiled.partition.work, 0u);
  EXPECT_FALSE(compiled.partition.work_exhausted);
  EXPECT_EQ(partition_cut.value(), 0u);
  EXPECT_EQ(searches.value(), compiled.level_searches);
  EXPECT_EQ(exhausted.value(), compiled.exhausted_searches);
  batch.run({framework_job("again", g, 5)});
  EXPECT_EQ(searches.value(), compiled.level_searches);
  EXPECT_EQ(exhausted.value(), compiled.exhausted_searches);
}

TEST(BatchCompiler, IsomorphicByHashGraphsShareCanonicalHashButNotCache) {
  // A relabelled copy is isomorphic — same WL canonical hash — but the
  // compiled schedule is label-dependent, so it must NOT be served from
  // the other labelling's cache entry.
  BatchConfig cfg;
  cfg.threads = 2;
  BatchCompiler batch(cfg);
  const Graph g = make_waxman(10, 8);
  const Graph relabelled = shuffle_labels(g, 3);
  ASSERT_FALSE(g == relabelled);

  const std::vector<JobResult> res = batch.run(
      {framework_job("a", g, 5), framework_job("b", relabelled, 5)});
  EXPECT_EQ(batch.summary().compiled, 2u);
  EXPECT_EQ(batch.summary().cache_hits, 0u);
  EXPECT_EQ(res[0].canonical_hash, res[1].canonical_hash);
  EXPECT_NE(res[0].graph_hash, res[1].graph_hash);
}

TEST(BatchCompiler, DifferentConfigsDoNotShareCacheEntries) {
  BatchConfig cfg;
  cfg.threads = 2;
  BatchCompiler batch(cfg);
  const Graph g = make_ring(9);
  batch.run({framework_job("s5", g, 5), framework_job("s6", g, 6)});
  EXPECT_EQ(batch.summary().compiled, 2u);  // seeds differ -> both compile
  EXPECT_NE(config_fingerprint(quick_framework(5)),
            config_fingerprint(quick_framework(6)));
}

TEST(BatchCompiler, DanglerPolicyMovesConfigFingerprint) {
  std::set<std::uint64_t> fingerprints;
  for (const DanglerPolicy policy :
       {DanglerPolicy::free_form, DanglerPolicy::key_ordered,
        DanglerPolicy::anchors_only}) {
    FrameworkConfig cfg;
    cfg.subgraph.dangler = policy;
    fingerprints.insert(config_fingerprint(cfg));
  }
  EXPECT_EQ(fingerprints.size(), 3u);
  // Default-initialized (not value-initialized) configs, one on the stack
  // and one on the heap: a member without an initializer would make them
  // disagree.
  FrameworkConfig on_stack;
  const std::unique_ptr<FrameworkConfig> on_heap(new FrameworkConfig);
  EXPECT_EQ(config_fingerprint(on_stack), config_fingerprint(*on_heap));
  EXPECT_EQ(config_fingerprint(on_stack),
            config_fingerprint(FrameworkConfig{}));
}

TEST(BatchCompiler, JsonEscapesLabelsAndErrorsExactly) {
  JobResult r;
  r.index = 2;
  r.label = "a\"b\\c\nd\te\x01" "f";
  r.error = "bad \"graph\"\x1f";
  r.wall_ms = 1.5;
  r.num_qubits = 3;
  r.num_edges = 2;
  r.graph_hash = 7;
  r.canonical_hash = 9;
  r.stats.ee_cnot_count = 4;
  r.stats.duration_tau = 2.5;
  const std::string fields =
      R"("index":2,"label":"a\"b\\c\nd\te\u0001f","kind":"framework",)"
      R"("ok":false,"error":"bad \"graph\"\u001f","cache_hit":false,)"
      R"("tier":"compiled","wall_ms":1.5,"num_qubits":3,"num_edges":2,)"
      R"("graph_hash":"7","canonical_hash":"9","ee_cnot_count":4,)"
      R"("emission_count":0,"local_count":0,"measure_count":0,)"
      R"("emitters_used":0,"ne_min":0,"ne_limit":0,"stem_count":0,)"
      R"("makespan_ticks":0,"duration_tau":2.5,"t_loss_tau":0,)"
      R"("state_survival":1,"ee_fidelity_estimate":1,"verified":false)";
  std::ostringstream os;
  job_result_json_fields(os, r);
  EXPECT_EQ(os.str(), fields);
  BatchSummary summary;
  summary.jobs = 1;
  summary.failures = 1;
  EXPECT_EQ(batch_json({r}, summary),
            R"({"summary":{"jobs":1,"compiled":0,"cache_hits":0,)"
            R"("memory_hits":0,"store_hits":0,"dedup_hits":0,"failures":1,)"
            R"("wall_ms":0,"compile_ms":0,"speedup":1},"jobs":[{)" +
                fields + "}]}");
}

TEST(BatchCompiler, FailedJobsAreIsolatedAndNeverCached) {
  BatchConfig cfg;
  cfg.threads = 2;
  BatchCompiler batch(cfg);
  std::vector<CompileJob> jobs;
  jobs.push_back(framework_job("empty", Graph(0), 1));  // throws
  jobs.push_back(framework_job("good", make_ring(8), 1));
  const std::vector<JobResult> res = batch.run(jobs);
  EXPECT_FALSE(res[0].ok);
  EXPECT_FALSE(res[0].error.empty());
  EXPECT_TRUE(res[1].ok) << res[1].error;
  EXPECT_EQ(batch.summary().failures, 1u);
  EXPECT_EQ(batch.cache_size(), 1u);  // only the success was cached
}

// ---- one-job lookup --------------------------------------------------------

/// A fresh store directory, removed again on destruction.
class TempStore {
 public:
  explicit TempStore(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() /
             ("epgc-batch-" + name + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(dir_);
    StoreConfig cfg;
    cfg.dir = dir_.string();
    store_ = std::make_shared<CompileResultStore>(cfg);
  }
  ~TempStore() { std::filesystem::remove_all(dir_); }
  const std::shared_ptr<CompileResultStore>& store() const { return store_; }

 private:
  std::filesystem::path dir_;
  std::shared_ptr<CompileResultStore> store_;
};

std::string rendered(const JobResult& r) {
  std::ostringstream os;
  job_result_json_fields(os, r);
  return os.str();
}

TEST(BatchCompiler, LookupAnswersAHitExactlyAsAOneJobRun) {
  BatchConfig cfg;
  cfg.threads = 1;
  BatchCompiler batch(cfg);
  CompileJob job = framework_job("first", make_waxman(10, 6), 5);
  EXPECT_FALSE(batch.lookup(job).has_value());
  EXPECT_EQ(batch.totals().jobs, 0u) << "a miss counts nothing";
  batch.run({job});

  job.label = "again";
  const std::optional<JobResult> hit = batch.lookup(job);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tier, ResultTier::memory);
  EXPECT_EQ(batch.summary().compiled, 1u) << "summary() is the last run()";
  EXPECT_EQ(rendered(*hit), rendered(batch.run({job}).front()));
  const BatchSummary totals = batch.totals();
  EXPECT_EQ(totals.jobs, 3u);
  EXPECT_EQ(totals.compiled, 1u);
  EXPECT_EQ(totals.memory_hits, 2u);
  EXPECT_EQ(totals.cache_hits, 2u);
}

TEST(BatchCompiler, LookupsDuringARunSeeOneCachedEntryPerJob) {
  // Readers race run()'s publishes of store hits and fresh compiles;
  // ThreadSanitizer builds of this test are the data-race check of the
  // shared cache.
  const TempStore temp("race");
  BatchConfig cfg;
  cfg.threads = 2;
  cfg.store = temp.store();
  std::vector<CompileJob> jobs;
  for (std::uint64_t i = 0; i < 4; ++i)
    jobs.push_back(framework_job("s" + std::to_string(i),
                                 make_waxman(9, 20 + i), 1));
  BatchCompiler(cfg).run(jobs);  // the store holds the first four
  for (std::uint64_t i = 0; i < 4; ++i)
    jobs.push_back(framework_job("c" + std::to_string(i),
                                 make_waxman(9, 40 + i), 1));

  BatchCompiler batch(cfg);
  EXPECT_FALSE(batch.lookup(jobs.front()).has_value())
      << "a lookup reads the memory tier only";
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t)
    readers.emplace_back([&] {
      while (!done.load())
        for (const CompileJob& job : jobs) {
          if (const auto hit = batch.lookup(job)) {
            EXPECT_TRUE(hit->ok);
          }
        }
    });
  const std::vector<JobResult> ran = batch.run(jobs);
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(batch.cache_size(), jobs.size()) << "each result cached once";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::optional<JobResult> hit = batch.lookup(jobs[i]);
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->tier, ResultTier::memory);
    expect_same_metrics(*hit, ran[i]);
  }
}

// ---- Deterministic parallel Monte-Carlo ----------------------------------

TEST(ParallelMc, PhotonLossMatchesSerialChunking) {
  const HardwareModel hw = HardwareModel::quantum_dot();
  std::vector<Tick> alive;
  for (int i = 0; i < 14; ++i) alive.push_back(40 + 13 * i);
  ThreadPool pool(3);
  const LossMcResult par =
      sample_photon_loss_parallel(hw, alive, 1000, 42, &pool);
  const LossMcResult ser =
      sample_photon_loss_parallel(hw, alive, 1000, 42, nullptr);
  EXPECT_EQ(par.state.successes, ser.state.successes);
  EXPECT_EQ(par.lost_histogram, ser.lost_histogram);
  EXPECT_DOUBLE_EQ(par.mean_lost_photons, ser.mean_lost_photons);
}

TEST(ParallelMc, EeNoiseMatchesSerialChunking) {
  const Graph g = make_ring(6);
  const FrameworkResult r = compile_framework(g, quick_framework(3));
  const HardwareModel hw = HardwareModel::quantum_dot();
  PauliMcConfig cfg;
  cfg.shots = 200;
  cfg.seed = 9;
  ThreadPool pool(3);
  const PauliMcResult par =
      sample_ee_noise_parallel(r.schedule.circuit, g, hw, cfg, &pool);
  const PauliMcResult ser =
      sample_ee_noise_parallel(r.schedule.circuit, g, hw, cfg, nullptr);
  EXPECT_EQ(par.fidelity.successes, ser.fidelity.successes);
  EXPECT_EQ(par.ee_gate_count, ser.ee_gate_count);
}

}  // namespace
}  // namespace epg
