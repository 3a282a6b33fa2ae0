// The staged-pipeline contract: the five stages run in order, each timed
// and traced, compile_framework metrics are bit-identical at any inner
// thread count and under machine load, every registered partition
// strategy yields a verified circuit, and the Executor abstraction runs
// each index exactly once whether serial, pooled, or lane-capped.
#include "compile/framework.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/compile_spec.hpp"
#include "common/json_value.hpp"
#include "graph/generators.hpp"
#include "graph/local_complement.hpp"
#include "io/graph_io.hpp"
#include "obs/trace.hpp"
#include "partition/partition_strategy.hpp"
#include "result_fingerprint.hpp"
#include "runtime/batch_compiler.hpp"
#include "solver/anneal.hpp"

namespace epg {
namespace {

/// Small structural budgets; results are a pure function of
/// (graph, config), so thread-count sweeps compare bit-identical work.
FrameworkConfig pipeline_config(const std::string& strategy = "beam") {
  FrameworkConfig cfg;
  cfg.partition.max_lc_ops = 6;
  cfg.partition.beam_width = 4;
  cfg.partition.anneal_iterations = 400;
  cfg.partition.portfolio_width = 3;
  cfg.partition.strategy = strategy;
  cfg.subgraph.node_budget = 10000;
  cfg.verify_seeds = 2;
  return cfg;
}

Graph test_instance(int which) {
  switch (which) {
    case 0: return shuffle_labels(make_lattice(3, 4), 3);  // lattice
    case 1: return shuffle_labels(make_random_tree(16, 6, 3), 4);  // tree
    default: return make_waxman(14, 2);  // random
  }
}

struct Metrics {
  std::size_t ee_cnot = 0;
  Tick makespan = 0;
  std::size_t emitters = 0;
  std::size_t stem_count = 0;
  std::uint32_t ne_limit = 0;
  std::size_t local_count = 0;
  bool verified = false;
  std::vector<Vertex> lc_sequence;
  PartitionLabels labels;

  static Metrics of(const FrameworkResult& r) {
    return {r.stats().ee_cnot_count,
            r.stats().makespan_ticks,
            r.stats().emitters_used,
            r.stem_count,
            r.ne_limit,
            r.stats().local_count,
            r.verified,
            r.partition.lc_sequence,
            r.partition.labels};
  }
  bool operator==(const Metrics&) const = default;
};

TEST(Pipeline, MetricsBitIdenticalAcrossInnerThreadCounts) {
  for (int which = 0; which < 3; ++which) {
    const Graph g = test_instance(which);
    FrameworkConfig cfg = pipeline_config();
    cfg.inner_threads = 0;
    const Metrics serial = Metrics::of(compile_framework(g, cfg));
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      cfg.inner_threads = threads;
      const Metrics parallel = Metrics::of(compile_framework(g, cfg));
      EXPECT_EQ(serial, parallel)
          << "instance " << which << " differs at inner_threads="
          << threads;
    }
  }
}

TEST(Pipeline, WorkCountersEqualAcrossInnerThreadCounts) {
  // level_searches / exhausted_searches count part-memo entries, not lane
  // computations, so lanes racing to search one level cannot move them.
  std::size_t exhausted = 0;
  std::size_t improved = 0;  // levels whose full search beat the warmup
  for (int which = 0; which < 3; ++which) {
    const Graph g = test_instance(which);
    FrameworkConfig cfg = pipeline_config();
    cfg.subgraph.node_budget = 3000;  // small enough that some searches run out
    cfg.inner_threads = 0;
    TraceRecorder rec;
    FrameworkResult serial;
    {
      ScopedTraceInstall install(&rec);
      serial = compile_framework(g, cfg);
    }
    EXPECT_GT(serial.level_searches, 0u);
    EXPECT_LE(serial.exhausted_searches, serial.level_searches);
    exhausted += serial.exhausted_searches;
    // Serially every level is searched exactly once, under one span.
    const std::vector<TraceEvent> events = rec.events();
    EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                  events.begin(), events.end(),
                  [](const TraceEvent& e) { return e.name == "level_search"; })),
              serial.level_searches);
    // Each level reports its cost after the LC-free warmup and at the end;
    // the full search's node count at its last strict improvement is 0
    // exactly when the warmup's cost stood.
    for (const TraceEvent& e : events) {
      if (e.name != "level_search") continue;
      const JsonValue args = JsonValue::parse("{" + e.args_json + "}");
      const std::string warmup = args.get_string("warmup_cost", "");
      const std::string cost = args.get_string("cost", "");
      const std::uint64_t last_change = args.get_u64("last_change_node", ~0ULL);
      ASSERT_FALSE(warmup.empty()) << e.args_json;
      ASSERT_FALSE(cost.empty()) << e.args_json;
      EXPECT_LE(last_change, args.get_u64("nodes", 0)) << e.args_json;
      EXPECT_EQ(last_change == 0, cost == warmup) << e.args_json;
      if (cost != warmup) {
        improved += 1;
        if (warmup != "none") {
          // "disconnects/swaps" compares lexicographically as numbers.
          const auto parse = [](const std::string& c) {
            const std::size_t slash = c.find('/');
            return std::pair{std::stoul(c.substr(0, slash)),
                             std::stoul(c.substr(slash + 1))};
          };
          EXPECT_LT(parse(cost), parse(warmup)) << e.args_json;
        }
      }
    }
    cfg.inner_threads = 3;
    const FrameworkResult pooled = compile_framework(g, cfg);
    EXPECT_EQ(pooled.level_searches, serial.level_searches) << which;
    EXPECT_EQ(pooled.exhausted_searches, serial.exhausted_searches) << which;
    EXPECT_EQ(pooled.subgraph_nodes, serial.subgraph_nodes) << which;
  }
  EXPECT_GT(exhausted, 0u);
  EXPECT_GT(improved, 0u);

  // A cold_paper graph (servebench seed 101) at its spec, lc 4. Its
  // partition has a 1-vertex part, whose variant walks end at level 2
  // although ne_min + 2 = 3 is within the cap, and its schedule takes the
  // dangler ladder. The counts were recorded before the subgraph
  // stage searched its levels as one flat fan-out; they pin that fan-out to
  // exactly the levels the walks search, at any lane count.
  CompileSpec spec;
  spec.lc = 4;
  const Graph g = read_graph6("N_@@OC@?@OmCOC?Oo`O");
  FrameworkConfig cfg = make_compile_job(spec, "cold", g).framework;
  cfg.inner_threads = 0;
  const FrameworkResult serial = compile_framework(g, cfg);
  EXPECT_TRUE(std::any_of(
      serial.partition.parts.begin(), serial.partition.parts.end(),
      [](const auto& part) { return part.size() == 1; }));
  EXPECT_TRUE(serial.dangler_fallback);
  EXPECT_EQ(serial.level_searches, 22u);
  EXPECT_EQ(serial.exhausted_searches, 15u);
  EXPECT_EQ(serial.subgraph_nodes, 1508705u);
  cfg.inner_threads = 3;
  const FrameworkResult pooled = compile_framework(g, cfg);
  EXPECT_EQ(pooled.level_searches, serial.level_searches);
  EXPECT_EQ(pooled.exhausted_searches, serial.exhausted_searches);
  EXPECT_EQ(pooled.subgraph_nodes, serial.subgraph_nodes);
  EXPECT_EQ(Metrics::of(pooled), Metrics::of(serial));
}

TEST(Pipeline, StrategiesBitIdenticalAcrossInnerThreadCounts) {
  const Graph g = make_waxman(14, 2);
  for (const char* strategy : {"anneal", "portfolio"}) {
    FrameworkConfig cfg = pipeline_config(strategy);
    cfg.inner_threads = 0;
    const Metrics serial = Metrics::of(compile_framework(g, cfg));
    for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      cfg.inner_threads = threads;
      EXPECT_EQ(serial, Metrics::of(compile_framework(g, cfg)))
          << strategy << " differs at inner_threads=" << threads;
    }
  }
}

// A default compile stops on work, never on time: lane count, machine
// load and an explicit unbounded deadline all give the same bytes. The
// shuffled 10x10 lattice (epgc_graphgen --seed 3 --shuffle) at lc 15 is
// large enough that its partition search ends on its budget; under a wall
// budget the same graph compiled to 137 or 152 ee-CNOTs depending on the
// moment.
TEST(Pipeline, DefaultCompileDoesNotDependOnMachineLoad) {
  const Graph g = shuffle_labels(make_lattice(10, 10), 3 * 977 + 3);
  FrameworkConfig cfg = make_compile_job(CompileSpec{}, "lattice", g).framework;
  EXPECT_EQ(config_fingerprint(cfg), config_fingerprint(FrameworkConfig{}))
      << "the default spec compiles the default FrameworkConfig";
  const std::string serial = result_fingerprint(compile_framework(g, cfg));

  cfg.inner_threads = 3;
  EXPECT_EQ(result_fingerprint(compile_framework(g, cfg)), serial)
      << "inner 3";
  cfg.inner_threads = 0;

  std::vector<std::jthread> hogs;  // busy-spin until stopped and joined
  const unsigned cores = std::thread::hardware_concurrency();
  for (unsigned i = 0; i < std::clamp(cores, 1u, 3u); ++i)
    hogs.emplace_back([](std::stop_token stop) {
      while (!stop.stop_requested()) {
      }
    });
  const std::string loaded = result_fingerprint(compile_framework(g, cfg));
  hogs.clear();
  EXPECT_EQ(loaded, serial) << "under load";

  cfg.partition.time_budget_ms = kUnboundedBudgetMs;
  cfg.subgraph.time_budget_ms = kUnboundedBudgetMs;
  EXPECT_EQ(result_fingerprint(compile_framework(g, cfg)), serial)
      << "unbounded deadlines";
}

TEST(Pipeline, EveryRegisteredStrategyProducesVerifiedCircuit) {
  const std::vector<std::string> names = partition_strategy_names();
  ASSERT_GE(names.size(), 3u);
  const Graph g = shuffle_labels(make_lattice(3, 4), 1);
  for (const std::string& name : names) {
    const FrameworkResult r =
        compile_framework(g, pipeline_config(name));
    EXPECT_TRUE(r.verified) << name;
    EXPECT_EQ(r.strategy, name);
    EXPECT_EQ(r.schedule.circuit.num_photons(), g.vertex_count()) << name;
  }
}

TEST(Pipeline, RegistryHasBuiltinsAndRejectsUnknown) {
  for (const char* name : {"beam", "anneal", "portfolio", "multilevel"}) {
    const PartitionStrategy* s = find_partition_strategy(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_EQ(find_partition_strategy("no-such-strategy"), nullptr);
  FrameworkConfig cfg = pipeline_config("no-such-strategy");
  EXPECT_THROW(compile_framework(make_ring(8), cfg),
               std::invalid_argument);
  LcPartitionConfig pcfg;
  pcfg.strategy = "no-such-strategy";
  EXPECT_THROW(search_lc_partition(make_ring(8), pcfg),
               std::invalid_argument);
}

TEST(Pipeline, StagesRunInOrderAndAreTimed) {
  const std::vector<std::string> expected = {"partition", "subgraph",
                                             "schedule", "correction",
                                             "verify"};
  const FrameworkResult r =
      compile_framework(make_ring(8), pipeline_config());
  ASSERT_EQ(r.stage_ms.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.stage_ms[i].stage, expected[i]);
    EXPECT_GE(r.stage_ms[i].ms, 0.0);
  }

  // Traced on a pooled executor: one `pipeline` span per stage, in order,
  // and every part compile (pool lanes included) inside the subgraph span.
  TraceRecorder rec;
  {
    ScopedTraceInstall install(&rec);
    FrameworkConfig cfg = pipeline_config();
    cfg.inner_threads = 2;
    compile_framework(make_waxman(14, 2), cfg);
  }
  std::vector<TraceEvent> stages;
  std::vector<TraceEvent> part_compiles;
  for (const TraceEvent& e : rec.events()) {
    if (std::find(expected.begin(), expected.end(), e.name) !=
        expected.end())
      stages.push_back(e);
    if (e.name == "part_compile") part_compiles.push_back(e);
  }
  ASSERT_EQ(stages.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(stages[i].name, expected[i]);
    EXPECT_EQ(stages[i].cat, "pipeline") << expected[i];
  }
  const TraceEvent& subgraph = stages[1];
  ASSERT_FALSE(part_compiles.empty());
  for (const TraceEvent& e : part_compiles) {
    EXPECT_GE(e.ts_us, subgraph.ts_us) << e.args_json;
    EXPECT_LE(e.ts_us + e.dur_us, subgraph.ts_us + subgraph.dur_us)
        << e.args_json;
  }
}

TEST(Pipeline, AnnealSearchOutcomeIsConsistentAndNeverWorseThanNoLc) {
  const Graph g = make_waxman(18, 7);
  LcPartitionConfig cfg;
  cfg.anneal_iterations = 400;
  const PartitionOutcome out =
      search_lc_partition_anneal(g, cfg, Executor::serial());
  // The LC sequence really produces the transformed graph.
  Graph replay = g;
  apply_lc_sequence(replay, out.lc_sequence);
  EXPECT_EQ(replay, out.transformed);
  EXPECT_LE(out.lc_sequence.size(), cfg.max_lc_ops);
  EXPECT_EQ(out.stem_edge_count,
            cut_edge_count(out.transformed, out.labels));
  // Finalize polishes the identity with the same seed, so the anneal
  // engine can never lose to the pure partition.
  LcPartitionConfig no_lc = cfg;
  no_lc.max_lc_ops = 0;
  const PartitionOutcome pure =
      search_lc_partition_anneal(g, no_lc, Executor::serial());
  EXPECT_TRUE(pure.lc_sequence.empty());
  EXPECT_LE(out.stem_edge_count, pure.stem_edge_count);
}

TEST(Pipeline, PortfolioDeterministicAndNeverWorseThanBeam) {
  const Graph g = make_complete(8);
  LcPartitionConfig cfg;
  cfg.g_max = 4;
  cfg.max_lc_ops = 6;
  cfg.anneal_iterations = 300;
  cfg.portfolio_width = 3;
  const PartitionStrategy* portfolio =
      find_partition_strategy("portfolio");
  const PartitionStrategy* beam = find_partition_strategy("beam");
  ASSERT_NE(portfolio, nullptr);
  ASSERT_NE(beam, nullptr);
  const PartitionOutcome a = portfolio->run(g, cfg, Executor::serial());
  const Executor pooled(3);
  const PartitionOutcome b = portfolio->run(g, cfg, pooled);
  EXPECT_EQ(a.lc_sequence, b.lc_sequence);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.stem_edge_count, b.stem_edge_count);
  // Slot 0 is the plain beam run at the caller's seed.
  EXPECT_LE(a.stem_edge_count,
            beam->run(g, cfg, Executor::serial()).stem_edge_count);
}

TEST(Pipeline, ExecutorRunsEveryIndexExactlyOnce) {
  const std::size_t count = 64;
  const Executor pooled(3);
  struct Flavor {
    const Executor* exec;
    const char* label;
  };
  const Executor& serial = Executor::serial();
  ThreadPool pool(4);
  const Executor borrowed(pool);
  const Executor capped(pool, 2);
  for (const Flavor& f :
       {Flavor{&serial, "serial"}, Flavor{&pooled, "owned"},
        Flavor{&borrowed, "borrowed"}, Flavor{&capped, "capped"}}) {
    std::vector<std::atomic<int>> hits(count);
    f.exec->parallel_for(count, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ(hits[i].load(), 1) << f.label << " index " << i;
  }
  EXPECT_EQ(serial.parallelism(), 1u);
  EXPECT_EQ(borrowed.parallelism(), 5u);
  EXPECT_EQ(capped.parallelism(), 2u);
}

TEST(Pipeline, CappedExecutorClaimsIndicesDynamically) {
  // One long index holds up only its own lane: the other lane claims every
  // remaining index while it runs (static per-lane chunks would queue the
  // long index's chunk-mates behind it).
  ThreadPool pool(4);
  const Executor capped(pool, 2);
  const std::size_t count = 16;
  std::vector<std::atomic<int>> hits(count);
  std::vector<std::thread::id> ran_on(count);
  std::atomic<std::size_t> running{0};
  std::atomic<std::size_t> peak{0};
  std::atomic<std::size_t> others_done{0};
  capped.parallel_for(count, [&](std::size_t i) {
    const std::size_t now = running.fetch_add(1) + 1;
    std::size_t seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    ran_on[i] = std::this_thread::get_id();
    if (i == 0) {
      // The long index: runs until every other index is done (bounded, so
      // a regression fails instead of hanging).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (others_done.load() < count - 1 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      ++others_done;
    }
    ++hits[i];
    running.fetch_sub(1);
  });
  for (std::size_t i = 0; i < count; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_LE(peak.load(), 2u);
  for (std::size_t i = 1; i < count; ++i)
    EXPECT_NE(ran_on[i], ran_on[0]) << "index " << i << " ran on the long "
                                    << "index's lane";
}

TEST(Pipeline, BatchSharedInnerPoolMatchesSerialInner) {
  std::vector<CompileJob> jobs;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    FrameworkConfig cfg = pipeline_config();
    cfg.seed = s;
    jobs.push_back(make_framework_job("wax#" + std::to_string(s),
                                      make_waxman(12, s), cfg));
  }
  BatchConfig serial_cfg;
  serial_cfg.threads = 1;
  serial_cfg.inner_threads = 0;
  BatchConfig shared_cfg;
  shared_cfg.threads = 3;
  shared_cfg.inner_threads = 2;
  BatchCompiler serial_batch(serial_cfg);
  BatchCompiler shared_batch(shared_cfg);
  const auto a = serial_batch.run(jobs);
  const auto b = shared_batch.run(jobs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].ok);
    EXPECT_TRUE(b[i].ok);
    EXPECT_EQ(a[i].stats.ee_cnot_count, b[i].stats.ee_cnot_count) << i;
    EXPECT_EQ(a[i].stats.makespan_ticks, b[i].stats.makespan_ticks) << i;
    EXPECT_EQ(a[i].stem_count, b[i].stem_count) << i;
    EXPECT_EQ(a[i].verified, b[i].verified) << i;
  }
}

}  // namespace
}  // namespace epg
