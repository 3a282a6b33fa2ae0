// The fuzzing subsystem's own contract: mutants are deterministic, valid
// compilation targets; the oracle is clean on healthy compilers; the
// shrinker preserves a failing predicate while minimizing; and — the
// planted-bug smoke test — a deliberately injected metric bug is caught by
// the differential oracle and minimized to a <= 10-vertex reproducer.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fuzz/fuzzer.hpp"
#include "fuzz/mutators.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrinker.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "io/graph_io.hpp"

namespace epg::fuzz {
namespace {

/// Cheap oracle: one strategy, small structural budgets, one replay seed.
OracleConfig tiny_oracle(std::vector<std::string> strategies = {"beam"},
                         bool baseline = true) {
  OracleConfig cfg;
  cfg.base.partition.g_max = 5;
  cfg.base.partition.max_lc_ops = 4;
  cfg.base.partition.beam_width = 3;
  cfg.base.verify_seeds = 1;
  cfg.strategies = std::move(strategies);
  cfg.include_baseline = baseline;
  cfg.verify_seeds = 1;
  return cfg;
}

TEST(Mutators, CatalogIsStable) {
  const auto& catalog = mutator_catalog();
  ASSERT_EQ(catalog.size(), 5u);
  EXPECT_EQ(catalog.front()->name(), "edge_flip");
  EXPECT_EQ(catalog.back()->name(), "crossover");
}

TEST(Mutators, SeedFamiliesAreConnectedAndSized) {
  for (std::size_t family = 0; family < seed_family_count(); ++family)
    for (std::size_t size_class = 0; size_class < 3; ++size_class) {
      const Graph g = make_seed_graph(family, size_class, 9);
      EXPECT_GE(g.vertex_count(), 3u) << seed_family_name(family);
      EXPECT_TRUE(g.is_connected()) << seed_family_name(family);
    }
}

TEST(Mutators, MutantsAreDeterministicValidTargets) {
  const Graph base = make_seed_graph(0, 1, 5);
  Rng rng_a(123), rng_b(123);
  const MutantSpec a = make_mutant(base, "lattice", 5, 24, rng_a);
  const MutantSpec b = make_mutant(base, "lattice", 5, 24, rng_b);
  EXPECT_TRUE(a.graph == b.graph);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    EXPECT_EQ(a.trace[i].detail, b.trace[i].detail);
  EXPECT_GE(a.trace.size(), 5u);  // every move recorded (+ reconnects)

  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    const MutantSpec m = make_mutant(base, "lattice", 4, 24, rng);
    EXPECT_GE(m.graph.vertex_count(), 3u);
    EXPECT_LE(m.graph.vertex_count(), 24u);
    EXPECT_TRUE(m.graph.is_connected());
  }
}

TEST(Mutators, ReconnectJoinsComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  Rng rng(5);
  EXPECT_EQ(reconnect(g, rng), 2u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(reconnect(g, rng), 0u);
}

TEST(Oracle, CleanOnHealthyCompilers) {
  const OracleConfig cfg = tiny_oracle();
  for (const Graph& g : {make_ring(6), make_lattice(2, 4),
                         shuffle_labels(make_random_tree(10, 3, 3), 8)}) {
    const OracleReport report = run_oracle(g, cfg);
    EXPECT_TRUE(report.ok()) << report.signature() << ": "
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations[0].message);
    EXPECT_EQ(report.compiles, 2u);  // beam + baseline
  }
}

TEST(Oracle, SignatureIsSortedAndDeduplicated) {
  OracleReport report;
  report.violations.push_back({"stats", "beam", "x"});
  report.violations.push_back({"crash", "baseline", "y"});
  report.violations.push_back({"stats", "beam", "z"});
  EXPECT_EQ(report.signature(), "crash:baseline,stats:beam");
}

TEST(Oracle, JobsAndBatchEvaluationMatchSerial) {
  const Graph g = make_lattice(2, 4);
  const OracleConfig cfg = tiny_oracle({"beam"}, true);
  BatchConfig bcfg;
  bcfg.threads = 2;
  BatchCompiler batch(bcfg);
  const std::vector<JobResult> results =
      batch.run(oracle_jobs(g, cfg, "t"));
  const OracleReport via_batch = evaluate_oracle(g, cfg, results);
  const OracleReport serial = run_oracle(g, cfg);
  EXPECT_EQ(via_batch.signature(), serial.signature());
  EXPECT_TRUE(via_batch.ok());
}

TEST(Shrinker, MinimizesToThePredicateCore) {
  // Predicate: contains a vertex of degree >= 3 — a star K1,3 is the
  // 4-vertex core the shrinker should essentially reach.
  const Graph g = shuffle_labels(make_lattice(4, 4), 2);
  const auto has_hub = [](const Graph& c) { return max_degree(c) >= 3; };
  ASSERT_TRUE(has_hub(g));
  const ShrinkResult s = shrink_graph(g, has_hub);
  EXPECT_TRUE(has_hub(s.graph));
  EXPECT_LE(s.graph.vertex_count(), 4u);
  EXPECT_GT(s.tests, 0u);
}

TEST(Shrinker, RespectsTestBudget) {
  const Graph g = make_lattice(3, 3);
  std::size_t calls = 0;
  const auto pred = [&](const Graph&) {
    ++calls;
    return true;  // everything "fails" — shrink to min_vertices
  };
  ShrinkConfig cfg;
  cfg.max_tests = 10;
  const ShrinkResult s = shrink_graph(g, pred, cfg);
  EXPECT_LE(s.tests, 10u);
  EXPECT_EQ(s.tests, calls);
}

// ---- the planted-bug smoke test -------------------------------------------

/// The deliberate metric bug: whenever the target has a vertex of degree
/// >= 3, the "reported" ee-CNOT count is silently inflated by one —
/// exactly the class of bookkeeping bug the differential recount exists
/// to catch.
void plant_metric_bug(OracleConfig& cfg) {
  cfg.stats_fault = [](const Graph& g, CircuitStats& s) {
    if (max_degree(g) >= 3) ++s.ee_cnot_count;
  };
}

TEST(PlantedBug, OracleCatchesAndShrinkerMinimizes) {
  OracleConfig cfg = tiny_oracle({"beam"}, false);
  plant_metric_bug(cfg);

  const Graph g = shuffle_labels(make_lattice(3, 4), 11);
  const OracleReport report = run_oracle(g, cfg);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.signature(), "stats:beam");

  const auto still_fails = [&](const Graph& candidate) {
    if (candidate.vertex_count() == 0) return false;
    const OracleReport r = run_oracle(candidate, cfg);
    for (const OracleViolation& v : r.violations)
      if (v.check == "stats") return true;
    return false;
  };
  const ShrinkResult s = shrink_graph(g, still_fails);
  EXPECT_LE(s.graph.vertex_count(), 10u);  // the acceptance bound
  EXPECT_GE(max_degree(s.graph), 3u);      // the actual bug trigger
}

TEST(PlantedBug, FuzzerFindsItAndWritesArtifacts) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "epgc_fuzz_planted_test";
  fs::remove_all(dir);

  FuzzConfig cfg;
  cfg.seed = 3;
  cfg.time_budget_s = 120.0;
  cfg.max_mutants = 6;
  cfg.mutations = 2;
  cfg.max_vertices = 16;
  cfg.oracle = tiny_oracle({"beam"}, false);
  plant_metric_bug(cfg.oracle);
  cfg.report_dir = (dir / "reports").string();
  cfg.corpus_dir = (dir / "corpus").string();
  cfg.batch.threads = 2;

  const FuzzOutcome outcome = run_fuzzer(cfg);
  ASSERT_FALSE(outcome.ok());  // nearly every family has a degree-3 vertex
  const CrashReport& crash = outcome.crashes.front();
  EXPECT_LE(crash.minimized.vertex_count(), 10u);
  EXPECT_FALSE(crash.json_path.empty());
  EXPECT_TRUE(fs::exists(crash.json_path));
  EXPECT_TRUE(fs::exists(crash.corpus_path));

  // The crash report replays: the corpus entry holds the minimized graph
  // and the JSON names the same signature.
  const CorpusEntry entry = load_corpus_file(crash.corpus_path);
  EXPECT_TRUE(entry.graph == crash.minimized);
  std::ifstream json(crash.json_path);
  std::string text((std::istreambuf_iterator<char>(json)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"signature\": \"stats:beam\""), std::string::npos);
  EXPECT_NE(text.find("--replay"), std::string::npos);
  fs::remove_all(dir);
}

TEST(Fuzzer, CleanRunOnHealthyCompilers) {
  FuzzConfig cfg;
  cfg.seed = 5;
  cfg.time_budget_s = 120.0;
  cfg.max_mutants = 4;
  cfg.mutations = 2;
  cfg.max_vertices = 14;
  cfg.oracle = tiny_oracle({"beam"}, true);
  cfg.batch.threads = 2;
  const FuzzOutcome outcome = run_fuzzer(cfg);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.stats.mutants, 4u);
  EXPECT_EQ(outcome.stats.compiles, 8u);  // beam + baseline per mutant
}

}  // namespace
}  // namespace epg::fuzz
