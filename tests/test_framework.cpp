#include "compile/framework.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "graph/generators.hpp"

namespace epg {
namespace {

FrameworkConfig quick_config() {
  FrameworkConfig cfg;
  cfg.subgraph.node_budget = 10000;
  cfg.verify_seeds = 2;
  return cfg;
}

class FrameworkFamilies : public ::testing::TestWithParam<int> {};

TEST_P(FrameworkFamilies, EndToEndVerified) {
  Graph g(1);
  switch (GetParam()) {
    case 0: g = make_linear_cluster(9); break;
    case 1: g = make_ring(8); break;
    case 2: g = make_lattice(3, 4); break;
    case 3: g = make_balanced_tree(2, 3); break;
    case 4: g = make_waxman(14, 2); break;
    case 5: g = shuffle_labels(make_lattice(4, 4), 3); break;
    case 6: g = make_repeater_graph_state(2); break;
    case 7: g = shuffle_labels(make_random_tree(16, 6, 3), 4); break;
    default: g = make_star(10); break;
  }
  const FrameworkResult r = compile_framework(g, quick_config());
  EXPECT_TRUE(r.verified);  // compile_framework throws otherwise
  EXPECT_EQ(r.schedule.circuit.num_photons(), g.vertex_count());
  EXPECT_GE(r.ne_limit, r.ne_min == 0 ? 0u : 1u);
  EXPECT_EQ(r.stem_count, r.partition.stem_edge_count);
}

INSTANTIATE_TEST_SUITE_P(Graphs, FrameworkFamilies, ::testing::Range(0, 9));

TEST(Framework, LcCorrectionsRestoreExactTarget) {
  // Force LC usage: complete graph partitions much better LC-transformed,
  // and the result must still be exactly |K_7> (verified internally).
  FrameworkConfig cfg = quick_config();
  cfg.partition.g_max = 4;
  cfg.partition.max_lc_ops = 10;
  const Graph g = make_complete(7);
  const FrameworkResult r = compile_framework(g, cfg);
  EXPECT_TRUE(r.verified);
}

TEST(Framework, NeLimitFactorApplied) {
  const Graph g = shuffle_labels(make_lattice(3, 4), 1);
  FrameworkConfig cfg = quick_config();
  cfg.ne_limit_factor = 2.0;
  const FrameworkResult r = compile_framework(g, cfg);
  EXPECT_EQ(r.ne_limit,
            static_cast<std::uint32_t>(std::ceil(2.0 * r.ne_min)));
  FrameworkConfig forced = quick_config();
  forced.ne_limit_override = 3;
  const FrameworkResult f = compile_framework(g, forced);
  EXPECT_EQ(f.ne_limit, 3u);
}

TEST(Framework, TetrisNotWorseThanSequential) {
  const Graph g = shuffle_labels(make_lattice(4, 5), 2);
  FrameworkConfig tetris = quick_config();
  FrameworkConfig sequential = quick_config();
  sequential.alap_tetris = false;
  const auto fast = compile_framework(g, tetris);
  const auto slow = compile_framework(g, sequential);
  EXPECT_LE(fast.stats().makespan_ticks, slow.stats().makespan_ticks);
}

TEST(Framework, DeterministicForSeed) {
  const Graph g = make_waxman(12, 8);
  const auto a = compile_framework(g, quick_config());
  const auto b = compile_framework(g, quick_config());
  EXPECT_EQ(a.stats().ee_cnot_count, b.stats().ee_cnot_count);
  EXPECT_EQ(a.stats().makespan_ticks, b.stats().makespan_ticks);
  EXPECT_EQ(a.stem_count, b.stem_count);
}

TEST(Framework, StatsAreInternallyConsistent) {
  const Graph g = make_waxman(15, 5);
  const FrameworkResult r = compile_framework(g, quick_config());
  const CircuitStats& s = r.stats();
  EXPECT_EQ(s.emission_count, g.vertex_count());
  EXPECT_GE(s.ee_cnot_count, r.stem_count);  // stems are ee-CZs
  EXPECT_GT(s.duration_tau, 0.0);
  EXPECT_LE(s.loss.state_survival, 1.0);
  EXPECT_GE(s.t_loss_tau, 0.0);
  EXPECT_LE(s.t_loss_tau, s.duration_tau);
}

TEST(Framework, RejectsEmptyGraph) {
  EXPECT_THROW(compile_framework(Graph(0), quick_config()),
               std::invalid_argument);
}

TEST_P(FrameworkFamilies, ScheduleIsPhysical) {
  // Structural invariants of the emitted global schedule, independent of
  // the stabilizer check: wire causality (no overlapping gates on a qubit,
  // list order = time order per wire), recorded emission times, and a peak
  // usage no larger than the emitter register.
  Graph g(1);
  switch (GetParam()) {
    case 0: g = make_linear_cluster(9); break;
    case 1: g = make_ring(8); break;
    case 2: g = make_lattice(3, 4); break;
    case 3: g = make_balanced_tree(2, 3); break;
    case 4: g = make_waxman(14, 2); break;
    case 5: g = shuffle_labels(make_lattice(4, 4), 3); break;
    case 6: g = make_repeater_graph_state(2); break;
    case 7: g = shuffle_labels(make_random_tree(16, 6, 3), 4); break;
    default: g = make_star(10); break;
  }
  const FrameworkResult r = compile_framework(g, quick_config());
  const GlobalSchedule& s = r.schedule;
  ASSERT_EQ(s.gate_start.size(), s.circuit.size());
  std::map<std::pair<int, std::uint32_t>, Tick> last_end;
  for (std::size_t i = 0; i < s.circuit.size(); ++i) {
    const Gate& gate = s.circuit.gates()[i];
    EXPECT_LE(s.gate_start[i], s.gate_end[i]);
    EXPECT_LE(s.gate_end[i], s.makespan);
    auto check = [&](QubitId q) {
      const auto key = std::make_pair(static_cast<int>(q.kind), q.index);
      EXPECT_GE(s.gate_start[i], last_end[key])
          << "overlap at gate " << i << ": " << gate.str();
      last_end[key] = std::max(last_end[key], s.gate_end[i]);
    };
    check(gate.a);
    if (gate.is_two_qubit()) check(gate.b);
    if (gate.kind == GateKind::emission)
      EXPECT_EQ(s.photon_emit[gate.b.index], s.gate_end[i]);
  }
  EXPECT_EQ(s.peak_usage, s.circuit.num_emitters());
}

TEST(Framework, DanglerHostingNeverCostsCnotsOnLattices) {
  // Boundary emission through dangler hosts is what keeps dense partitions
  // (every block vertex on the boundary) from paying one ee-CZ per internal
  // edge; the anchors-only ablation must never beat it on ee-CZ count.
  const Graph g = shuffle_labels(make_lattice(4, 5), 7);
  FrameworkConfig with = quick_config();
  FrameworkConfig without = quick_config();
  without.subgraph.dangler = DanglerPolicy::anchors_only;
  const FrameworkResult a = compile_framework(g, with);
  const FrameworkResult b = compile_framework(g, without);
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  EXPECT_LE(a.stats().ee_cnot_count, b.stats().ee_cnot_count);
}

TEST(Framework, AnchorsOnlyModeNeverFallsBack) {
  FrameworkConfig cfg = quick_config();
  cfg.subgraph.dangler = DanglerPolicy::anchors_only;
  const FrameworkResult r =
      compile_framework(shuffle_labels(make_lattice(3, 4), 5), cfg);
  EXPECT_TRUE(r.verified);
  EXPECT_FALSE(r.dangler_fallback);  // single-window slots cannot deadlock
}

}  // namespace
}  // namespace epg
