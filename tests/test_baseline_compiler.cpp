#include "compile/baseline_compiler.hpp"

#include <gtest/gtest.h>

#include "compile/verify.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"

namespace epg {
namespace {

TEST(Baseline, PathWithNaturalOrderIsFree) {
  BaselineConfig cfg;
  cfg.order_restarts = 0;
  const BaselineResult r = compile_baseline(make_linear_cluster(8), cfg);
  EXPECT_EQ(r.stats.ee_cnot_count, 0u);
  EXPECT_EQ(r.ne_min, 1u);
}

TEST(Baseline, EmitterCountMatchesHeightBound) {
  const Graph g = make_lattice(3, 4);
  BaselineConfig cfg;
  cfg.order_restarts = 0;
  const BaselineResult r = compile_baseline(g, cfg);
  std::vector<Vertex> natural(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) natural[v] = v;
  EXPECT_EQ(r.ne_min, min_emitters_for_order(g, natural));
}

class BaselineFamilies : public ::testing::TestWithParam<int> {};

TEST_P(BaselineFamilies, CompilesAndVerifies) {
  Graph g(1);
  switch (GetParam()) {
    case 0: g = make_linear_cluster(12); break;
    case 1: g = make_ring(10); break;
    case 2: g = make_lattice(3, 5); break;
    case 3: g = make_balanced_tree(2, 3); break;
    case 4: g = make_waxman(16, 7); break;
    case 5: g = make_repeater_graph_state(2); break;
    case 6: g = shuffle_labels(make_lattice(4, 4), 5); break;
    default: g = make_star(9); break;
  }
  BaselineConfig cfg;
  cfg.order_restarts = 1;
  cfg.verify = false;  // verified explicitly below
  const BaselineResult r = compile_baseline(g, cfg);
  ASSERT_TRUE(r.success);
  const VerifyReport report = verify_generates(r.circuit, g, 3);
  EXPECT_TRUE(report.ok) << report.message;
}

INSTANTIATE_TEST_SUITE_P(Graphs, BaselineFamilies, ::testing::Range(0, 8));

TEST(Baseline, OrderRestartsNeverHurt) {
  const Graph g = shuffle_labels(make_waxman(14, 3), 9);
  BaselineConfig no_restart;
  no_restart.order_restarts = 0;
  BaselineConfig restarts;
  restarts.order_restarts = 6;
  const auto a = compile_baseline(g, no_restart);
  const auto b = compile_baseline(g, restarts);
  EXPECT_LE(b.stats.ee_cnot_count, a.stats.ee_cnot_count);
}

TEST(Baseline, ExtraEmittersAccepted) {
  const Graph g = make_ring(8);
  BaselineConfig cfg;
  cfg.num_emitters = 5;
  const BaselineResult r = compile_baseline(g, cfg);
  EXPECT_EQ(r.circuit.num_emitters(), 5u);
  EXPECT_TRUE(verify_generates(r.circuit, g, 2).ok);
}

TEST(Baseline, EmissionOrderRecorded) {
  const Graph g = make_linear_cluster(5);
  BaselineConfig cfg;
  cfg.order_restarts = 0;
  const BaselineResult r = compile_baseline(g, cfg);
  EXPECT_EQ(r.emission_order.size(), 5u);
}

}  // namespace
}  // namespace epg
