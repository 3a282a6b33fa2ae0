#include "compile/subgraph_compiler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "circuit/serialize.hpp"
#include "circuit/simulate.hpp"
#include "compile/verify.hpp"
#include "graph/generators.hpp"

namespace epg {
namespace {

SubgraphCompileConfig quick_config(std::uint32_t ne) {
  SubgraphCompileConfig cfg;
  cfg.ne_limit = ne;
  cfg.node_budget = 15000;
  return cfg;
}

TEST(SubgraphCompiler, PathNeedsNoEntanglingGates) {
  const auto r =
      compile_subgraph(SubgraphSpec(make_linear_cluster(6)), quick_config(1));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.best.stats.ee_cnot_count, 0u);
  EXPECT_EQ(r.best.ne_used, 1u);
}

TEST(SubgraphCompiler, StarNeedsNoEntanglingGates) {
  const auto r =
      compile_subgraph(SubgraphSpec(make_star(7)), quick_config(1));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.best.stats.ee_cnot_count, 0u);
}

TEST(SubgraphCompiler, CompleteGraphViaLcIsFree) {
  // K_n is LC-equivalent to a star; the in-search LC should find it.
  const auto r =
      compile_subgraph(SubgraphSpec(make_complete(5)), quick_config(1));
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.best.stats.ee_cnot_count, 0u);
}

TEST(SubgraphCompiler, RingNeedsEntanglement) {
  const auto r =
      compile_subgraph(SubgraphSpec(make_ring(5)), quick_config(2));
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.best.stats.ee_cnot_count, 1u);
  EXPECT_LE(r.best.stats.ee_cnot_count, 2u);
}

TEST(SubgraphCompiler, RelaxesInfeasibleEmitterLimit) {
  // A 6-cycle cannot be produced with a single emitter: every size-3 vertex
  // subset of C6 has cut-rank >= 2, and cut-rank is invariant under the
  // reduction's LC moves. (C4 would be a bad pick here — it is LC-equivalent
  // to a path and genuinely compiles with one emitter.)
  const auto r =
      compile_subgraph(SubgraphSpec(make_ring(6)), quick_config(1));
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(r.relaxed_ne);
  EXPECT_GE(r.ne_limit_used, 2u);
}

TEST(SubgraphCompiler, BoundaryDanglerHostRecorded) {
  // Path 0-1-2 with 0 on a stem edge: the cheapest reduction swaps the far
  // end and dangler-absorbs down the chain, so the boundary photon is
  // emitted by a host window (via_swap=false) instead of a dedicated
  // anchor, saving the second emitter slot.
  SubgraphSpec spec(make_linear_cluster(3), {true, false, false});
  const auto r = compile_subgraph(spec, quick_config(2));
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.best.anchors.size(), 1u);
  EXPECT_EQ(r.best.anchors[0].vertex, 0u);
  EXPECT_FALSE(r.best.anchors[0].via_swap);
  EXPECT_EQ(r.best.stats.ee_cnot_count, 0u);
  EXPECT_EQ(r.best.ne_used, 1u);
  // The window gate range is valid and points at the emission cluster.
  EXPECT_LT(r.best.anchors[0].tail_begin, r.best.circuit.size());
}

TEST(SubgraphCompiler, AnchorsOnlyPolicyForcesSwapHosts) {
  SubgraphSpec spec(make_linear_cluster(3), {true, false, false});
  SubgraphCompileConfig cfg = quick_config(3);
  cfg.dangler = DanglerPolicy::anchors_only;
  const auto r = compile_subgraph(spec, cfg);
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.best.anchors.size(), 1u);
  EXPECT_TRUE(r.best.anchors[0].via_swap);
}

TEST(SubgraphCompiler, NeMinHelper) {
  EXPECT_EQ(subgraph_ne_min(make_linear_cluster(5)), 1u);
  EXPECT_EQ(subgraph_ne_min(make_star(6)), 1u);
  EXPECT_EQ(subgraph_ne_min(make_ring(6)), 2u);
  EXPECT_GE(subgraph_ne_min(make_lattice(2, 3)), 2u);
}

TEST(SubgraphCompiler, BoundaryAnchorsProduced) {
  SubgraphSpec spec(make_linear_cluster(5),
                    {true, false, false, false, true});
  const auto r = compile_subgraph(spec, quick_config(3));
  ASSERT_TRUE(r.success);
  ASSERT_EQ(r.best.anchors.size(), 2u);
  // Anchors reference the boundary vertices and valid slots/gates.
  for (const AnchorInfo& a : r.best.anchors) {
    EXPECT_TRUE(a.vertex == 0 || a.vertex == 4);
    EXPECT_LT(a.init_gate, r.best.circuit.size());
    EXPECT_LT(a.tail_begin, r.best.circuit.size());
    const Gate& tail = r.best.circuit.gates()[a.tail_begin];
    EXPECT_EQ(tail.kind, GateKind::emission);
    EXPECT_EQ(tail.b.index, a.vertex);
    EXPECT_EQ(tail.a.index, a.slot);
  }
}

TEST(SubgraphCompiler, VerifiedAgainstTarget) {
  for (const Graph& g : {make_ring(6), make_lattice(2, 3), make_waxman(7, 1),
                         make_complete(4)}) {
    const auto r = compile_subgraph(SubgraphSpec(g), quick_config(2));
    ASSERT_TRUE(r.success);
    const VerifyReport report = verify_generates(r.best.circuit, g, 3);
    EXPECT_TRUE(report.ok) << report.message;
  }
}

/// Property sweep: every connected 4-vertex graph (by edge mask) compiles
/// and verifies, with and without boundary vertices.
class AllFourVertexGraphs : public ::testing::TestWithParam<unsigned> {};

TEST_P(AllFourVertexGraphs, CompilesAndVerifies) {
  const unsigned mask = GetParam();
  const Edge all_edges[6] = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}};
  Graph g(4);
  for (int b = 0; b < 6; ++b)
    if (mask & (1u << b)) g.add_edge(all_edges[b].first, all_edges[b].second);

  const auto r = compile_subgraph(SubgraphSpec(g), quick_config(2));
  ASSERT_TRUE(r.success) << "mask " << mask;
  EXPECT_TRUE(verify_generates(r.best.circuit, g, 2).ok) << "mask " << mask;

  // Same graph with vertex 0 marked as a stem endpoint.
  SubgraphSpec spec(g, {true, false, false, false});
  const auto rb = compile_subgraph(spec, quick_config(2));
  ASSERT_TRUE(rb.success) << "mask " << mask;
  ASSERT_EQ(rb.best.anchors.size(), 1u);
  EXPECT_TRUE(verify_generates(rb.best.circuit, g, 2).ok) << "mask " << mask;
}

INSTANTIATE_TEST_SUITE_P(EdgeMasks, AllFourVertexGraphs,
                         ::testing::Range(0u, 64u));

TEST(SubgraphCompiler, MoreEmittersNeverWorseOnCnots) {
  const Graph g = make_lattice(2, 3);
  const auto r2 = compile_subgraph(SubgraphSpec(g), quick_config(2));
  auto cfg3 = quick_config(3);
  const auto r3 = compile_subgraph(SubgraphSpec(g), cfg3);
  ASSERT_TRUE(r2.success && r3.success);
  EXPECT_LE(r3.best.stats.ee_cnot_count, r2.best.stats.ee_cnot_count);
}

TEST(SubgraphCompiler, SynthesizeForwardIsDeterministic) {
  const Graph g = make_ring(5);
  const auto a = compile_subgraph(SubgraphSpec(g), quick_config(2));
  const auto b = compile_subgraph(SubgraphSpec(g), quick_config(2));
  ASSERT_TRUE(a.success && b.success);
  EXPECT_EQ(a.best.circuit.size(), b.best.circuit.size());
  EXPECT_EQ(a.best.stats.ee_cnot_count, b.best.stats.ee_cnot_count);
  EXPECT_EQ(a.best.stats.makespan_ticks, b.best.stats.makespan_ticks);
}

/// compile_variants' level walk — each (policy, ne) level searched once and
/// served to every walk that passes it — must rebuild exactly the results
/// of separate compile_subgraph calls at ne_min, +1 and +2.
void expect_level_walk_matches_separate_calls(const SubgraphSpec& spec,
                                              SubgraphCompileConfig cfg,
                                              std::uint32_t ne_min) {
  const auto last_ne =
      static_cast<std::uint32_t>(spec.graph.vertex_count()) + 1;
  std::map<std::uint32_t, std::shared_ptr<const SubgraphLevelResult>> memo;
  std::size_t searches = 0;
  const auto level = [&](std::uint32_t ne) {
    auto& slot = memo[ne];
    if (!slot) {
      ++searches;
      slot = std::make_shared<const SubgraphLevelResult>(
          compile_subgraph_level(spec, cfg, ne));
    }
    return slot;
  };
  std::size_t separate_levels = 0;
  for (std::uint32_t ne = ne_min; ne < ne_min + 3; ++ne) {
    SCOPED_TRACE("ne " + std::to_string(ne));
    cfg.ne_limit = ne;
    const SubgraphCompileResult want = compile_subgraph(spec, cfg);
    const SubgraphCompileResult got = walk_subgraph_levels(ne, last_ne, level);
    separate_levels += want.ne_limit_used - ne + 1;
    ASSERT_TRUE(want.success);
    // The contract itself: nodes summed over every level from ne up to and
    // including the first success, relaxed exactly when that is above ne.
    std::size_t level_nodes = 0;
    std::uint32_t first_success = ne;
    for (;; ++first_success) {
      level_nodes += level(first_success)->nodes_explored;
      if (level(first_success)->success) break;
    }
    EXPECT_EQ(want.ne_limit_used, first_success);
    EXPECT_EQ(want.relaxed_ne, first_success != ne);
    EXPECT_EQ(want.nodes_explored, level_nodes);
    EXPECT_EQ(got.success, want.success);
    EXPECT_EQ(got.relaxed_ne, want.relaxed_ne);
    EXPECT_EQ(got.ne_limit_used, want.ne_limit_used);
    EXPECT_EQ(got.nodes_explored, want.nodes_explored);
    EXPECT_EQ(got.sequences_found, want.sequences_found);
    EXPECT_EQ(got.memo_peak, want.memo_peak);
    EXPECT_EQ(serialize_circuit(got.best.circuit),
              serialize_circuit(want.best.circuit));
    EXPECT_EQ(got.best.ne_used, want.best.ne_used);
    EXPECT_EQ(got.best.ops.size(), want.best.ops.size());
    EXPECT_EQ(got.best.stats.str(), want.best.stats.str());
    ASSERT_EQ(got.best.anchors.size(), want.best.anchors.size());
    for (std::size_t i = 0; i < got.best.anchors.size(); ++i) {
      const AnchorInfo& a = got.best.anchors[i];
      const AnchorInfo& b = want.best.anchors[i];
      EXPECT_EQ(std::tie(a.vertex, a.slot, a.init_gate, a.tail_begin,
                         a.via_swap),
                std::tie(b.vertex, b.slot, b.init_gate, b.tail_begin,
                         b.via_swap));
    }
  }
  // Every level the separate calls visited is searched exactly once.
  EXPECT_EQ(searches, memo.size());
  EXPECT_LT(searches, separate_levels);
}

TEST(SubgraphCompiler, LevelWalkFromInfeasibleNeMatchesSeparateCalls) {
  // C6 needs two emitters, so the walk from ne 1 moves up to ne 2 and the
  // +1 call starts on a level the first walk already searched.
  expect_level_walk_matches_separate_calls(SubgraphSpec(make_ring(6)),
                                           quick_config(1), 1);
}

TEST(SubgraphCompiler, LevelWalkWithBoundaryMatchesSeparateCalls) {
  const Graph g = make_lattice(2, 3);
  const SubgraphSpec spec(g, {true, false, false, false, true, true});
  expect_level_walk_matches_separate_calls(spec, quick_config(1), 1);
  SubgraphCompileConfig anchors = quick_config(1);
  anchors.dangler = DanglerPolicy::anchors_only;
  expect_level_walk_matches_separate_calls(spec, anchors,
                                           subgraph_ne_min(g));
}

}  // namespace
}  // namespace epg
