// Coarsening invariants and the multilevel strategy's contracts:
//
//   * round-trip — projection maps are total (every fine vertex lands in
//     a real cluster; isolated vertices become singletons) and cluster
//     weights count their fine preimages exactly;
//   * conservation — for ANY labelling of a coarse graph, the weighted
//     cut equals the weighted cut of the projected labelling one level
//     finer (so refining on a coarse level optimizes the true objective);
//   * determinism — multilevel outcomes are bit-identical across inner
//     executor thread counts {0, 2, 8};
//   * quality — multilevel never loses to the flat beam search on the 9
//     generator families (delegation below the floor makes it exact;
//     the race keeps the guarantee when coarsening is forced on);
//   * sentinel agreement — Graph::induced's old_to_new is PARTIAL
//     (dropped vertices marked Graph::kNoVertex, kept isolated vertices
//     mapped and preserved), while coarsening maps never contain the
//     sentinel. The regression tests pin both conventions.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "graph/coarsen.hpp"
#include "graph/generators.hpp"
#include "graph/local_complement.hpp"
#include "graph/metrics.hpp"
#include "neighbor_list.hpp"
#include "partition/partition_strategy.hpp"
#include "solver/partition_refine.hpp"

namespace epg {
namespace {

LcPartitionConfig small_cfg() {
  LcPartitionConfig cfg;
  cfg.g_max = 6;
  cfg.max_lc_ops = 4;
  cfg.beam_width = 3;
  cfg.quick_restarts = 1;
  cfg.final_restarts = 4;
  cfg.anneal_iterations = 200;
  cfg.portfolio_width = 2;
  cfg.seed = 5;
  return cfg;
}

/// The fuzzer's 9 seed families at corpus-like sizes.
std::vector<std::pair<std::string, Graph>> nine_families() {
  return {{"lattice", make_lattice(5, 6)},
          {"linear", make_linear_cluster(24)},
          {"ring", make_ring(24)},
          {"star", make_star(20)},
          {"balanced_tree", make_balanced_tree(3, 3)},
          {"random_tree", make_random_tree(30, 11, 3)},
          {"waxman", make_waxman(26, 7)},
          {"erdos_renyi", make_erdos_renyi(22, 0.18, 3)},
          {"repeater", make_repeater_graph_state(5)}};
}

TEST(Coarsen, CsrViewMatchesGraphAndLaneCount) {
  const Graph g = make_waxman(40, 3);
  const CoarseGraph serial = coarse_from_graph(g, Executor::serial());
  const Executor pool(3);
  const CoarseGraph parallel = coarse_from_graph(g, pool);
  ASSERT_EQ(serial.n, g.vertex_count());
  EXPECT_EQ(serial.xadj, parallel.xadj);
  EXPECT_EQ(serial.adjncy, parallel.adjncy);
  EXPECT_EQ(serial.total_vertex_weight(), g.vertex_count());
  EXPECT_EQ(serial.total_edge_weight(), g.edge_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    const std::vector<Vertex> nb = neighbor_list(g, v);
    ASSERT_EQ(serial.degree(v), nb.size());
    for (std::size_t i = 0; i < nb.size(); ++i) {
      EXPECT_EQ(serial.adjncy[serial.xadj[v] + i], nb[i]);
      EXPECT_EQ(serial.adjwgt[serial.xadj[v] + i], 1u);
    }
  }
  EXPECT_EQ(expand_to_graph(serial), g);
}

TEST(Coarsen, ProjectionRoundTripPreservesVertexPartition) {
  const Graph g = shuffle_labels(make_random_tree(400, 9, 3), 4);
  CoarsenOptions opt;
  opt.floor_vertices = 40;
  opt.cluster_weight_cap = 7;
  const CoarsenHierarchy hier =
      coarsen_to_floor(g, opt, Executor::serial());
  ASSERT_GE(hier.level_count(), 2u) << "a 400-vertex tree must coarsen";
  EXPECT_LE(hier.coarsest().n, 400u / 4);

  for (std::size_t lvl = 0; lvl < hier.maps.size(); ++lvl) {
    const CoarseGraph& fine = hier.graphs[lvl];
    const CoarseGraph& coarse = hier.graphs[lvl + 1];
    const std::vector<Vertex>& map = hier.maps[lvl];
    ASSERT_EQ(map.size(), fine.n);
    // Total map: every fine vertex names a real cluster — never the
    // kNoVertex sentinel partial maps use.
    std::vector<std::uint64_t> preimage_weight(coarse.n, 0);
    for (Vertex v = 0; v < fine.n; ++v) {
      ASSERT_NE(map[v], Graph::kNoVertex);
      ASSERT_LT(map[v], coarse.n);
      preimage_weight[map[v]] += fine.vwgt[v];
    }
    // Cluster weights count exactly their fine preimages, and no
    // cluster outgrows the cap.
    for (Vertex c = 0; c < coarse.n; ++c) {
      EXPECT_EQ(preimage_weight[c], coarse.vwgt[c]);
      EXPECT_LE(coarse.vwgt[c], opt.cluster_weight_cap);
    }
    EXPECT_EQ(fine.total_vertex_weight(), coarse.total_vertex_weight());

    // Projecting the identity labelling of the coarse level partitions
    // the fine level into exactly the clusters.
    PartitionLabels identity(coarse.n);
    std::iota(identity.begin(), identity.end(), 0);
    const PartitionLabels projected = project_labels(map, identity);
    for (Vertex v = 0; v < fine.n; ++v)
      EXPECT_EQ(projected[v], map[v]);
  }
}

TEST(Coarsen, CoarseEdgeWeightsConserveCutWeight) {
  const Graph g = make_waxman(120, 21);
  CoarsenOptions opt;
  opt.floor_vertices = 12;
  opt.cluster_weight_cap = 7;
  const CoarsenHierarchy hier =
      coarsen_to_floor(g, opt, Executor::serial());
  ASSERT_GE(hier.level_count(), 2u);

  // Unit-weight level 0 cut equals the Graph cut for arbitrary labels.
  Rng rng(77);
  PartitionLabels fine_labels(g.vertex_count());
  for (auto& l : fine_labels)
    l = static_cast<std::uint32_t>(rng.below(9));
  EXPECT_EQ(coarse_cut_weight(hier.graphs[0], fine_labels),
            cut_edge_count(g, fine_labels));

  // For every level and several random labellings of the coarse side,
  // the weighted cut is invariant under projection.
  for (std::size_t lvl = 0; lvl < hier.maps.size(); ++lvl) {
    for (int trial = 0; trial < 5; ++trial) {
      PartitionLabels coarse_labels(hier.graphs[lvl + 1].n);
      for (auto& l : coarse_labels)
        l = static_cast<std::uint32_t>(rng.below(4 + trial));
      const PartitionLabels projected =
          project_labels(hier.maps[lvl], coarse_labels);
      EXPECT_EQ(coarse_cut_weight(hier.graphs[lvl + 1], coarse_labels),
                coarse_cut_weight(hier.graphs[lvl], projected));
    }
  }

  // The part-quotient graph obeys the same conservation: the quotient
  // by any labelling keeps total vertex weight and the identity
  // labelling of the quotient reproduces the cut.
  PartitionLabels labels(hier.graphs[0].n);
  for (auto& l : labels) l = static_cast<std::uint32_t>(rng.below(17));
  const CoarseGraph q = quotient_graph(hier.graphs[0], labels);
  EXPECT_EQ(q.total_vertex_weight(),
            hier.graphs[0].total_vertex_weight());
  PartitionLabels qid(q.n);
  std::iota(qid.begin(), qid.end(), 0);
  EXPECT_EQ(coarse_cut_weight(q, qid),
            coarse_cut_weight(hier.graphs[0], labels));
}

TEST(Coarsen, MultilevelDeterministicAcrossThreadCounts) {
  const PartitionStrategy* multilevel =
      find_partition_strategy("multilevel");
  ASSERT_NE(multilevel, nullptr);
  // Above the floor (coarsening active) on all three bench families.
  const std::vector<Graph> graphs = {
      shuffle_labels(make_lattice(20, 20), 2),
      shuffle_labels(make_random_tree(420, 5, 3), 3),
      shuffle_labels(make_sparse_random(400, 4.0, 9), 4)};
  for (const Graph& g : graphs) {
    LcPartitionConfig cfg = small_cfg();
    cfg.g_max = 7;
    const PartitionOutcome base =
        multilevel->run(g, cfg, Executor::serial());
    EXPECT_TRUE(partition_is_valid(base.transformed, base.labels, 7));
    Graph replay = g;
    for (Vertex v : base.lc_sequence) local_complement(replay, v);
    EXPECT_EQ(replay, base.transformed);
    for (std::size_t threads : {2u, 8u}) {
      const Executor exec(threads);
      const PartitionOutcome out = multilevel->run(g, cfg, exec);
      EXPECT_EQ(out.stem_edge_count, base.stem_edge_count);
      EXPECT_EQ(out.labels, base.labels);
      EXPECT_EQ(out.lc_sequence, base.lc_sequence);
      EXPECT_EQ(out.transformed, base.transformed);
    }
  }
}

TEST(Coarsen, MultilevelNeverLosesToBeamOnNineFamilies) {
  const PartitionStrategy* multilevel =
      find_partition_strategy("multilevel");
  const PartitionStrategy* beam = find_partition_strategy("beam");
  ASSERT_NE(multilevel, nullptr);
  ASSERT_NE(beam, nullptr);
  for (const auto& [name, g] : nine_families()) {
    SCOPED_TRACE(name);
    LcPartitionConfig cfg = small_cfg();
    const PartitionOutcome flat = beam->run(g, cfg, Executor::serial());

    // Production config: these sizes sit below the coarsen floor, so
    // multilevel delegates and must reproduce beam exactly.
    const PartitionOutcome delegated =
        multilevel->run(g, cfg, Executor::serial());
    EXPECT_EQ(delegated.stem_edge_count, flat.stem_edge_count);
    EXPECT_EQ(delegated.labels, flat.labels);
    EXPECT_EQ(delegated.lc_sequence, flat.lc_sequence);

    // Coarsening forced on (the fuzz configuration's floor): the race
    // still guarantees multilevel never loses the objective.
    cfg.coarsen_floor = 12;
    cfg.multilevel_race_limit = 192;
    const PartitionOutcome raced =
        multilevel->run(g, cfg, Executor::serial());
    EXPECT_LE(raced.stem_edge_count, flat.stem_edge_count);
    EXPECT_TRUE(
        partition_is_valid(raced.transformed, raced.labels, cfg.g_max));
    EXPECT_LE(raced.lc_sequence.size(), cfg.max_lc_ops);
  }
}

// ---- isolated-vertex regression: induced vs coarsening ---------------------

TEST(Coarsen, InducedOldToNewKeepsIsolatedVerticesAndMarksDropped) {
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(5, 6);
  // 3 and 4 are isolated; keep 4 (isolated), drop 3.
  std::vector<Vertex> map;
  const Graph sub = g.induced({1, 4, 5, 6}, &map);
  ASSERT_EQ(sub.vertex_count(), 4u);
  // Kept vertices — isolated ones included — map to their new index...
  EXPECT_EQ(map[1], 0u);
  EXPECT_EQ(map[4], 1u);
  EXPECT_EQ(map[5], 2u);
  EXPECT_EQ(map[6], 3u);
  // ...and the isolated vertex survives as an isolated vertex.
  EXPECT_TRUE(sub.is_isolated(1));
  EXPECT_TRUE(sub.has_edge(2, 3));
  EXPECT_EQ(sub.edge_count(), 1u);
  // Dropped vertices — connected or isolated — carry the sentinel.
  EXPECT_EQ(map[0], Graph::kNoVertex);
  EXPECT_EQ(map[2], Graph::kNoVertex);
  EXPECT_EQ(map[3], Graph::kNoVertex);
}

TEST(Coarsen, CoarseningMapsIsolatedVerticesTotally) {
  // A graph with isolated vertices and danglers: the coarsening contract
  // is a TOTAL map — isolated vertices become (or join) real clusters,
  // never the kNoVertex sentinel induced() uses for dropped vertices.
  Graph g = make_random_tree(60, 13, 3);
  for (int i = 0; i < 6; ++i) g.add_vertex();  // isolated tail
  CoarsenOptions opt;
  opt.floor_vertices = 8;
  opt.cluster_weight_cap = 5;
  const CoarsenHierarchy hier =
      coarsen_to_floor(g, opt, Executor::serial());
  ASSERT_GE(hier.level_count(), 2u);
  std::uint64_t weight = 0;
  for (Vertex c = 0; c < hier.coarsest().n; ++c)
    weight += hier.coarsest().vwgt[c];
  EXPECT_EQ(weight, g.vertex_count());
  for (const auto& map : hier.maps)
    for (Vertex mapped : map) EXPECT_NE(mapped, Graph::kNoVertex);

  // And the multilevel strategy built on it covers every vertex with a
  // valid part — isolated vertices included.
  const PartitionStrategy* multilevel =
      find_partition_strategy("multilevel");
  LcPartitionConfig cfg = small_cfg();
  cfg.coarsen_floor = 8;
  cfg.multilevel_race_limit = 0;  // pure coarsen-refine path
  const PartitionOutcome out =
      multilevel->run(g, cfg, Executor::serial());
  ASSERT_EQ(out.labels.size(), g.vertex_count());
  EXPECT_TRUE(partition_is_valid(out.transformed, out.labels, cfg.g_max));
  for (const auto& part : out.parts) EXPECT_FALSE(part.empty());
}

}  // namespace
}  // namespace epg
