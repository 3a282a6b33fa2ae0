#include "compile/stem.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/generators.hpp"
#include "partition/lc_partition_search.hpp"

namespace epg {
namespace {

PartitionOutcome fixed_outcome(const Graph& g, PartitionLabels labels) {
  return make_outcome(g, {}, labels);
}

TEST(Stem, SplitsRingIntoArcs) {
  const Graph g = make_ring(6);
  const StemPlan plan =
      plan_stems(fixed_outcome(g, {0, 0, 0, 1, 1, 1}));
  ASSERT_EQ(plan.parts.size(), 2u);
  EXPECT_EQ(plan.stem_edges.size(), 2u);  // 2-3 and 5-0
  // Each part is a path of 3 vertices.
  for (const PartPlan& part : plan.parts) {
    EXPECT_EQ(part.spec.graph.vertex_count(), 3u);
    EXPECT_EQ(part.spec.graph.edge_count(), 2u);
  }
}

TEST(Stem, BoundaryFlagsMatchStemEndpoints) {
  const Graph g = make_ring(6);
  const StemPlan plan =
      plan_stems(fixed_outcome(g, {0, 0, 0, 1, 1, 1}));
  std::size_t boundary_count = 0;
  for (const PartPlan& part : plan.parts)
    for (std::size_t i = 0; i < part.spec.boundary.size(); ++i)
      if (part.spec.boundary[i]) {
        ++boundary_count;
        // The global vertex must appear in some stem edge.
        const Vertex global = part.to_global[i];
        bool found = false;
        for (const auto& [u, v] : plan.stem_edges)
          found = found || u == global || v == global;
        EXPECT_TRUE(found);
      }
  EXPECT_EQ(boundary_count, 4u);  // 0, 2, 3, 5
}

TEST(Stem, GlobalLocalMapsAreConsistent) {
  const Graph g = make_waxman(14, 6);
  const StemPlan plan = plan_stems(search_lc_partition(g, {}));
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    const std::uint32_t p = plan.part_of[v];
    const Vertex local = plan.local_of[v];
    ASSERT_LT(p, plan.parts.size());
    ASSERT_LT(local, plan.parts[p].to_global.size());
    EXPECT_EQ(plan.parts[p].to_global[local], v);
  }
}

TEST(Stem, InducedSubgraphsPreserveInternalEdges) {
  const Graph g = make_lattice(3, 4);
  LcPartitionConfig cfg;
  cfg.max_lc_ops = 0;
  const PartitionOutcome outcome = search_lc_partition(g, cfg);
  const StemPlan plan = plan_stems(outcome);
  // Total edges = internal edges + stems.
  std::size_t internal = 0;
  for (const PartPlan& part : plan.parts)
    internal += part.spec.graph.edge_count();
  EXPECT_EQ(internal + plan.stem_edges.size(), g.edge_count());
}

TEST(Stem, NoStemsForSinglePart) {
  const Graph g = make_star(5);
  const StemPlan plan = plan_stems(fixed_outcome(g, {0, 0, 0, 0, 0}));
  EXPECT_EQ(plan.parts.size(), 1u);
  EXPECT_TRUE(plan.stem_edges.empty());
  for (bool b : plan.parts[0].spec.boundary) EXPECT_FALSE(b);
}

TEST(Stem, SingleStemEndpointsShareTheirKey) {
  // Ring cut into two arcs: stems 2-3 and 0-5; both endpoints of a stem
  // must carry the stem's rank so the key-ordered dangler discipline sees
  // matching windows across parts.
  const Graph g = make_ring(6);
  const StemPlan plan = plan_stems(fixed_outcome(g, {0, 0, 0, 1, 1, 1}));
  ASSERT_EQ(plan.stem_edges.size(), 2u);
  std::map<Vertex, std::uint32_t> key_of_global;
  for (const PartPlan& part : plan.parts)
    for (std::size_t i = 0; i < part.spec.stem_key.size(); ++i)
      if (part.spec.boundary[i])
        key_of_global[part.to_global[i]] = part.spec.stem_key[i];
  for (std::size_t s = 0; s < plan.stem_edges.size(); ++s) {
    const auto& [u, v] = plan.stem_edges[s];
    EXPECT_EQ(key_of_global.at(u), static_cast<std::uint32_t>(s));
    EXPECT_EQ(key_of_global.at(v), static_cast<std::uint32_t>(s));
  }
}

TEST(Stem, MultiStemVerticesAreMarkedMustSwap) {
  // Star with the hub alone in part 0: every spoke is a stem, so the hub
  // carries several stems and must leave via a dedicated anchor.
  const Graph g = make_star(4);  // hub 0, leaves 1..3
  const StemPlan plan = plan_stems(fixed_outcome(g, {0, 1, 1, 1}));
  EXPECT_EQ(plan.stem_edges.size(), 3u);
  const PartPlan& hub_part = plan.parts[plan.part_of[0]];
  const Vertex hub_local = plan.local_of[0];
  EXPECT_TRUE(hub_part.spec.boundary[hub_local]);
  EXPECT_EQ(hub_part.spec.stem_key[hub_local], SubgraphSpec::must_swap);
  // Leaves have exactly one stem each: a real key, all distinct.
  std::set<std::uint32_t> leaf_keys;
  for (Vertex leaf = 1; leaf <= 3; ++leaf) {
    const PartPlan& part = plan.parts[plan.part_of[leaf]];
    const std::uint32_t key = part.spec.stem_key[plan.local_of[leaf]];
    EXPECT_NE(key, SubgraphSpec::must_swap);
    leaf_keys.insert(key);
  }
  EXPECT_EQ(leaf_keys.size(), 3u);
}

TEST(Stem, DefaultSpecKeysAreVertexIds) {
  const SubgraphSpec spec(make_ring(4), {true, false, true, false});
  ASSERT_EQ(spec.stem_key.size(), 4u);
  for (Vertex v = 0; v < 4; ++v) EXPECT_EQ(spec.stem_key[v], v);
}

}  // namespace
}  // namespace epg
