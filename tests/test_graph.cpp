#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "neighbor_list.hpp"

namespace epg {
namespace {

TEST(Graph, AddRemoveToggle) {
  Graph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // already present
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  g.toggle_edge(2, 3);
  EXPECT_TRUE(g.has_edge(2, 3));
  g.toggle_edge(2, 3);
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  EXPECT_FALSE(g.has_edge(1, 1));
}

TEST(Graph, DegreeAndNeighborsSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(neighbor_list(g, 2), (std::vector<Vertex>{0, 3, 4}));
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(Graph, SameNeighborhood) {
  // 0 and 1 both adjacent to {2,3}, not to each other.
  Graph g(4);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  EXPECT_TRUE(g.same_neighborhood(0, 1));
  // Adding the mutual edge keeps "same neighborhood modulo each other".
  g.add_edge(0, 1);
  EXPECT_TRUE(g.same_neighborhood(0, 1));
  g.add_edge(0, 2);  // no-op (already there)
  g.remove_edge(1, 3);
  EXPECT_FALSE(g.same_neighborhood(0, 1));
}

TEST(Graph, SameNeighborhoodAcrossWords) {
  Graph g(130);
  g.add_edge(0, 100);
  g.add_edge(1, 100);
  g.add_edge(0, 127);
  g.add_edge(1, 127);
  EXPECT_TRUE(g.same_neighborhood(0, 1));
  g.add_edge(0, 64);
  EXPECT_FALSE(g.same_neighborhood(0, 1));
}

TEST(Graph, EdgesSortedPairs) {
  Graph g(4);
  g.add_edge(3, 1);
  g.add_edge(2, 0);
  const auto e = g.edges();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], (Edge{0, 2}));
  EXPECT_EQ(e[1], (Edge{1, 3}));
}

TEST(Graph, AddVertexGrowsAcrossWordBoundary) {
  Graph g(63);
  g.add_edge(0, 62);
  const Vertex v63 = g.add_vertex();
  const Vertex v64 = g.add_vertex();
  EXPECT_EQ(v63, 63u);
  EXPECT_EQ(v64, 64u);
  EXPECT_TRUE(g.has_edge(0, 62));
  g.add_edge(v64, 0);
  EXPECT_TRUE(g.has_edge(64, 0));
  EXPECT_EQ(g.vertex_count(), 65u);
}

TEST(Graph, IsolateAndIsolation) {
  Graph g = make_star(5);
  EXPECT_FALSE(g.is_isolated(0));
  g.isolate(0);
  EXPECT_TRUE(g.is_isolated(0));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, ConnectedComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(4, 5);
  const auto comps = g.connected_components();
  ASSERT_EQ(comps.size(), 3u);  // {0,1,2}, {3}, {4,5}
  EXPECT_FALSE(g.is_connected());
  EXPECT_TRUE(make_ring(5).is_connected());
}

TEST(Graph, InducedSubgraph) {
  Graph g = make_ring(6);
  std::vector<Vertex> map;
  const Graph sub = g.induced({1, 2, 3}, &map);
  EXPECT_EQ(sub.vertex_count(), 3u);
  EXPECT_EQ(sub.edge_count(), 2u);  // 1-2, 2-3
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_edge(0, 2));
  EXPECT_EQ(map[2], 1u);
  EXPECT_EQ(map[0], static_cast<Vertex>(-1));
}

TEST(Graph, InducedRejectsDuplicates) {
  Graph g(3);
  EXPECT_THROW(g.induced({0, 0}), std::invalid_argument);
}

TEST(Graph, FingerprintSensitivity) {
  Graph a = make_ring(8);
  Graph b = make_ring(8);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.toggle_edge(0, 4);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Graph, EqualityOperator) {
  EXPECT_EQ(make_lattice(3, 3), make_lattice(3, 3));
  EXPECT_FALSE(make_lattice(3, 3) == make_ring(9));
}

}  // namespace
}  // namespace epg
