#include "graph/local_complement.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "neighbor_list.hpp"

namespace epg {
namespace {

TEST(LocalComplement, StarBecomesComplete) {
  Graph g = make_star(5);
  local_complement(g, 0);
  // Neighborhood of the hub becomes a clique: K5 overall.
  EXPECT_EQ(g.edge_count(), 4u + 6u);
  for (Vertex u = 1; u < 5; ++u)
    for (Vertex v = u + 1; v < 5; ++v) EXPECT_TRUE(g.has_edge(u, v));
}

TEST(LocalComplement, PathMiddleAddsChord) {
  Graph g = make_linear_cluster(3);
  local_complement(g, 1);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(LocalComplement, IsInvolution) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_erdos_renyi(10, 0.35, 100 + trial);
    const Graph before = g;
    const auto v = static_cast<Vertex>(rng.below(10));
    local_complement(g, v);
    local_complement(g, v);
    EXPECT_EQ(g, before);
  }
}

TEST(LocalComplement, PreservesOwnNeighborhood) {
  Graph g = make_waxman(12, 4);
  const auto nb = neighbor_list(g, 3);
  local_complement(g, 3);
  EXPECT_EQ(neighbor_list(g, 3), nb);
}

TEST(LocalComplement, DegreeLeqOneIsIdentity) {
  Graph g = make_linear_cluster(4);
  const Graph before = g;
  local_complement(g, 0);  // degree-1 endpoint
  EXPECT_EQ(g, before);
}

TEST(LocalComplement, SequenceApplication) {
  Graph a = make_ring(6);
  Graph b = a;
  apply_lc_sequence(a, {0, 2, 0});
  local_complement(b, 0);
  local_complement(b, 2);
  local_complement(b, 0);
  EXPECT_EQ(a, b);
}

TEST(LocalComplement, EdgeCountPrediction) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = make_erdos_renyi(12, 0.3, 200 + trial);
    const auto v = static_cast<Vertex>(rng.below(12));
    const std::size_t predicted = edge_count_after_lc(g, v);
    local_complement(g, v);
    EXPECT_EQ(g.edge_count(), predicted);
  }
}

}  // namespace
}  // namespace epg
