#include "stab/graph_conversion.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/local_complement.hpp"
#include "neighbor_list.hpp"

namespace epg {
namespace {

TEST(GraphConversion, PureGraphStateHasTrivialVops) {
  const Graph g = make_ring(5);
  const GraphWithVops gv = tableau_to_graph(Tableau::graph_state(g));
  EXPECT_EQ(gv.graph, g);
  for (const Clifford1& v : gv.vops) EXPECT_TRUE(v.is_identity());
}

TEST(GraphConversion, ZeroStateDecomposition) {
  // |000> = H^3 |+++>: empty graph with H vops.
  const GraphWithVops gv = tableau_to_graph(Tableau(3));
  EXPECT_EQ(gv.graph.edge_count(), 0u);
  EXPECT_TRUE(tableau_from_graph_with_vops(gv).same_state_as(Tableau(3)));
}

class ConversionRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConversionRoundTrip, RandomCliffordStates) {
  Rng rng(GetParam());
  const std::size_t n = 3 + rng.below(6);
  Tableau t(n);
  // Random Clifford circuit.
  for (int step = 0; step < 40; ++step) {
    switch (rng.below(4)) {
      case 0: t.h(rng.below(n)); break;
      case 1: t.s(rng.below(n)); break;
      case 2: {
        const std::size_t a = rng.below(n);
        std::size_t b = rng.below(n);
        if (a != b) t.cnot(a, b);
        break;
      }
      default: {
        const std::size_t a = rng.below(n);
        std::size_t b = rng.below(n);
        if (a != b) t.cz(a, b);
        break;
      }
    }
  }
  const GraphWithVops gv = tableau_to_graph(t);
  EXPECT_EQ(gv.graph.vertex_count(), n);
  EXPECT_TRUE(tableau_from_graph_with_vops(gv).same_state_as(t));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConversionRoundTrip,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(GraphConversion, StatesEqualDetectsDifference) {
  const Graph a = make_ring(4);
  const Graph b = make_linear_cluster(4);
  const std::vector<Clifford1> id(4, Clifford1::identity());
  EXPECT_TRUE(states_equal({a, id}, {a, id}));
  EXPECT_FALSE(states_equal({a, id}, {b, id}));
}

TEST(GraphConversion, LocalComplementationUnitaryIdentity) {
  // |LC_v(G)> = sqrt(X)^dag_v (x) S_{N(v)} |G> — the core LC lemma, checked
  // as equality of decorated graph states.
  for (const Graph& g :
       {make_star(4), make_ring(5), make_lattice(2, 3), make_waxman(8, 3)}) {
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (g.degree(v) < 2) continue;
      Graph lc = g;
      local_complement(lc, v);
      std::vector<Clifford1> vops(g.vertex_count(), Clifford1::identity());
      vops[v] = Clifford1::sqrt_x_dag();
      for (Vertex w : neighbor_list(g, v)) vops[w] = Clifford1::s();
      EXPECT_TRUE(states_equal(
          {lc, std::vector<Clifford1>(g.vertex_count(),
                                      Clifford1::identity())},
          {g, vops}))
          << "LC at " << v;
    }
  }
}

}  // namespace
}  // namespace epg
