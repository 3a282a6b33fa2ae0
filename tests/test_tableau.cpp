#include "stab/tableau.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "neighbor_list.hpp"

namespace epg {
namespace {

PauliString k_v(const Graph& g, Vertex v, std::size_t n_total) {
  PauliString p(n_total);
  p.set_op(v, PauliOp::X);
  for (Vertex u : neighbor_list(g, v)) p.set_op(u, PauliOp::Z);
  return p;
}

TEST(Tableau, InitialZeroState) {
  Tableau t(3);
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_TRUE(t.is_zero_state(q));
    EXPECT_EQ(t.peek_z(q), std::make_optional(false));
  }
}

TEST(Tableau, HadamardMakesPlus) {
  Tableau t(1);
  t.h(0);
  EXPECT_TRUE(t.stabilizes(PauliString::single(1, 0, PauliOp::X)));
  EXPECT_FALSE(t.peek_z(0).has_value());  // random in Z basis
}

TEST(Tableau, PauliGatesFlipSigns) {
  Tableau t(1);  // |0>, stabilizer +Z
  t.x(0);        // |1>, stabilizer -Z
  PauliString mz = PauliString::single(1, 0, PauliOp::Z);
  mz.negate();
  EXPECT_TRUE(t.stabilizes(mz));
  EXPECT_FALSE(t.is_zero_state(0));
  t.x(0);
  EXPECT_TRUE(t.is_zero_state(0));
}

TEST(Tableau, SGateTurnsPlusIntoPlusI) {
  Tableau t(1);
  t.h(0);
  t.s(0);  // |+i>, stabilizer +Y
  EXPECT_TRUE(t.stabilizes(PauliString::single(1, 0, PauliOp::Y)));
  t.sdg(0);
  EXPECT_TRUE(t.stabilizes(PauliString::single(1, 0, PauliOp::X)));
}

TEST(Tableau, BellPairStabilizers) {
  Tableau t(2);
  t.h(0);
  t.cnot(0, 1);
  PauliString xx(2), zz(2);
  xx.set_op(0, PauliOp::X);
  xx.set_op(1, PauliOp::X);
  zz.set_op(0, PauliOp::Z);
  zz.set_op(1, PauliOp::Z);
  EXPECT_TRUE(t.stabilizes(xx));
  EXPECT_TRUE(t.stabilizes(zz));
  PauliString mzz = zz;
  mzz.negate();
  EXPECT_FALSE(t.stabilizes(mzz));
}

TEST(Tableau, GraphStateStabilizers) {
  for (const Graph& g : {make_ring(5), make_lattice(2, 3), make_star(6)}) {
    const Tableau t = Tableau::graph_state(g);
    for (Vertex v = 0; v < g.vertex_count(); ++v)
      EXPECT_TRUE(t.stabilizes(k_v(g, v, g.vertex_count())));
  }
}

TEST(Tableau, GraphStateWithExtraQubits) {
  const Graph g = make_ring(4);
  const Tableau t = Tableau::graph_state(g, 2);
  EXPECT_EQ(t.num_qubits(), 6u);
  EXPECT_TRUE(t.is_zero_state(4));
  EXPECT_TRUE(t.is_zero_state(5));
  EXPECT_TRUE(t.stabilizes(k_v(g, 0, 6)));
}

TEST(Tableau, CzToggleEquivalence) {
  // CZ twice = identity; graph state of a ring built in two edge orders.
  const Graph g = make_ring(6);
  Tableau a = Tableau::graph_state(g);
  Tableau b(6);
  for (std::size_t q = 0; q < 6; ++q) b.h(q);
  auto edges = g.edges();
  std::reverse(edges.begin(), edges.end());
  for (const auto& [u, v] : edges) b.cz(u, v);
  EXPECT_TRUE(a.same_state_as(b));
  a.cz(0, 1);
  EXPECT_FALSE(a.same_state_as(b));
  a.cz(0, 1);
  EXPECT_TRUE(a.same_state_as(b));
}

TEST(Tableau, DeterministicMeasurement) {
  Tableau t(2);
  Rng rng(1);
  const MeasureResult m = t.measure_z(0, rng);
  EXPECT_TRUE(m.deterministic);
  EXPECT_FALSE(m.outcome);
}

TEST(Tableau, RandomMeasurementCollapses) {
  bool saw[2] = {false, false};
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Tableau t(1);
    t.h(0);
    Rng rng(seed);
    const MeasureResult m1 = t.measure_z(0, rng);
    EXPECT_FALSE(m1.deterministic);
    saw[m1.outcome] = true;
    // Collapsed: the second measurement is deterministic and equal.
    const MeasureResult m2 = t.measure_z(0, rng);
    EXPECT_TRUE(m2.deterministic);
    EXPECT_EQ(m2.outcome, m1.outcome);
  }
  EXPECT_TRUE(saw[0]);
  EXPECT_TRUE(saw[1]);
}

TEST(Tableau, BellMeasurementCorrelations) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Tableau t(2);
    t.h(0);
    t.cnot(0, 1);
    Rng rng(seed);
    const auto a = t.measure_z(0, rng);
    const auto b = t.measure_z(1, rng);
    EXPECT_FALSE(a.deterministic);
    EXPECT_TRUE(b.deterministic);
    EXPECT_EQ(a.outcome, b.outcome);
  }
}

TEST(Tableau, SwapQubitsRelabels) {
  Tableau t(2);
  t.x(0);  // |10>
  t.swap_qubits(0, 1);
  EXPECT_TRUE(t.is_zero_state(0));
  EXPECT_FALSE(t.is_zero_state(1));
}

TEST(Tableau, SqrtXActions) {
  Tableau t(1);
  t.sqrt_x(0);  // |0> -> -i|+i>-ish: stabilizer Z -> -Y
  PauliString my = PauliString::single(1, 0, PauliOp::Y);
  my.negate();
  EXPECT_TRUE(t.stabilizes(my));
  t.sqrt_x_dag(0);
  EXPECT_TRUE(t.is_zero_state(0));
}

TEST(Tableau, SameStateIndependentOfGeneratorBasis) {
  const Graph g = make_lattice(2, 4);
  Tableau a = Tableau::graph_state(g);
  Tableau b = Tableau::graph_state(g);
  // Scramble b's generator basis by redundant gate pairs.
  b.cz(0, 1);
  b.cz(0, 1);
  b.h(3);
  b.h(3);
  EXPECT_TRUE(a.same_state_as(b));
}

TEST(Tableau, StabilizesRejectsWrongSupport) {
  const Tableau t = Tableau::graph_state(make_ring(4));
  PauliString p(4);
  p.set_op(0, PauliOp::X);  // X alone is not a ring stabilizer
  EXPECT_FALSE(t.stabilizes(p));
}

}  // namespace
}  // namespace epg
