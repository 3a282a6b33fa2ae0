#include "circuit/serialize.hpp"

#include <gtest/gtest.h>

#include "circuit/simulate.hpp"
#include "compile/framework.hpp"
#include "graph/generators.hpp"

namespace epg {
namespace {

TEST(Serialize, RoundTripSimpleCircuit) {
  Circuit c(2, 2);
  c.local(QubitId::emitter(0), Clifford1::h());
  c.emission(0, 0);
  c.ee_cz(0, 1);
  c.local(QubitId::photon(0), Clifford1::sdg());
  c.measure_reset(0, {{QubitId::photon(0), PauliOp::Z},
                      {QubitId::photon(1), PauliOp::X}});
  const std::string text = serialize_circuit(c);
  const Circuit back = parse_circuit(text);
  ASSERT_EQ(back.size(), c.size());
  EXPECT_EQ(back.num_photons(), 2u);
  EXPECT_EQ(back.num_emitters(), 2u);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back.gates()[i].kind, c.gates()[i].kind);
    EXPECT_EQ(back.gates()[i].a, c.gates()[i].a);
  }
  EXPECT_EQ(back.gates()[4].if_one.size(), 2u);
  EXPECT_EQ(back.gates()[4].if_one[1].op, PauliOp::X);
}

TEST(Serialize, HeaderAndFormat) {
  Circuit c(1, 1);
  c.emission(0, 0);
  const std::string text = serialize_circuit(c);
  EXPECT_NE(text.find("epgc 1"), std::string::npos);
  EXPECT_NE(text.find("photons 1"), std::string::npos);
  EXPECT_NE(text.find("emit e0 p0"), std::string::npos);
}

TEST(Serialize, RejectsMalformedInput) {
  EXPECT_THROW(parse_circuit("not a circuit"), std::invalid_argument);
  EXPECT_THROW(parse_circuit("epgc 2\nphotons 1\nemitters 1\n"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_circuit("epgc 1\nphotons 1\nemitters 1\nfrobnicate p0\n"),
      std::invalid_argument);
  EXPECT_THROW(parse_circuit("epgc 1\nphotons 1\nemitters 1\nemit p0 e0\n"),
               std::invalid_argument);
}

TEST(Serialize, CompiledCircuitSurvivesRoundTrip) {
  const Graph g = make_ring(6);
  FrameworkConfig cfg;
  cfg.subgraph.node_budget = 8000;
  const FrameworkResult r = compile_framework(g, cfg);
  const Circuit back =
      parse_circuit(serialize_circuit(r.schedule.circuit));
  // The reparsed circuit generates the same state.
  Rng r1(3), r2(3);
  const Tableau a = simulate(r.schedule.circuit, r1).state;
  const Tableau b = simulate(back, r2).state;
  EXPECT_TRUE(a.same_state_as(b));
}

TEST(Serialize, LocalCliffordComposedEquality) {
  // Serialization stores the H/S string; reparsing composes an equal
  // Clifford element.
  Circuit c(1, 1);
  c.local(QubitId::emitter(0), Clifford1::sqrt_x());
  c.emission(0, 0);
  const Circuit back = parse_circuit(serialize_circuit(c));
  EXPECT_EQ(back.gates()[0].local, Clifford1::sqrt_x());
}

}  // namespace
}  // namespace epg
