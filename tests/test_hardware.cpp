#include "hardware/hardware_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "compile/framework.hpp"
#include "graph/generators.hpp"
#include "hardware/loss_model.hpp"

namespace epg {
namespace {

/// The paper (Section V.A): the framework only needs the gate
/// characteristics swapped to retarget another emitter platform. Compile
/// the same state under every preset: the result must verify everywhere,
/// with one emission per photon. Gate counts may differ slightly between
/// platforms — candidate selection tie-breaks on the platform's photon-loss
/// clock by design — but every platform keeps the subgraph-minimal ee-CZ
/// floor: at least one ee-CZ per stem edge.
class HardwarePortability : public ::testing::TestWithParam<int> {};

TEST_P(HardwarePortability, SameGraphCompilesVerifiedOnEveryPlatform) {
  HardwareModel hw;
  switch (GetParam()) {
    case 0: hw = HardwareModel::quantum_dot(); break;
    case 1: hw = HardwareModel::nv_center(); break;
    case 2: hw = HardwareModel::siv_center(); break;
    default: hw = HardwareModel::rydberg(); break;
  }
  const Graph g = shuffle_labels(make_lattice(3, 4), 3);
  FrameworkConfig cfg;
  cfg.hw = hw;
  cfg.subgraph.hw = hw;
  cfg.subgraph.node_budget = 8000;
  cfg.seed = 9;  // identical search seed across platforms
  const FrameworkResult r = compile_framework(g, cfg);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.stats().emission_count, g.vertex_count());
  EXPECT_GT(r.stats().duration_tau, 0.0);
  EXPECT_GE(r.stats().ee_cnot_count, r.stem_count);
  EXPECT_LE(r.stats().ee_cnot_count, g.edge_count());
}

INSTANTIATE_TEST_SUITE_P(Presets, HardwarePortability,
                         ::testing::Range(0, 4));

TEST(HardwareModel, QuantumDotPreset) {
  const HardwareModel hw = HardwareModel::quantum_dot();
  EXPECT_EQ(hw.tau_ticks, 20u);
  EXPECT_EQ(hw.ee_cnot_ticks, hw.tau_ticks);        // 1.0 tau_QD
  EXPECT_EQ(hw.emission_ticks * 10, hw.tau_ticks);  // 0.1 tau_QD
  EXPECT_DOUBLE_EQ(hw.loss_rate_per_tau, 0.005);    // 0.5% per tau
  EXPECT_DOUBLE_EQ(hw.ee_cnot_fidelity, 0.99);
}

TEST(HardwareModel, PresetsDiffer) {
  EXPECT_GT(HardwareModel::nv_center().ee_cnot_ticks,
            HardwareModel::quantum_dot().ee_cnot_ticks);
  EXPECT_LT(HardwareModel::rydberg().ee_cnot_ticks,
            HardwareModel::quantum_dot().ee_cnot_ticks);
  EXPECT_EQ(HardwareModel::siv_center().name, "siv_center");
}

TEST(HardwareModel, TickConversion) {
  const HardwareModel hw = HardwareModel::quantum_dot();
  EXPECT_DOUBLE_EQ(hw.ticks_to_tau(20), 1.0);
  EXPECT_DOUBLE_EQ(hw.ticks_to_tau(30), 1.5);
  EXPECT_DOUBLE_EQ(hw.ticks_to_tau(0), 0.0);
}

TEST(LossModel, SurvivalMath) {
  const HardwareModel hw = HardwareModel::quantum_dot();
  EXPECT_DOUBLE_EQ(photon_survival(hw, 0), 1.0);
  // One tau_QD: survival = 1 - rate.
  EXPECT_NEAR(photon_survival(hw, hw.tau_ticks), 0.995, 1e-12);
  // Ten tau_QD: (1-rate)^10.
  EXPECT_NEAR(photon_survival(hw, 10 * hw.tau_ticks), std::pow(0.995, 10),
              1e-12);
}

TEST(LossModel, SurvivalMonotoneInTime) {
  const HardwareModel hw = HardwareModel::quantum_dot();
  double prev = 1.1;
  for (Tick t : {0u, 10u, 100u, 1000u}) {
    const double s = photon_survival(hw, t);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

TEST(LossModel, AggregateReport) {
  const HardwareModel hw = HardwareModel::quantum_dot();
  const LossReport r = evaluate_loss(hw, {20, 40});  // 1 tau and 2 tau
  EXPECT_NEAR(r.state_survival, 0.995 * 0.995 * 0.995, 1e-12);
  EXPECT_NEAR(r.state_loss, 1.0 - r.state_survival, 1e-15);
  EXPECT_NEAR(r.mean_alive_tau, 1.5, 1e-12);
  EXPECT_GT(r.mean_photon_loss, 0.0);
}

TEST(LossModel, EmptyPhotonList) {
  const LossReport r = evaluate_loss(HardwareModel::quantum_dot(), {});
  EXPECT_DOUBLE_EQ(r.state_loss, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_alive_tau, 0.0);
}

TEST(LossModel, InvalidRateRejected) {
  HardwareModel hw = HardwareModel::quantum_dot();
  hw.loss_rate_per_tau = 1.5;
  EXPECT_THROW(photon_survival(hw, 10), std::invalid_argument);
}

}  // namespace
}  // namespace epg
