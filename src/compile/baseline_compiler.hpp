// Baseline GraphState-to-Circuit compiler: the deterministic minimal-emitter
// protocol of Li, Economou & Barnes (npj Quantum Information 8, 11 (2022)),
// which is the engine behind GraphiQ's deterministic solver — the paper's
// comparison baseline [30].
//
// Working time-reversed on a stabilizer tableau with photons in emission
// order, each photon is either
//   * absorbed: a stabilizer with photon-support {j} is row-reduced out,
//     rotated to Z_j (x) Z_emitters by local Cliffords, its emitter support
//     contracted to a single emitter by emitter-emitter CNOTs, and removed
//     by the (reversed) emission CNOT; or
//   * transferred: when no such stabilizer exists the photon swaps onto a
//     free emitter (forward image: emission + H + measure + feed-forward),
//     the time-reversed measurement of the protocol.
// A final pass disentangles the leftover emitter state into |0...0>,
// counting its CNOTs. The emitter count is the height-function maximum
// (entanglement entropy), which is provably sufficient.
//
// `emission order restarts` mimic GraphiQ's AlternateTargetSolver: a fixed
// number of candidate orders are compiled and the cheapest circuit is
// kept.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/stats.hpp"
#include "graph/graph.hpp"
#include "hardware/hardware_model.hpp"

namespace epg {

struct BaselineConfig {
  HardwareModel hw = HardwareModel::quantum_dot();
  /// Extra random emission orders to try besides the natural order.
  int order_restarts = 3;
  std::uint64_t seed = 11;
  /// Emitters available; 0 = exactly the height-function minimum. Extra
  /// emitters only widen the choice of transfer targets (the protocol does
  /// not parallelize aggressively — that is the point of the comparison).
  std::size_t num_emitters = 0;
  bool verify = true;
};

struct BaselineResult {
  bool success = false;
  Circuit circuit{0, 0};
  CircuitStats stats;
  std::size_t ne_min = 0;      ///< height-function minimum for the order
  std::vector<Vertex> emission_order;
};

BaselineResult compile_baseline(const Graph& target,
                                const BaselineConfig& cfg);

}  // namespace epg
