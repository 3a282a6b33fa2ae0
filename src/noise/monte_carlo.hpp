// Monte-Carlo noise engines for generation circuits.
//
// The analytic loss model (hardware/loss_model.hpp) reports expected
// survival; these engines *sample* noisy runs instead:
//
//   * photon-loss MC — every photon independently survives its alive time
//     with probability (1 - rate)^(alive/tau); a shot succeeds when all
//     photons survive. Gives the full distribution (mean, stddev,
//     Wilson 95% interval, lost-photon histogram) that hardware would see.
//
//   * emitter-gate Pauli MC — after every emitter-emitter CZ/CNOT a
//     two-qubit depolarizing error (one of the 15 non-identity Pauli
//     pairs, total probability p = 1 - fidelity) is injected into the
//     stabilizer replay; the shot succeeds when the final state still
//     equals the target graph state exactly. Estimates the state fidelity
//     the paper's ee-CNOT-fidelity discussion (Section III, challenge 2)
//     points at, beyond the simple f^k product bound.
//
// Both engines split their shots into fixed-size chunks: chunk c draws from
// an independent RNG seeded by hash(seed, c), and chunk tallies merge by
// summation. The counts are therefore identical for any executor, serial
// or pooled, at any lane count.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "hardware/hardware_model.hpp"
#include "runtime/executor.hpp"

namespace epg {

struct McEstimate {
  std::size_t shots = 0;
  std::size_t successes = 0;
  double mean = 0.0;      ///< success fraction
  double stddev = 0.0;    ///< binomial stddev of the mean
  double wilson_low = 0.0, wilson_high = 0.0;  ///< 95% interval
};

struct LossMcResult {
  McEstimate state;                       ///< all-photons-survive estimate
  std::vector<std::size_t> lost_histogram;  ///< shots by #lost photons
  double mean_lost_photons = 0.0;
};

/// Sample photon loss for a schedule's emission times. `alive_ticks` is the
/// per-photon alive time (emission to circuit end), as produced by
/// CircuitTiming::photon_alive_ticks() or GlobalSchedule::photon_emit.
LossMcResult sample_photon_loss(const HardwareModel& hw,
                                const std::vector<Tick>& alive_ticks,
                                std::size_t shots, std::uint64_t seed,
                                const Executor& exec = Executor::serial(),
                                std::size_t chunk_shots = 256);

struct PauliMcConfig {
  std::size_t shots = 200;
  /// Two-qubit depolarizing probability per ee gate; <0 uses
  /// 1 - hw.ee_cnot_fidelity.
  double error_probability = -1.0;
  std::uint64_t seed = 1;
};

struct PauliMcResult {
  McEstimate fidelity;       ///< exact-target-state fraction
  std::size_t ee_gate_count = 0;
  double product_bound = 0.0;  ///< analytic (1-p)^k lower-bound estimate
};

/// Replay `c` with depolarizing errors after every ee gate and count the
/// shots whose final state is exactly |target> (emitters back in |0>).
PauliMcResult sample_ee_noise(const Circuit& c, const Graph& target,
                              const HardwareModel& hw,
                              const PauliMcConfig& cfg,
                              const Executor& exec = Executor::serial(),
                              std::size_t chunk_shots = 32);

/// Wilson 95% score interval for k successes out of n.
McEstimate make_estimate(std::size_t successes, std::size_t shots);

}  // namespace epg
