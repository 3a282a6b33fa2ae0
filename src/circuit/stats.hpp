// Aggregate circuit metrics — the quantities every paper figure plots.
#pragma once

#include <string>

#include "circuit/circuit.hpp"
#include "circuit/timing.hpp"
#include "hardware/loss_model.hpp"

namespace epg {

struct CircuitStats {
  std::size_t ee_cnot_count = 0;   ///< emitter-emitter entangling gates
  std::size_t emission_count = 0;
  std::size_t local_count = 0;
  std::size_t measure_count = 0;
  std::size_t emitters_used = 0;   ///< emitters touched by any gate
  Tick makespan_ticks = 0;
  double duration_tau = 0.0;       ///< makespan in tau_QD units
  double t_loss_tau = 0.0;         ///< paper's T_loss: mean photon-alive time
  LossReport loss;                 ///< photon-loss figures (Fig. 11a)
  /// State-fidelity estimate from imperfect ee-CNOTs (paper Challenge 2):
  /// fidelity^(#ee-CNOT) under the hardware's two-qubit gate fidelity.
  double ee_fidelity_estimate = 1.0;

  std::string str() const;
};

/// `t` is the circuit's timing; the two-argument form analyzes it first.
CircuitStats compute_stats(const Circuit& c, const CircuitTiming& t,
                           const HardwareModel& hw);
CircuitStats compute_stats(const Circuit& c, const HardwareModel& hw);

}  // namespace epg
