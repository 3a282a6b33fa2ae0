#include "circuit/stats.hpp"

#include <cmath>
#include <sstream>

namespace epg {

CircuitStats compute_stats(const Circuit& c, const CircuitTiming& t,
                           const HardwareModel& hw) {
  CircuitStats s;
  for (const Gate& g : c.gates()) {
    switch (g.kind) {
      case GateKind::ee_cz:
      case GateKind::ee_cnot: ++s.ee_cnot_count; break;
      case GateKind::emission: ++s.emission_count; break;
      case GateKind::local: ++s.local_count; break;
      case GateKind::measure_reset: ++s.measure_count; break;
    }
  }
  s.makespan_ticks = t.makespan;
  s.duration_tau = hw.ticks_to_tau(t.makespan);
  for (const auto& iv : t.emitter_busy)
    if (iv.used) ++s.emitters_used;
  const auto alive = t.photon_alive_ticks();
  s.loss = evaluate_loss(hw, alive);
  s.t_loss_tau = s.loss.mean_alive_tau;
  s.ee_fidelity_estimate =
      std::pow(hw.ee_cnot_fidelity, static_cast<double>(s.ee_cnot_count));
  return s;
}

CircuitStats compute_stats(const Circuit& c, const HardwareModel& hw) {
  return compute_stats(c, analyze_timing(c, hw), hw);
}

std::string CircuitStats::str() const {
  std::ostringstream os;
  os << "ee_cnots=" << ee_cnot_count << " emissions=" << emission_count
     << " duration=" << duration_tau << "tau t_loss=" << t_loss_tau
     << "tau emitters=" << emitters_used
     << " state_loss=" << loss.state_loss;
  return os.str();
}

}  // namespace epg
