// Dependency-aware timing analysis (ASAP list scheduling).
//
// Gates appear in the circuit in logical order; two gates may overlap in
// time when they touch disjoint qubits. An optional per-gate release time
// is a floor on the gate's start; the scheduler legalizes its planned
// global timeline this way (compile/scheduler.hpp). Classical feed-forward
// corrections are Pauli-frame updates: they order after the measurement but
// add no duration. The analysis yields gate start/end ticks, the makespan,
// each photon's emission time (for the loss model) and per-emitter busy
// intervals, from which the emitter-usage curve of the paper's Fig. 5 /
// Fig. 8 Tetris blocks is derived.
#pragma once

#include <span>
#include <vector>

#include "circuit/circuit.hpp"

namespace epg {

struct EmitterInterval {
  Tick begin = 0;  ///< start of the emitter's first gate
  Tick end = 0;    ///< end of its last gate (reset included)
  bool used = false;
};

struct CircuitTiming {
  std::vector<Tick> gate_start;
  std::vector<Tick> gate_end;
  Tick makespan = 0;
  /// Emission tick per photon (undefined where no emission exists).
  std::vector<Tick> photon_emit_time;
  std::vector<EmitterInterval> emitter_busy;

  /// Photon alive times: makespan - emission time.
  std::vector<Tick> photon_alive_ticks() const;

  /// Number of busy emitters at each tick step boundary; returned as a
  /// step function sampled per tick in [0, makespan).
  std::vector<std::uint32_t> usage_curve() const;

  /// Peak of the usage curve (emitters actually needed simultaneously).
  std::uint32_t peak_usage() const;
};

/// `release` is empty or holds one start floor per gate.
CircuitTiming analyze_timing(const Circuit& c, const HardwareModel& hw,
                             std::span<const Tick> release = {});

}  // namespace epg
