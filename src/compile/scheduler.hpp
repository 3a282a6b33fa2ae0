// Subgraph recombination and circuit scheduling (paper Section IV.C).
//
// Subcircuits are packed on the timeline "Tetris-style": processed in
// priority order Pc = n_photons / T_c and pushed as late as possible while
// the total emitter usage stays under Ne_limit, so photons are emitted late
// (less loss) and emitters are reused across subgraphs. Stem edges become
// anchor-anchor CZs placed after both anchors' last internal operation
// (matching the global reverse order, where stems are disconnected before
// any anchor-internal op), and boundary-emission tails are delayed when
// needed to open the window — a loss-free delay: the photon is not yet
// born.
//
// The plan is then *legalized*: every gate gets a release time (its planned
// start, raised by a longest path over the stem precedence DAG) and
// analyze_timing (circuit/timing.hpp), run with those releases as start
// floors over one circuit of emitter slots and global photons, computes the
// exact times; emitter slots from different parts are then mapped onto
// physical emitters by greedy interval coloring of its busy intervals, and
// compute_stats derives the metrics from the same timing.
#pragma once

#include <vector>

#include "circuit/stats.hpp"
#include "compile/subgraph_compiler.hpp"

namespace epg {

struct CompiledPart {
  SubgraphCircuit circuit;
  std::vector<Vertex> to_global;  ///< local photon -> global vertex
};

struct ScheduleConfig {
  std::uint32_t ne_limit = 4;
  HardwareModel hw = HardwareModel::quantum_dot();
  /// false = plain sequential placement (the ablation baseline for the
  /// scheduling experiments).
  bool alap_tetris = true;
};

struct GlobalSchedule {
  Circuit circuit{0, 0};         ///< global registers, gates in time order
  std::vector<Tick> gate_start;  ///< explicit start per gate
  std::vector<Tick> gate_end;
  Tick makespan = 0;
  std::vector<Tick> photon_emit;  ///< per global photon
  std::uint32_t peak_usage = 0;   ///< simultaneous physical emitters
  bool limit_respected = true;
  /// Crossing dangler-host stem windows formed a precedence cycle; no valid
  /// placement exists for these subcircuits. `deadlock_parts` lists the
  /// parts whose hosts participated in unstable stems; the framework
  /// recompiles them one step down the dangler ladder (key_ordered, then
  /// anchors_only) and retries.
  bool deadlocked = false;
  std::vector<std::uint32_t> deadlock_parts;
  CircuitStats stats;             ///< derived from the explicit times
};

GlobalSchedule schedule_parts(const std::vector<CompiledPart>& parts,
                              const std::vector<Edge>& stem_edges,
                              const std::vector<std::uint32_t>& part_of,
                              const std::vector<Vertex>& local_of,
                              std::size_t num_global_photons,
                              const ScheduleConfig& cfg);

}  // namespace epg
