// QRAM router example (paper Section V.A: tree graphs are "quantum routers
// in quantum random access memory" and tree-code resources).
//
// Builds the binary router tree for a 3-level QRAM, compiles it with the
// framework and with the baseline, and reports the hardware-facing metrics
// an experimentalist would care about.
#include <iostream>

#include "compile/baseline_compiler.hpp"
#include "compile/framework.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace epg;

  // Depth-3 binary router: 15 vertices, leaves are the memory cells.
  const Graph router = shuffle_labels(make_balanced_tree(2, 3), 2026);
  std::cout << "QRAM router tree: " << router.vertex_count()
            << " qubits, " << router.edge_count() << " bonds\n";

  FrameworkConfig config;
  config.ne_limit_factor = 1.5;
  const FrameworkResult ours = compile_framework(router, config);

  BaselineConfig base_cfg;
  base_cfg.num_emitters = ours.ne_limit;
  const BaselineResult baseline = compile_baseline(router, base_cfg);

  std::cout << "\n             framework    baseline\n"
            << "ee-CNOTs     " << ours.stats().ee_cnot_count << "            "
            << baseline.stats.ee_cnot_count << '\n'
            << "duration     " << ours.stats().duration_tau << " tau      "
            << baseline.stats.duration_tau << " tau\n"
            << "T_loss       " << ours.stats().t_loss_tau << " tau      "
            << baseline.stats.t_loss_tau << " tau\n"
            << "state loss   " << ours.stats().loss.state_loss << "      "
            << baseline.stats.loss.state_loss << '\n'
            << "emitters     " << ours.schedule.peak_usage << " (cap "
            << ours.ne_limit << ")   " << baseline.circuit.num_emitters()
            << '\n'
            << "\nloss suppression: x"
            << baseline.stats.loss.state_loss /
                   std::max(ours.stats().loss.state_loss, 1e-12)
            << '\n';
  return ours.verified ? 0 : 1;
}
