// Quickstart: compile a small graph state end to end, print the circuit,
// and verify it on the stabilizer simulator.
//
//   target graph state  ->  partition + LC  ->  subgraph circuits
//                       ->  Tetris schedule ->  verified emitter circuit
#include <iostream>

#include "circuit/render.hpp"
#include "compile/framework.hpp"
#include "compile/verify.hpp"
#include "graph/generators.hpp"
#include "io/graph_io.hpp"

int main() {
  using namespace epg;

  // The 4-cycle from the paper's Fig. 1 plus a tail — any epg::Graph works.
  Graph target = make_ring(4);
  const Vertex tail1 = target.add_vertex();
  const Vertex tail2 = target.add_vertex();
  target.add_edge(3, tail1);
  target.add_edge(tail1, tail2);

  std::cout << "Target graph state (edge list):\n"
            << write_edge_list(target) << '\n';

  FrameworkConfig config;  // quantum-dot hardware, g_max=7, l=15 defaults
  const FrameworkResult result = compile_framework(target, config);

  std::cout << "Compiled generation circuit ("
            << result.schedule.circuit.num_emitters() << " emitters, "
            << result.stats().ee_cnot_count << " ee-CNOTs, "
            << result.stats().duration_tau << " tau_QD):\n\n"
            << render_schedule(result.schedule.circuit, config.hw) << '\n'
            << render_tracks(result.schedule.circuit) << '\n';

  const VerifyReport report =
      verify_generates(result.schedule.circuit, target, 5);
  std::cout << "verification: " << report.message << " ("
            << report.seeds_tested << " measurement seeds)\n"
            << "state stats: " << result.stats().str() << '\n';
  return report.ok ? 0 : 1;
}
