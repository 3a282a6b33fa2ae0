// Distributed-QC / quantum-network example (paper Section V.A: Waxman
// graphs "cover most of the possible communication topologies for
// distributed quantum computing and quantum networks").
//
// A 24-node Waxman topology is compiled as one multipartite graph state —
// the interconnect resource a network provider would distribute — and the
// hardware metrics are compared across emitter budgets.
#include <iostream>

#include "compile/framework.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"

int main() {
  using namespace epg;

  const Graph network = shuffle_labels(make_waxman(24, 42), 42);
  std::cout << "Waxman network graph state: " << network.vertex_count()
            << " nodes, " << network.edge_count()
            << " entanglement bonds, avg degree "
            << average_degree(network) << "\n\n";

  for (double factor : {1.5, 2.0}) {
    FrameworkConfig config;
    config.ne_limit_factor = factor;
    const FrameworkResult r = compile_framework(network, config);
    std::cout << "Ne_limit = " << factor << " x Ne_min (= " << r.ne_limit
              << " emitters):\n"
              << "  subgraphs " << r.partition.parts.size() << ", stems "
              << r.stem_count << ", ee-CNOTs " << r.stats().ee_cnot_count
              << '\n'
              << "  duration " << r.stats().duration_tau
              << " tau_QD, state survival "
              << r.stats().loss.state_survival << '\n'
              << "  verified: " << (r.verified ? "yes" : "NO") << "\n\n";
  }
  return 0;
}
