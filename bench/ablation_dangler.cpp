// Ablation: boundary emission via dangler hosts vs the anchor-only model.
//
// The literature's time-reversed formulation gives every boundary vertex a
// dedicated anchor emitter; on lattices partitioned at g_max = 7 every
// block vertex is boundary, so block-internal edges degenerate to one ee-CZ
// each. This repo's extension lets boundary photons ride their stem CZs on
// absorb_dangler host windows (docs/architecture.md). The ablation measures
// what that buys on the lattice family — ee-CZs, emitter peak — and what it
// costs (the scheduler's deadlock ladder occasionally falls back).
#include "bench_common.hpp"

int main() {
  using namespace epg;
  using namespace epg::bench;
  Table table({"#qubit", "anchor-only", "dangler", "saved(%)",
               "emitters(anchor)", "emitters(dangler)", "fallback"});
  double total = 0.0;
  int rows = 0;
  for (std::size_t n : {10, 20, 30, 40, 50, 60}) {
    const Graph g = lattice_instance(n, n);
    FrameworkConfig dangler_cfg = framework_config(1.5, n);
    FrameworkConfig anchor_cfg = framework_config(1.5, n);
    anchor_cfg.subgraph.dangler = DanglerPolicy::anchors_only;
    const FrameworkResult with = compile_framework(g, dangler_cfg);
    const FrameworkResult without = compile_framework(g, anchor_cfg);
    const double saved =
        reduction_pct(static_cast<double>(without.stats().ee_cnot_count),
                      static_cast<double>(with.stats().ee_cnot_count));
    table.add_row({Table::num(n), Table::num(without.stats().ee_cnot_count),
                   Table::num(with.stats().ee_cnot_count),
                   Table::num(saved, 1),
                   Table::num(without.stats().emitters_used),
                   Table::num(with.stats().emitters_used),
                   with.dangler_fallback ? "yes" : "no"});
    total += saved;
    ++rows;
  }
  emit(table,
       "Ablation: dangler-hosted boundary emission vs anchor-only "
       "(lattices, ee-CZ counts; both verified end-to-end)");
  std::cout << "average ee-CZ saving: " << Table::num(total / rows, 1)
            << "%\n";
  return 0;
}
