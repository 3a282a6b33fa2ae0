// Fig. 10a: emitter-emitter CNOT counts on 2D lattice graph states.
//
// "GraphiQ" is the paper's comparator: GraphiQ's AlternateTargetSolver at a
// 30-minute timeout, which at these sizes compiles the default (shuffled)
// emission order once — reproduced by the faithful baseline (0 restarts).
// "Strong" adds budgeted random-order restarts, a stronger baseline than
// the paper ever faced, reported for honesty; the reduction column follows
// the paper's comparison.
//
// The instance sweep runs through the batch runtime: every framework
// compile in parallel, then every baseline under the resulting budgets.
#include "bench_common.hpp"

int main() {
  using namespace epg;
  using namespace epg::bench;
  const std::vector<std::size_t> sizes = {10, 20, 30, 40, 50, 60};
  std::vector<ThreeWayInstance> instances;
  for (std::size_t n : sizes)
    instances.push_back(
        {"lat" + std::to_string(n), lattice_instance(n, n), 1.5, n});
  BatchCompiler batch = make_bench_batch();
  const std::vector<ThreeWayRow> rows3 = compare_three_way_batch(instances, batch);

  Table table(
      {"#qubit", "GraphiQ", "Ours", "Reduction(%)", "Strong", "stems"});
  double total_red = 0.0;
  int rows = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const ThreeWayRow& row = rows3[i];
    const double red =
        reduction_pct(static_cast<double>(row.faithful.ee_cnot_count),
                      static_cast<double>(row.ours.ee_cnot_count));
    table.add_row({Table::num(sizes[i]),
                   Table::num(row.faithful.ee_cnot_count),
                   Table::num(row.ours.ee_cnot_count), Table::num(red, 1),
                   Table::num(row.strong.ee_cnot_count),
                   Table::num(row.stem_count)});
    total_red += red;
    ++rows;
  }
  emit(table, "Fig 10a: #ee-CNOT, lattice graphs (paper: avg 25%, max 40%)");
  std::cout << "average reduction vs GraphiQ: "
            << Table::num(total_red / rows, 1) << "%\n";
  std::cout << "batch: " << summary_line(batch.totals()) << '\n';
  return 0;
}
