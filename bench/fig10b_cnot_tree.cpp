// Fig. 10b: emitter-emitter CNOT counts on tree graph states (QRAM routers
// and tree-code shapes), averaged over instances per size.
//
// "GraphiQ" reproduces the paper's budget-starved comparator (single
// default-order compile); "Strong" adds random-order restarts (see
// fig10a_cnot_lattice.cpp). All 18 instances fan across the batch runtime.
#include "bench_common.hpp"

int main() {
  using namespace epg;
  using namespace epg::bench;
  const std::vector<std::size_t> sizes = {10, 16, 22, 28, 34, 40};
  const int instances_per_size = 3;
  std::vector<ThreeWayInstance> instances;
  for (std::size_t n : sizes)
    for (int i = 0; i < instances_per_size; ++i)
      instances.push_back({"tree" + std::to_string(n) + "." +
                               std::to_string(i),
                           tree_instance(n, n + i), 1.5, n * 10 + i});
  BatchCompiler batch = make_bench_batch();
  const std::vector<ThreeWayRow> rows3 = compare_three_way_batch(instances, batch);

  Table table({"#qubit", "GraphiQ", "Ours", "Reduction(%)", "Strong"});
  double total_red = 0.0;
  int rows = 0;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    double faithful = 0, ours = 0, strong = 0;
    for (int i = 0; i < instances_per_size; ++i) {
      const ThreeWayRow& row = rows3[s * instances_per_size + i];
      faithful += static_cast<double>(row.faithful.ee_cnot_count);
      ours += static_cast<double>(row.ours.ee_cnot_count);
      strong += static_cast<double>(row.strong.ee_cnot_count);
    }
    faithful /= instances_per_size;
    ours /= instances_per_size;
    strong /= instances_per_size;
    const double red = reduction_pct(faithful, ours);
    table.add_row({Table::num(sizes[s]), Table::num(faithful, 1),
                   Table::num(ours, 1), Table::num(red, 1),
                   Table::num(strong, 1)});
    total_red += red;
    ++rows;
  }
  emit(table, "Fig 10b: #ee-CNOT, tree graphs (paper: avg 28%, max 39%)");
  std::cout << "average reduction vs GraphiQ: "
            << Table::num(total_red / rows, 1) << "%\n";
  std::cout << "batch: " << summary_line(batch.totals()) << '\n';
  return 0;
}
