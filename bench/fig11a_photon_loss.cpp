// Fig. 11a: photon loss of the generated state (0.5% per tau_QD, electron
// spin T2 ~ 1s), Ne_limit = 1.5 Ne_min. Lower is better; the paper reports
// x1.3 / x1.4 / x1.9 average suppression on lattice / tree / random.
#include "bench_common.hpp"

#include <cmath>

int main() {
  using namespace epg;
  using namespace epg::bench;
  using Maker = Graph (*)(std::size_t, std::uint64_t);
  const std::vector<std::pair<std::string, Maker>> families = {
      {"lattice", &lattice_instance},
      {"tree", &tree_instance},
      {"random", &waxman_instance}};
  const std::vector<std::size_t> sizes = {12, 20, 28};
  std::vector<ComparisonRequest> requests;
  for (const auto& [family, maker] : families)
    for (std::size_t n : sizes)
      requests.push_back({family, maker(n, n), framework_config(1.5, n * 3),
                          baseline_config(n * 3)});
  BatchCompiler batch = make_bench_batch();
  const std::vector<ComparisonRow> rows =
      compare_compilers_batch(requests, batch);

  Table table({"family", "#qubit", "GraphiQ loss", "Ours loss",
               "suppression(x)"});
  for (std::size_t f = 0; f < families.size(); ++f) {
    double product = 1.0;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      const ComparisonRow& row = rows[f * sizes.size() + k];
      const double factor = row.loss_improvement_factor();
      table.add_row({row.label, Table::num(sizes[k]),
                     Table::num(row.baseline.loss.state_loss, 4),
                     Table::num(row.ours.loss.state_loss, 4),
                     Table::num(factor, 2)});
      product *= factor;
    }
    table.add_row({families[f].first + " (geomean)", "-", "-", "-",
                   Table::num(std::pow(product, 1.0 / sizes.size()), 2)});
  }
  emit(table,
       "Fig 11a: photon loss of the final state, 1.5xNe_min "
       "(paper: x1.3 / x1.4 / x1.9 average suppression)");
  return 0;
}
