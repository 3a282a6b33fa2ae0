// Fig. 11b: average number of inter-subgraph (stem) edges with and without
// the local-complementation co-optimization (l = 15 vs l = 0), on Waxman
// random graphs.
#include "bench_common.hpp"

#include "partition/lc_partition_search.hpp"

int main() {
  using namespace epg;
  using namespace epg::bench;
  Table table({"#qubit", "edges(no LC)", "edges(LC l=15)", "reduction(%)"});
  for (std::size_t n : {10, 15, 20, 25, 30, 35}) {
    double with_lc = 0, without_lc = 0;
    const int instances = 3;
    for (int i = 0; i < instances; ++i) {
      const Graph g = waxman_instance(n, n * 5 + i);
      LcPartitionConfig lc;
      lc.g_max = 7;
      lc.max_lc_ops = 15;
      lc.seed = n + i;
      LcPartitionConfig no_lc = lc;
      no_lc.max_lc_ops = 0;
      with_lc += static_cast<double>(
          search_lc_partition(g, lc).stem_edge_count);
      without_lc += static_cast<double>(
          search_lc_partition(g, no_lc).stem_edge_count);
    }
    with_lc /= instances;
    without_lc /= instances;
    table.add_row({Table::num(n), Table::num(without_lc, 1),
                   Table::num(with_lc, 1),
                   Table::num(reduction_pct(without_lc, with_lc), 1)});
  }
  emit(table,
       "Fig 11b: inter-subgraph edges, LC (l=15) vs no LC (l=0), Waxman");
  return 0;
}
