#include "solver/partition_bnb.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace epg {
namespace {

struct BnbState {
  const Graph* g = nullptr;
  std::size_t cap = 0;
  std::size_t k = 0;
  std::size_t node_budget = 0;
  std::size_t nodes = 0;
  bool exhausted = false;

  PartitionLabels labels;
  std::vector<std::size_t> size;
  std::size_t cut = 0;
  std::size_t best_cut = static_cast<std::size_t>(-1);
  PartitionLabels best;

  void dfs(Vertex v, std::uint32_t used_parts) {
    if (exhausted) return;
    if (++nodes > node_budget) {
      exhausted = true;
      return;
    }
    const std::size_t n = g->vertex_count();
    if (cut >= best_cut) return;
    if (v == n) {
      best_cut = cut;
      best = labels;
      return;
    }
    // Remaining capacity feasibility.
    std::size_t free_slots = 0;
    for (std::size_t p = 0; p < k; ++p) free_slots += cap - size[p];
    if (free_slots < n - v) return;

    const std::uint32_t open_limit = std::min<std::uint32_t>(
        used_parts + 1, static_cast<std::uint32_t>(k));
    for (std::uint32_t p = 0; p < open_limit; ++p) {
      if (size[p] >= cap) continue;
      std::size_t added = 0;
      g->for_each_neighbor(v, [&](Vertex u) {
        if (u < v && labels[u] != p) ++added;
      });
      labels[v] = p;
      ++size[p];
      cut += added;
      dfs(v + 1, std::max(used_parts, p + 1));
      cut -= added;
      --size[p];
      labels[v] = static_cast<std::uint32_t>(k);
    }
  }
};

}  // namespace

std::optional<PartitionLabels> partition_exact(const Graph& g,
                                               std::size_t max_part_size,
                                               std::size_t num_parts,
                                               std::size_t node_budget) {
  EPG_REQUIRE(max_part_size >= 1 && num_parts >= 1,
              "partition_exact needs positive sizes");
  EPG_REQUIRE(num_parts * max_part_size >= g.vertex_count(),
              "partition cannot fit all vertices");
  BnbState st;
  st.g = &g;
  st.cap = max_part_size;
  st.k = num_parts;
  st.node_budget = node_budget;
  st.labels.assign(g.vertex_count(), static_cast<std::uint32_t>(num_parts));
  st.size.assign(num_parts, 0);
  st.dfs(0, 0);
  if (st.exhausted || st.best.empty()) {
    if (g.vertex_count() == 0) return PartitionLabels{};
    if (st.exhausted) return std::nullopt;
  }
  return st.best;
}

}  // namespace epg
