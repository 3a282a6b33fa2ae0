#include "solver/partition_refine.hpp"

#include <algorithm>
#include <numeric>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace epg {
namespace {

std::size_t part_count(const Graph& g, const PartitionConfig& cfg) {
  if (cfg.num_parts > 0) return cfg.num_parts;
  return (g.vertex_count() + cfg.max_part_size - 1) / cfg.max_part_size;
}

/// Grow parts by BFS from randomly chosen seeds; vertices left over (from
/// exhausted frontiers) fill the emptiest parts.
PartitionLabels grow_seed_partition(const Graph& g, std::size_t k,
                                    std::size_t cap, Rng& rng) {
  const std::size_t n = g.vertex_count();
  PartitionLabels labels(n, static_cast<std::uint32_t>(k));  // k = unassigned
  std::vector<std::size_t> size(k, 0);
  std::vector<std::vector<Vertex>> frontier(k);

  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  for (std::size_t p = 0; p < k && p < n; ++p) {
    labels[order[p]] = static_cast<std::uint32_t>(p);
    size[p] = 1;
    frontier[p].push_back(order[p]);
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t p = 0; p < k; ++p) {
      if (size[p] >= cap || frontier[p].empty()) continue;
      // Pop one frontier vertex and claim an unassigned neighbor.
      bool grew = false;
      for (std::size_t f = 0; f < frontier[p].size() && !grew; ++f) {
        g.for_each_neighbor(frontier[p][f], [&](Vertex u) {
          if (!grew && labels[u] == k) {
            labels[u] = static_cast<std::uint32_t>(p);
            ++size[p];
            frontier[p].push_back(u);
            grew = true;
          }
        });
      }
      progress = progress || grew;
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    if (labels[v] != k) continue;
    const std::size_t p = static_cast<std::size_t>(
        std::min_element(size.begin(), size.end()) - size.begin());
    labels[v] = static_cast<std::uint32_t>(p);
    ++size[p];
  }
  return labels;
}

/// One improvement pass: greedy single-vertex moves and pairwise swaps that
/// strictly reduce the cut. Returns true when anything improved.
bool refine_pass(const Graph& g, PartitionLabels& labels, std::size_t k,
                 std::size_t cap, Rng& rng) {
  const std::size_t n = g.vertex_count();
  std::vector<std::size_t> size(k, 0);
  for (Vertex v = 0; v < n; ++v) ++size[labels[v]];

  // Edges from v into part `to` minus edges inside v's own part, counted
  // by one neighbor scan per candidate part.
  auto gain_of_move = [&](Vertex v, std::uint32_t to) {
    int internal = 0, external = 0;
    g.for_each_neighbor(v, [&](Vertex u) {
      if (labels[u] == labels[v]) ++internal;
      if (labels[u] == to) ++external;
    });
    return external - internal;  // cut delta = -(gain)
  };

  bool improved = false;
  std::vector<Vertex> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  for (Vertex v : order) {
    const std::uint32_t from = labels[v];
    int best_gain = 0;
    std::uint32_t best_to = from;
    for (std::uint32_t to = 0; to < k; ++to) {
      if (to == from || size[to] >= cap) continue;
      const int gain = gain_of_move(v, to);
      if (gain > best_gain) {
        best_gain = gain;
        best_to = to;
      }
    }
    if (best_to != from) {
      --size[from];
      ++size[best_to];
      labels[v] = best_to;
      improved = true;
    }
  }

  // Cut change when x leaves part `from` for part `to` while its neighbor
  // `partner` moves the other way: the x-partner edge stays cut, every
  // other edge of x enters the cut if its far end is in `from` and leaves
  // it if the far end is in `to`.
  auto half_swap_delta = [&](Vertex x, Vertex partner, std::uint32_t from,
                             std::uint32_t to) {
    int delta = 0;
    g.for_each_neighbor(x, [&](Vertex w) {
      if (w == partner) return;
      if (labels[w] == from) ++delta;
      if (labels[w] == to) --delta;
    });
    return delta;
  };

  // Pairwise swaps unlock moves blocked by the size cap. (Labels mutate
  // inside the visit, the graph does not — the live row scan is safe.)
  for (Vertex v : order) {
    g.for_each_neighbor(v, [&](Vertex u) {
      if (labels[u] == labels[v]) return;
      const std::uint32_t pv = labels[v], pu = labels[u];
      if (half_swap_delta(v, u, pv, pu) + half_swap_delta(u, v, pu, pv) < 0) {
        labels[v] = pu;
        labels[u] = pv;
        improved = true;
      }
    });
  }
  return improved;
}

}  // namespace

bool partition_is_valid(const Graph& g, const PartitionLabels& labels,
                        std::size_t max_part_size) {
  if (labels.size() != g.vertex_count()) return false;
  std::vector<std::size_t> size;
  for (std::uint32_t p : labels) {
    if (p >= labels.size()) return false;
    if (p >= size.size()) size.resize(p + 1, 0);
    ++size[p];
  }
  for (std::size_t s : size)
    if (s > max_part_size) return false;
  return true;
}

PartitionLabels partition_min_cut(const Graph& g, const PartitionConfig& cfg) {
  EPG_REQUIRE(cfg.max_part_size >= 1, "max_part_size must be positive");
  const std::size_t n = g.vertex_count();
  const std::size_t k = part_count(g, cfg);
  EPG_REQUIRE(k * cfg.max_part_size >= n,
              "partition cannot fit all vertices");
  if (k <= 1 || n == 0) return PartitionLabels(n, 0);

  Rng rng(cfg.seed);
  PartitionLabels best;
  std::size_t best_cut = static_cast<std::size_t>(-1);
  for (int r = 0; r < std::max(1, cfg.restarts); ++r) {
    PartitionLabels labels =
        grow_seed_partition(g, k, cfg.max_part_size, rng);
    for (int pass = 0; pass < cfg.max_passes; ++pass)
      if (!refine_pass(g, labels, k, cfg.max_part_size, rng)) break;
    const std::size_t cut = cut_edge_count(g, labels);
    if (cut < best_cut) {
      best_cut = cut;
      best = labels;
    }
  }
  EPG_CHECK(partition_is_valid(g, best, cfg.max_part_size),
            "refined partition must stay within the size cap");
  return best;
}

}  // namespace epg
