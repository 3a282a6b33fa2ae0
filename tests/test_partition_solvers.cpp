#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/anneal.hpp"
#include "solver/partition_bnb.hpp"
#include "solver/partition_refine.hpp"

namespace epg {
namespace {

/// Exhaustive optimal cut for tiny instances (reference oracle).
std::size_t brute_force_cut(const Graph& g, std::size_t cap, std::size_t k) {
  const std::size_t n = g.vertex_count();
  std::vector<std::uint32_t> labels(n, 0);
  std::size_t best = static_cast<std::size_t>(-1);
  std::vector<std::size_t> size(k, 0);
  const auto recurse = [&](auto&& self, std::size_t v) -> void {
    if (v == n) {
      best = std::min(best, cut_edge_count(g, labels));
      return;
    }
    for (std::uint32_t p = 0; p < k; ++p) {
      if (size[p] >= cap) continue;
      labels[v] = p;
      ++size[p];
      self(self, v + 1);
      --size[p];
    }
  };
  recurse(recurse, 0);
  return best;
}

TEST(PartitionRefine, ValidAndWithinCap) {
  const Graph g = make_waxman(30, 4);
  PartitionConfig cfg;
  cfg.max_part_size = 7;
  const PartitionLabels labels = partition_min_cut(g, cfg);
  EXPECT_TRUE(partition_is_valid(g, labels, 7));
}

TEST(PartitionRefine, SinglePartTrivial) {
  const Graph g = make_ring(5);
  PartitionConfig cfg;
  cfg.max_part_size = 7;
  const PartitionLabels labels = partition_min_cut(g, cfg);
  EXPECT_EQ(cut_edge_count(g, labels), 0u);
}

TEST(PartitionRefine, FindsObviousCut) {
  // Two K4 cliques joined by one bridge: optimal cut = 1.
  Graph g(8);
  for (Vertex u = 0; u < 4; ++u)
    for (Vertex v = u + 1; v < 4; ++v) g.add_edge(u, v);
  for (Vertex u = 4; u < 8; ++u)
    for (Vertex v = u + 1; v < 8; ++v) g.add_edge(u, v);
  g.add_edge(3, 4);
  PartitionConfig cfg;
  cfg.max_part_size = 4;
  cfg.restarts = 8;
  const PartitionLabels labels = partition_min_cut(g, cfg);
  EXPECT_EQ(cut_edge_count(g, labels), 1u);
}

TEST(PartitionBnb, MatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Graph g = make_erdos_renyi(8, 0.4, seed);
    const auto exact = partition_exact(g, 4, 2);
    ASSERT_TRUE(exact.has_value());
    EXPECT_TRUE(partition_is_valid(g, *exact, 4));
    EXPECT_EQ(cut_edge_count(g, *exact), brute_force_cut(g, 4, 2));
  }
}

TEST(PartitionBnb, ThreeParts) {
  const Graph g = make_ring(9);
  const auto exact = partition_exact(g, 3, 3);
  ASSERT_TRUE(exact.has_value());
  // Ring of 9 into 3 arcs: 3 cut edges.
  EXPECT_EQ(cut_edge_count(g, *exact), 3u);
}

TEST(PartitionBnb, BudgetExhaustionReturnsNullopt) {
  const Graph g = make_erdos_renyi(14, 0.5, 1);
  EXPECT_FALSE(partition_exact(g, 7, 2, /*node_budget=*/10).has_value());
}

TEST(PartitionRefine, HeuristicNearExactOnSmall) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Graph g = make_erdos_renyi(9, 0.35, 100 + seed);
    PartitionConfig cfg;
    cfg.max_part_size = 5;
    cfg.num_parts = 2;
    cfg.seed = seed;
    cfg.restarts = 10;
    const auto heur = partition_min_cut(g, cfg);
    const auto exact = partition_exact(g, 5, 2);
    ASSERT_TRUE(exact.has_value());
    // Multi-restart refinement should be within one edge of optimal here.
    EXPECT_LE(cut_edge_count(g, heur), cut_edge_count(g, *exact) + 1);
  }
}

/// Reference copy of partition_min_cut from before the O(deg) swap probe:
/// identical seeding, moves and restarts, but each pairwise swap is judged
/// by recounting the whole cut before and after it.
PartitionLabels reference_partition_min_cut(const Graph& g,
                                            const PartitionConfig& cfg) {
  const std::size_t n = g.vertex_count();
  const std::size_t cap = cfg.max_part_size;
  const std::size_t k = cfg.num_parts > 0 ? cfg.num_parts : (n + cap - 1) / cap;
  if (k <= 1 || n == 0) return PartitionLabels(n, 0);

  const auto grow = [&](Rng& rng) {
    PartitionLabels labels(n, static_cast<std::uint32_t>(k));
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
  };

  const auto refine = [&](PartitionLabels& labels, Rng& rng) {
    std::vector<std::size_t> size(k, 0);
    for (Vertex v = 0; v < n; ++v) ++size[labels[v]];
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
        int gain = 0;
        g.for_each_neighbor(v, [&](Vertex u) {
          if (labels[u] == labels[v]) --gain;
          if (labels[u] == to) ++gain;
        });
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
    for (Vertex v : order) {
      g.for_each_neighbor(v, [&](Vertex u) {
        if (labels[u] == labels[v]) return;
        const std::uint32_t pv = labels[v], pu = labels[u];
        const std::size_t before = cut_edge_count(g, labels);
        labels[v] = pu;
        labels[u] = pv;
        if (cut_edge_count(g, labels) < before) {
          improved = true;
        } else {
          labels[v] = pv;
          labels[u] = pu;
        }
      });
    }
    return improved;
  };

  Rng rng(cfg.seed);
  PartitionLabels best;
  std::size_t best_cut = static_cast<std::size_t>(-1);
  for (int r = 0; r < std::max(1, cfg.restarts); ++r) {
    PartitionLabels labels = grow(rng);
    for (int pass = 0; pass < cfg.max_passes; ++pass)
      if (!refine(labels, rng)) break;
    const std::size_t cut = cut_edge_count(g, labels);
    if (cut < best_cut) {
      best_cut = cut;
      best = labels;
    }
  }
  return best;
}

TEST(PartitionRefine, SwapDeltaMatchesFullRecountReference) {
  // Sparse and dense graphs from 14 to 64 vertices, two restart counts,
  // several seeds: the labels must come out identical, not merely as good.
  std::size_t graphs = 0;
  for (std::size_t n = 14; n <= 64; n += 10) {
    for (std::uint64_t seed = 0; seed < 9; ++seed) {
      const double sparse = 2.5 / static_cast<double>(n);
      for (const Graph& g :
           {make_erdos_renyi(n, sparse, seed * 97 + n),
            make_erdos_renyi(n, n <= 34 ? 0.3 : 0.15, seed * 89 + n),
            shuffle_labels(make_waxman(n, seed + n), seed),
            shuffle_labels(make_random_tree(n, seed * 7 + n, 3), seed + 1)}) {
        ++graphs;
        for (int restarts : {2, 12}) {
          if (restarts == 12 && seed % 3 != 0) continue;
          PartitionConfig cfg;
          cfg.max_part_size = seed % 2 == 0 ? 7 : 5;
          cfg.restarts = restarts;
          cfg.seed = seed * 13 + static_cast<std::uint64_t>(restarts);
          SCOPED_TRACE("n " + std::to_string(n) + " seed " +
                       std::to_string(seed) + " restarts " +
                       std::to_string(restarts) + " m " +
                       std::to_string(g.edge_count()));
          ASSERT_EQ(partition_min_cut(g, cfg),
                    reference_partition_min_cut(g, cfg));
        }
      }
    }
  }
  EXPECT_GE(graphs, 200u);
}

TEST(Anneal, AcceptanceFunction) {
  EXPECT_DOUBLE_EQ(anneal_acceptance(-1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(anneal_acceptance(0.0, 1.0), 1.0);
  EXPECT_NEAR(anneal_acceptance(1.0, 1.0), std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(anneal_acceptance(1.0, 0.0), 0.0);
}

TEST(Anneal, MinimizesQuadratic) {
  Rng rng(5);
  const std::function<double(const double&)> energy = [](const double& x) {
    return (x - 3.0) * (x - 3.0);
  };
  const std::function<double(const double&, Rng&)> neighbor =
      [](const double& x, Rng& r) { return x + (r.uniform() - 0.5); };
  const double best = anneal<double>(-10.0, energy, neighbor, rng);
  EXPECT_NEAR(best, 3.0, 0.5);
}

}  // namespace
}  // namespace epg
