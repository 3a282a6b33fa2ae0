#include "partition/lc_partition_search.hpp"

#include "common/assert.hpp"
#include "partition/partition_strategy.hpp"
#include "solver/partition_bnb.hpp"

namespace epg {
namespace {

std::size_t parts_needed(std::size_t n, std::size_t g_max) {
  return (n + g_max - 1) / g_max;
}

/// Graphs up to this size are partitioned by exact branch-and-bound.
constexpr std::size_t kExactVertexLimit = 13;

}  // namespace

PartitionLabels lc_partition_solve(const Graph& g,
                                   const LcPartitionConfig& cfg,
                                   int restarts, std::uint64_t seed) {
  const std::size_t k = parts_needed(g.vertex_count(), cfg.g_max);
  if (k <= 1) return PartitionLabels(g.vertex_count(), 0);
  if (g.vertex_count() <= kExactVertexLimit) {
    if (auto exact = partition_exact(g, cfg.g_max, k)) return *exact;
  }
  PartitionConfig pc;
  pc.max_part_size = cfg.g_max;
  pc.num_parts = k;
  pc.seed = seed;
  pc.restarts = restarts;
  return partition_min_cut(g, pc);
}

std::size_t lc_partition_quick_cut(const Graph& g,
                                   const LcPartitionConfig& cfg,
                                   std::uint64_t seed) {
  return cut_edge_count(
      g, lc_partition_solve(g, cfg, cfg.quick_restarts, seed));
}

PartitionOutcome lc_partition_finalize(const Graph& original,
                                       Graph best_graph,
                                       std::vector<Vertex> lc_sequence,
                                       const LcPartitionConfig& cfg) {
  const std::uint64_t polish_seed = cfg.seed * 31 + 7;
  PartitionOutcome lc_out = make_outcome(
      best_graph, lc_sequence,
      lc_partition_solve(best_graph, cfg, cfg.final_restarts, polish_seed));
  if (lc_sequence.empty()) return lc_out;
  PartitionOutcome id_out = make_outcome(
      original, {},
      lc_partition_solve(original, cfg, cfg.final_restarts, polish_seed));
  return id_out.stem_edge_count <= lc_out.stem_edge_count ? id_out : lc_out;
}

PartitionOutcome search_lc_partition(const Graph& g,
                                     const LcPartitionConfig& cfg) {
  EPG_REQUIRE(cfg.g_max >= 1, "g_max must be positive");
  const PartitionStrategy* strategy =
      find_partition_strategy(cfg.strategy);
  EPG_REQUIRE(strategy != nullptr,
              "unknown partition strategy '" + cfg.strategy + "'");
  return strategy->run(g, cfg, Executor::serial());
}

}  // namespace epg
