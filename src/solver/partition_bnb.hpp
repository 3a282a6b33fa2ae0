// Exact min-cut partitioning by branch-and-bound, for small graphs.
//
// Assigns vertices in index order; prunes when the running cut already
// reaches the best complete cut or the free part capacity cannot hold the
// unassigned vertices, with part-symmetry breaking (vertex i may open at
// most one new part). Practical up to ~16 vertices, which covers the
// per-subgraph sizes (g_max = 7) and lets tests certify the heuristic
// partitioner.
#pragma once

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"
#include "graph/metrics.hpp"

namespace epg {

/// Returns the optimal labels, or nullopt if the node budget was exhausted
/// before the search completed.
std::optional<PartitionLabels> partition_exact(
    const Graph& g, std::size_t max_part_size, std::size_t num_parts,
    std::size_t node_budget = 2'000'000);

}  // namespace epg
