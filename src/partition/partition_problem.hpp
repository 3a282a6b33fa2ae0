// The graph-state partitioning problem (paper Section IV.A).
//
// A solution fixes (1) a depth-limited local-complementation sequence that
// transforms the target graph into an LC-equivalent one, and (2) a
// partition of the transformed graph into subgraphs of size <= g_max. The
// objective K is the number of inter-subgraph ("stem") edges: each one later
// costs exactly one emitter-emitter CZ between anchor emitters, so K is the
// partition's entanglement overhead.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/metrics.hpp"

namespace epg {

struct PartitionOutcome {
  Graph transformed;                ///< graph after the LC sequence
  std::vector<Vertex> lc_sequence;  ///< LCs applied to the original graph
  PartitionLabels labels;           ///< part id per vertex (contiguous)
  std::vector<std::vector<Vertex>> parts;  ///< vertex lists, non-empty
  std::size_t stem_edge_count = 0;  ///< the MIP objective K
  /// Candidate (n + m) units charged by every beam/anneal search the
  /// strategy ran, summed over portfolio members and multilevel inner runs.
  std::uint64_t work = 0;
  /// Some search stopped on kPartitionWorkBudget or on its deadline.
  bool work_exhausted = false;

  /// The stem edges of the transformed graph.
  std::vector<Edge> stem_edges() const;
};

/// Assemble an outcome from its pieces: relabels parts contiguously,
/// extracts part lists and counts the cut.
PartitionOutcome make_outcome(Graph transformed,
                              std::vector<Vertex> lc_sequence,
                              const PartitionLabels& labels);

}  // namespace epg
