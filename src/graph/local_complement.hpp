// Local complementation (LC) on graphs.
//
// LC at vertex v complements the subgraph induced by N(v): present edges in
// the neighborhood are removed, absent ones added. On graph *states* this is
// implemented by the local Clifford U_LC(v) = sqrt(-iX)_v (x) sqrt(iZ)_N(v)
// (paper Fig. 4), so LC-related circuit cost is single-qubit only. The
// circuit-facing gate bookkeeping lives in compile/; this header is pure
// graph combinatorics.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace epg {

/// In-place local complementation at v.
void local_complement(Graph& g, Vertex v);

/// Apply a sequence of local complementations left to right.
void apply_lc_sequence(Graph& g, const std::vector<Vertex>& sequence);

/// Total edges after LC at v, without mutating g (an O(deg * n/64) probe
/// used by the greedy/annealing LC searches).
std::size_t edge_count_after_lc(const Graph& g, Vertex v);

}  // namespace epg
