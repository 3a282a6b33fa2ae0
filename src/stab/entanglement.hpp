// Bipartite entanglement entropy of stabilizer states.
//
// For a stabilizer state with group S on n qubits and a cut A, the entropy
// is S(A) = rank_GF2(S restricted to A's symplectic columns) - |A|. On a
// graph state this equals the cut-rank of the graph (graph/metrics.hpp).
// The compiler never calls this: its emitter bounds (ne_min, Ne_limit) come
// from graph/metrics' cut_rank and height function, which work on the
// adjacency matrix directly. This tableau computation is the independent
// reference that tests check cut_rank against.
#pragma once

#include <cstddef>
#include <vector>

#include "stab/tableau.hpp"

namespace epg {

/// Entanglement entropy (in bits) of the subset A of qubits.
std::size_t entanglement_entropy(const Tableau& t,
                                 const std::vector<std::size_t>& subset);

}  // namespace epg
