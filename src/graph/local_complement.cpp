#include "graph/local_complement.hpp"

#include <bit>

#include "common/assert.hpp"

namespace epg {

void local_complement(Graph& g, Vertex v) {
  EPG_REQUIRE(v < g.vertex_count(), "local_complement: vertex out of range");
  // Toggling a pair of v's neighbors never touches v's own row, so both
  // walks read it live.
  g.for_each_neighbor(v, [&](Vertex a) {
    g.for_each_neighbor(v, [&](Vertex b) {
      if (a < b) g.toggle_edge(a, b);
    });
  });
}

void apply_lc_sequence(Graph& g, const std::vector<Vertex>& sequence) {
  for (Vertex v : sequence) local_complement(g, v);
}

std::size_t edge_count_after_lc(const Graph& g, Vertex v) {
  EPG_REQUIRE(v < g.vertex_count(), "edge_count_after_lc: out of range");
  // Every edge inside N(v) is seen from both of its ends.
  const std::uint64_t* nv = g.row(v);
  const std::size_t words = g.words_per_row();
  std::size_t deg = 0;
  std::size_t twice_present = 0;
  g.for_each_neighbor(v, [&](Vertex a) {
    ++deg;
    const std::uint64_t* na = g.row(a);
    for (std::size_t w = 0; w < words; ++w)
      twice_present += static_cast<std::size_t>(std::popcount(na[w] & nv[w]));
  });
  const std::size_t present = twice_present / 2;
  const std::size_t pairs = deg * (deg - 1) / 2;
  return g.edge_count() - present + (pairs - present);
}

}  // namespace epg
