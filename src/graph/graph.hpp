// Undirected simple graph — the central combinatorial object of the
// compiler. A vertex is a qubit of the target graph state; an edge is a CZ
// entanglement bond. Vertices are dense indices 0..n-1; adjacency is kept
// as bitset rows: O(n/64) neighborhood algebra, which local complementation
// and the absorption legality checks rely on, and allocation-free ascending
// iteration through for_each_neighbor (graph/csr.hpp flattens the rows for
// large sparse graphs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace epg {

using Vertex = std::uint32_t;
using Edge = std::pair<Vertex, Vertex>;

class Graph {
 public:
  /// "No such vertex" sentinel shared by every partial vertex mapping in
  /// the codebase (`induced`'s old_to_new marks dropped vertices with it).
  /// Coarsening maps (graph/coarsen.hpp) are TOTAL by contract — every
  /// fine vertex, isolated ones included, maps to a real cluster and
  /// never to this sentinel; tests/test_coarsen.cpp pins the agreement.
  static constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

  Graph() = default;
  explicit Graph(std::size_t n);

  std::size_t vertex_count() const { return n_; }
  std::size_t edge_count() const { return edge_count_; }

  bool has_edge(Vertex u, Vertex v) const;
  /// Adds the edge; returns false if it already existed. Self-loops are
  /// rejected (graph states have none).
  bool add_edge(Vertex u, Vertex v);
  /// Removes the edge; returns false if it did not exist.
  bool remove_edge(Vertex u, Vertex v);
  /// Toggle the edge (used heavily by local complementation).
  void toggle_edge(Vertex u, Vertex v);

  std::size_t degree(Vertex v) const;

  /// Visit v's neighbors in ascending order without materializing a list.
  /// `fn` takes the neighbor Vertex. `fn` may change edges between other
  /// vertices (local complementation toggles pairs of v's neighbors), but
  /// changing an edge incident to v during the visit is undefined.
  template <typename Fn>
  void for_each_neighbor(Vertex v, Fn&& fn) const {
    const std::uint64_t* r = adj_.data() + v * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = r[w];
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(__builtin_ctzll(bits));
        fn(static_cast<Vertex>(w * 64 + b));
        bits &= bits - 1;
      }
    }
  }

  /// True when N(u) \ {v} == N(v) \ {u} — the "same neighborhood" test of
  /// the absorption rules, computed word-wise.
  bool same_neighborhood(Vertex u, Vertex v) const;

  /// All edges as (min, max) pairs, lexicographically sorted.
  std::vector<Edge> edges() const;

  /// Append an isolated vertex; returns its index.
  Vertex add_vertex();

  /// Remove every edge incident to v (v itself stays, as an isolated
  /// vertex; the compiler never renumbers mid-flight).
  void isolate(Vertex v);

  bool is_isolated(Vertex v) const { return degree(v) == 0; }

  /// Connected components as vertex lists (isolated vertices included).
  std::vector<std::vector<Vertex>> connected_components() const;
  bool is_connected() const;

  /// Induced subgraph on `keep` (vertices renumbered 0..k-1 in `keep`
  /// order). The mapping old->new is written to `old_to_new` when
  /// non-null; it is PARTIAL: vertices not in `keep` map to `kNoVertex`,
  /// while every kept vertex — isolated ones included, they survive as
  /// isolated vertices of the subgraph — maps to its new index.
  Graph induced(const std::vector<Vertex>& keep,
                std::vector<Vertex>* old_to_new = nullptr) const;

  /// Order-insensitive 64-bit fingerprint of the adjacency structure
  /// (labelled, not canonical under isomorphism). Used for search-state
  /// deduplication.
  std::uint64_t fingerprint() const;

  bool operator==(const Graph& other) const;

  /// Word-level access for the algebraic routines (cut-rank etc.).
  std::size_t words_per_row() const { return words_; }
  const std::uint64_t* row(Vertex v) const;

 private:
  std::size_t n_ = 0;
  std::size_t words_ = 0;
  std::size_t edge_count_ = 0;
  std::vector<std::uint64_t> adj_;  // n_ rows of `words_` words each.

  bool bit(Vertex u, Vertex v) const {
    return (adj_[u * words_ + v / 64] >> (v % 64)) & 1ULL;
  }
};

/// Graph::fingerprint over raw bitset rows: `count` words, `n` vertices.
/// Exposed so a row buffer laid out like Graph's (n rows of
/// ceil(n/64) words) hashes exactly as the Graph it encodes.
std::uint64_t adjacency_fingerprint(std::size_t n, const std::uint64_t* rows,
                                    std::size_t count);

/// Human-readable "n=…, m=…, edges=[(a,b)…]" string for diagnostics.
std::string to_string(const Graph& g);

}  // namespace epg
